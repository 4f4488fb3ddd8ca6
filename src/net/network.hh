#pragma once

/**
 * @file
 * The point-to-point interconnect shared by both machines.
 *
 * Section 4: constant 100-cycle latency between distinct nodes,
 * 10 cycles to self (shared-memory machine), and — like the paper —
 * no contention modeling by default. As an extension (the paper
 * contrasts itself with LAPSE, which does model contention), a simple
 * link-occupancy model can be enabled: consecutive packets leaving a
 * source or arriving at a destination are spaced at least `gap`
 * cycles apart, so bursts queue. The gap only ever delays arrivals,
 * so the engine's causality quantum remains valid.
 *
 * Delivery is an engine event executing a callback at the arrival
 * timestamp; ordering between a fixed (src, dst) pair is FIFO.
 */

#include <algorithm>
#include <vector>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace wwt::net
{

/** Constant-latency interconnect with optional link occupancy. */
class Network
{
  public:
    /**
     * @param engine the event calendar used for deliveries.
     * @param latency remote-message latency in cycles.
     * @param self_latency latency of a node messaging itself.
     * @param gap minimum spacing between packets on one node's
     *        injection/delivery link; 0 disables contention modeling
     *        (the paper's assumption).
     */
    Network(sim::Engine& engine, Cycle latency, Cycle self_latency,
            Cycle gap = 0)
        : engine_(engine), latency_(latency),
          selfLatency_(self_latency), gap_(gap),
          lastInject_(engine.numProcs(), 0),
          lastArrive_(engine.numProcs(), 0)
    {
    }

    /** Latency between two nodes (uncontended). */
    Cycle
    latency(NodeId from, NodeId to) const
    {
        return from == to ? selfLatency_ : latency_;
    }

    /**
     * Deliver @p fn at the destination after the network latency,
     * plus any link-occupancy delay when contention modeling is on.
     * The contended path updates the per-link occupancy state in call
     * order, from fiber and event context alike.
     *
     * @return the arrival timestamp.
     */
    Cycle
    deliver(Cycle now, NodeId from, NodeId to, sim::EventFn fn)
    {
        if (gap_ == 0 || from == to) {
            Cycle at = now + latency(from, to);
            engine_.schedule(at, std::move(fn), prof::Phase::Net);
            return at;
        }
        Cycle depart = std::max(now, lastInject_[from] + gap_);
        lastInject_[from] = depart;
        Cycle at = std::max(depart + latency_, lastArrive_[to] + gap_);
        lastArrive_[to] = at;
        engine_.schedule(at, std::move(fn), prof::Phase::Net);
        return at;
    }

    Cycle gap() const { return gap_; }
    sim::Engine& engine() { return engine_; }

  private:
    sim::Engine& engine_;
    Cycle latency_;
    Cycle selfLatency_;
    Cycle gap_;
    std::vector<Cycle> lastInject_;
    std::vector<Cycle> lastArrive_;
};

} // namespace wwt::net
