#pragma once

/**
 * @file
 * The quantum-based discrete-event simulation engine.
 *
 * Like the Wisconsin Wind Tunnel, the engine advances all target
 * processors in lock-step quanta equal to the network's minimum
 * latency (100 cycles): any interaction sent during a quantum can only
 * take effect in a later quantum, so processors may execute a whole
 * quantum independently without violating causality. Hardware events
 * (protocol message arrivals, barrier completions, packet deliveries)
 * carry exact timestamps and are executed in (time, sequence) order at
 * the start of the quantum containing them.
 *
 * The engine is sequential: one host thread alternates between
 * draining the calendar up to the quantum end and running each ready
 * processor's fiber to that end, in processor-id order. Every
 * cross-processor operation (calendar insertion, barrier arrival,
 * link bookkeeping) therefore happens in (processor id, program
 * order) within a quantum, which makes runs deterministic.
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/processor.hh"
#include "sim/types.hh"
#include "trace/tracer.hh"

namespace wwt::sim
{

/** Owns the processors and the event calendar; runs the simulation. */
class Engine
{
  public:
    /**
     * @param nprocs number of target processors.
     * @param quantum causality window; must equal the minimum
     *        network latency (100 cycles for the paper's machines).
     * @param stack_bytes fiber stack size per processor.
     */
    explicit Engine(std::size_t nprocs, Cycle quantum = 100,
                    std::size_t stack_bytes = 1u << 20);

    std::size_t numProcs() const { return procs_.size(); }
    Processor& proc(NodeId id) { return *procs_.at(id); }
    const Processor& proc(NodeId id) const { return *procs_.at(id); }
    Cycle quantum() const { return quantum_; }

    /**
     * Schedule an event at absolute target time @p t. @p tag names
     * the host-profiler phase the event runs under (see
     * EventQueue::schedule).
     */
    void
    schedule(Cycle t, EventQueue::Callback cb,
             prof::Phase tag = prof::Phase::EventDrain)
    {
        events_.schedule(t, std::move(cb), tag);
    }

    /** Assign the program run by processor @p id. */
    void setBody(NodeId id, Processor::Body body);

    /**
     * Simulate until every processor with a body has finished.
     * @throws std::runtime_error on deadlock (blocked processors with
     *         an empty event calendar).
     * @throws whatever a processor's body throws, with its type, once
     *         that processor's slice has ended; the other processors
     *         are left where they stopped.
     */
    void run();

    /** Completion time: the maximum processor clock. */
    Cycle elapsed() const;

    /** Number of events executed so far (diagnostics). */
    std::uint64_t eventsExecuted() const { return events_.executed(); }

    /** True when no events remain on the calendar. */
    bool calendarDrained() const { return events_.empty(); }

    /**
     * Register an always-on audit check. Machines register their
     * conservation sweeps (coherence consistency, packet and byte
     * conservation, cycle conservation) here; the engine runs every
     * registered check once at the end of run(), and collectReport()
     * re-runs them at report time. A violated invariant throws
     * audit::AuditError.
     */
    void addAudit(std::function<void()> fn);

    /** Run every registered audit check now. */
    void runAudits() const;

    /**
     * Attach a flight recorder to the engine and every processor.
     * Tracing is off by default; a disabled tracer costs one branch
     * per hook and recording never perturbs simulated cycle counts.
     * @param cap_per_track ring capacity per track (0 = default).
     * @return the tracer, for direct recording from harness code.
     */
    trace::Tracer& enableTracing(std::size_t cap_per_track = 0);

    /** The attached flight recorder, or nullptr if tracing is off. */
    trace::Tracer* tracer() const { return tracer_.get(); }

  private:
    /**
     * p.runUntil under the fiber's saved host-profiler phase: the
     * engine-side phase is parked across the slice and the fiber's
     * phase survives yields (see Processor::hostPhase_).
     */
    static void runUntilPhased(Processor& p, Cycle quantum_end);
    /**
     * Idle-window handling: fast-forward quantumStart_ to the next
     * interesting time, or throw the deadlock diagnostic.
     */
    void idleSkipOrDeadlock();

    Cycle quantum_;
    Cycle quantumStart_ = 0;
    EventQueue events_;
    std::vector<std::unique_ptr<Processor>> procs_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::vector<std::function<void()>> audits_;
};

} // namespace wwt::sim
