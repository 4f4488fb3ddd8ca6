#pragma once

/**
 * @file
 * The CM-5-like hardware barrier both machines provide (Table 1):
 * completion 100 cycles after the last processor arrives. Wait time is
 * charged through CostKind::Barrier, so the active attribution decides
 * whether it lands in "Barrier", "Start-up Wait", or a lumped
 * synchronization bucket.
 */

#include <cstdint>
#include <vector>

#include "sim/engine.hh"
#include "sim/processor.hh"
#include "sim/types.hh"

namespace wwt::net
{

/** Full-machine hardware barrier. */
class HwBarrier
{
  public:
    /**
     * @param engine event calendar.
     * @param nprocs number of participating processors (all of them).
     * @param latency cycles from last arrival to release.
     */
    HwBarrier(sim::Engine& engine, std::size_t nprocs, Cycle latency);

    /**
     * Enter the barrier; blocks the calling processor until all
     * @c nprocs processors have entered, then resumes everyone
     * @c latency cycles after the last arrival.
     *
     * Must be called on the processor's fiber.
     */
    void wait(sim::Processor& p);

    /** Number of completed barrier episodes (tests/diagnostics). */
    std::uint64_t episodes() const { return episodes_; }

  private:
    /** Register one arrival; the last one schedules the release. */
    void arrive(sim::Processor& p, Cycle arrival);

    sim::Engine& engine_;
    std::size_t nprocs_;
    Cycle latency_;
    std::vector<sim::Processor*> waiting_;
    Cycle lastArrival_ = 0;
    std::uint64_t episodes_ = 0;
};

} // namespace wwt::net
