#pragma once

/**
 * @file
 * Per-processor statistics with phase support.
 *
 * The paper reports EM3D's initialization and main loop separately
 * (Tables 12 and 14), so counters are segmented into named phases; the
 * harness switches every processor's current phase at a barrier.
 */

#include <cstdint>
#include <vector>

#include "stats/category.hh"
#include "stats/counts.hh"

namespace wwt::stats
{

/** Cycles-by-category plus event counts for one execution phase. */
struct PhaseStats {
    CategoryCycles cycles{};
    Counts counts;
    /**
     * Redundant conservation counter: every charge that lands in a
     * category also lands here, through a separate code path, so the
     * audit subsystem can verify that the per-category cycles still
     * sum to the total charged (cycle conservation — the paper's
     * tables are partitions of this value).
     */
    std::uint64_t charged = 0;

    PhaseStats& operator+=(const PhaseStats& o);
    std::uint64_t totalCycles() const;
};

/**
 * All statistics gathered for one simulated processor.
 *
 * There is always at least one phase (index 0). setPhase() grows the
 * phase vector on demand so all processors can share a phase schedule
 * managed by the harness.
 */
class ProcStats
{
  public:
    ProcStats() : phases_(1), cur_(phases_.data()) {}
    // cur_ points into phases_; a copy would point into the original.
    ProcStats(const ProcStats&) = delete;
    ProcStats& operator=(const ProcStats&) = delete;

    /** Attribute @p n cycles to category @p c in the current phase. */
    void
    addCycles(Category c, std::uint64_t n)
    {
        cur_->cycles[static_cast<std::size_t>(c)] += n;
        cur_->charged += n;
    }

    /** Mutable event counters of the current phase. */
    Counts& counts() { return cur_->counts; }

    /** Switch to phase @p i, growing the phase list if needed. */
    void setPhase(std::size_t i);

    /** Index of the phase currently accumulating. */
    std::size_t
    currentPhase() const
    {
        return static_cast<std::size_t>(cur_ - phases_.data());
    }

    std::size_t numPhases() const { return phases_.size(); }
    const PhaseStats& phase(std::size_t i) const { return phases_.at(i); }
    /** Mutable phase access (harness/test use, e.g. seeding faults). */
    PhaseStats& phase(std::size_t i) { return phases_.at(i); }

    /** Sum of all phases. */
    PhaseStats total() const;

    /** Reset all phases and return to phase 0. */
    void reset();

  private:
    std::vector<PhaseStats> phases_;
    /**
     * The phase accumulating now: every charge and count goes through
     * it, so the hot path skips the vector index. Re-pointed whenever
     * phases_ may reallocate.
     */
    PhaseStats* cur_;
};

} // namespace wwt::stats
