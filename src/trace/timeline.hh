#pragma once

/**
 * @file
 * Fixed-footprint timelines of simulated time.
 *
 * The latency histograms answer "how long did waits take?" but not
 * "*when* did they happen?" — and desynchronization pathologies (one
 * slow processor dragging a barrier, a wave of waiting propagating
 * through the machine) are visible only in the time axis. A Timeline
 * accumulates weighted intervals into fixed-width windows of simulated
 * time at bounded memory: when an interval lands past the last window,
 * the window width doubles and adjacent windows fold pairwise, exactly
 * like a zooming-out strip chart. Folding is linear, so the final
 * state depends only on the multiset of added intervals and the final
 * width — never on insertion order.
 */

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace wwt::trace
{

/** Windowed accumulation of cycle intervals over simulated time. */
class Timeline
{
  public:
    /** Window-count ceiling; growth doubles the width instead. */
    static constexpr std::size_t kMaxWindows = 256;

    /** Initial window width in cycles (a power of two). */
    static constexpr Cycle kInitialWindow = 1024;

    Cycle window() const { return window_; }
    bool empty() const { return used_ == 0; }

    /** Windows spanning the last touched one (0 when empty). */
    std::size_t size() const { return used_; }

    /** Accumulated cycles in window @p i ([i*window, (i+1)*window)). */
    std::uint64_t
    at(std::size_t i) const
    {
        return i < used_ ? bins_[i] : 0;
    }

    /**
     * Accumulate the interval [t0, t1): each overlapped window gains
     * the length of its overlap, so the total added equals t1 - t0.
     */
    void
    add(Cycle t0, Cycle t1)
    {
        if (t1 <= t0)
            return;
        growTo(t1 - 1);
        if (bins_.empty())
            bins_.assign(kMaxWindows, 0);
        std::size_t first = static_cast<std::size_t>(t0 / window_);
        std::size_t last = static_cast<std::size_t>((t1 - 1) / window_);
        for (std::size_t w = first; w <= last; ++w) {
            Cycle lo = std::max<Cycle>(t0, w * window_);
            Cycle hi = std::min<Cycle>(t1, (w + 1) * window_);
            bins_[w] += hi - lo;
        }
        if (last + 1 > used_)
            used_ = last + 1;
    }

    /**
     * Widen to @p wider, which must be window() * 2^k; adjacent
     * windows fold pairwise (exact — no resampling). Used to bring a
     * set of per-processor timelines to one common width.
     */
    void
    foldTo(Cycle wider)
    {
        while (window_ < wider)
            foldOnce();
    }

  private:
    void
    growTo(Cycle t)
    {
        while (t / window_ >= kMaxWindows)
            foldOnce();
    }

    void
    foldOnce()
    {
        if (!bins_.empty()) {
            for (std::size_t i = 0; i < kMaxWindows / 2; ++i)
                bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
            for (std::size_t i = kMaxWindows / 2; i < kMaxWindows; ++i)
                bins_[i] = 0;
        }
        used_ = (used_ + 1) / 2;
        window_ *= 2;
    }

    Cycle window_ = kInitialWindow;
    std::size_t used_ = 0;
    /** Lazily allocated: a Timeline nothing feeds costs no memory. */
    std::vector<std::uint64_t> bins_;
};

} // namespace wwt::trace
