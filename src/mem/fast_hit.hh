#pragma once

/**
 * @file
 * The per-processor fast-hit filter.
 *
 * Almost every simulated access is a cache hit to a recently touched
 * block, yet the full model pays a TLB probe plus an associative set
 * scan for each one. The filter memoizes the last few touched blocks
 * in a tiny direct-mapped table of (block, line pointer, TLB epoch)
 * entries, so the common repeat access charges its cycle without
 * entering either structure.
 *
 * Correctness contract (see docs/performance.md): the filter must
 * never produce a hit the full lookup would not have produced, so
 * that enabling it changes no simulated cycle.
 *
 *  - Coherence: the cache tells the filter when a line dies. The
 *    owning front end attaches its filter to its cache
 *    (Cache::setFilter), and every way a line can stop holding its
 *    block goes through the cache — an insert's victim, a remove()
 *    (protocol invalidations, flushes, fetches that take the block
 *    away), a reset() — which calls forget()/clear(). An entry is
 *    therefore always a live line holding its block, and lookup()
 *    never reads the Line itself: a hit touches one host cache line
 *    (the slot), not two. State changes that keep the block resident
 *    (a write-fault upgrade, a protocol downgrade to Shared) leave the
 *    entry valid; the caller reads the line's state where it matters.
 *    Line pointers stay valid because the cache's line array never
 *    reallocates.
 *  - Translation: an entry is trusted only while the TLB has done no
 *    refill since the entry was recorded (epoch match). The TLB is
 *    FIFO — installs are the only evictions — so an unchanged epoch
 *    proves every then-mapped page is still mapped, and a fast hit
 *    can never skip a TLB miss the full path would have charged.
 *
 * A fast hit is therefore exactly the slow path's "TLB hit, cache
 * hit" outcome; the caller replays the identical counter increments
 * and cycle charges for that outcome.
 */

#include <array>
#include <cstdint>

#include "mem/cache.hh"
#include "sim/types.hh"

namespace wwt::mem
{

class FastHitFilter
{
  public:
    /**
     * Sized so a processor's filter (24 B per slot) stays resident in
     * the host's private caches even with tens of processors live on
     * one host core — a filter bigger than the structures it fronts
     * is slower than no filter at all.
     */
    static constexpr std::size_t kSlots = 1024;

    explicit FastHitFilter(bool enabled = true) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * The memoized line for @p block, or nullptr when the slow path
     * must run. Reads only the slot: the cache has already dropped
     * every entry whose line died.
     * @param tlb_epoch the owning processor's current TLB refill
     *        epoch; entries recorded under an older epoch are not
     *        trusted (their page may have been evicted since).
     */
    Line*
    lookup(Addr block, std::uint64_t tlb_epoch) const
    {
        const Entry& e = slots_[block & (kSlots - 1)];
        if (e.block == block && e.tlbEpoch == tlb_epoch)
            return e.line;
        return nullptr;
    }

    /** Memoize the slow path's lookup result for @p block. */
    void
    remember(Addr block, Line* line, std::uint64_t tlb_epoch)
    {
        if (!enabled_ || line == nullptr)
            return;
        Entry& e = slots_[block & (kSlots - 1)];
        // A repeat hit would rewrite identical fields; skipping the
        // stores keeps the slot's cache line in the shared state.
        if (e.line == line && e.block == block && e.tlbEpoch == tlb_epoch)
            return;
        e.block = block;
        e.tlbEpoch = tlb_epoch;
        e.line = line;
    }

    /** The cache's line holding @p block died: drop its entry. */
    void
    forget(Addr block)
    {
        Entry& e = slots_[block & (kSlots - 1)];
        if (e.block == block)
            e = Entry{};
    }

    /** Drop every entry (cache reset; tests). */
    void
    clear()
    {
        slots_.fill(Entry{});
    }

  private:
    /** Matches no block number (those are addresses >> 5). */
    static constexpr Addr kNoBlock = ~Addr{0};

    struct Entry {
        Addr block = kNoBlock;
        std::uint64_t tlbEpoch = 0;
        Line* line = nullptr;
    };

    std::array<Entry, kSlots> slots_{};
    bool enabled_;
};

} // namespace wwt::mem
