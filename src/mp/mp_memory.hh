#pragma once

/**
 * @file
 * The memory-access path of a message-passing node.
 *
 * All data on the MP machine is node-local: an access checks the TLB
 * and the 256 KB cache; a miss costs 11 cycles plus the 10-cycle DRAM
 * access plus a 1-cycle replacement (infinite write buffer, Table 2).
 * Misses are charged as CostKind::PrivMiss, so they appear as "Local
 * Misses" in application code and "Lib Misses" inside communication
 * libraries.
 */

#include "core/config.hh"
#include "mem/address_map.hh"
#include "mem/allocator.hh"
#include "prof/hostprof.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/fast_hit.hh"
#include "mem/tlb.hh"
#include "sim/processor.hh"

namespace wwt::mp
{

/** Per-node memory: allocator, TLB, cache, and the access charges. */
class MpMemory
{
  public:
    MpMemory(sim::Processor& p, mem::BackingStore& store,
             const core::MachineConfig& cfg)
        : p_(p), store_(store),
          cache_(cfg.cache.bytes, cfg.cache.assoc, cfg.cache.blockBytes,
                 cfg.cache.seed + p.id()),
          tlb_(cfg.tlb.entries),
          fast_(cfg.fastHit),
          heap_(mem::AddressMap::privBase(p.id()),
                mem::AddressMap::kPrivStride),
          cfg_(cfg)
    {
        cache_.setFilter(&fast_);
    }

    // The cache points at fast_.
    MpMemory(const MpMemory&) = delete;
    MpMemory& operator=(const MpMemory&) = delete;

    /** Allocate node-local memory. */
    Addr
    alloc(std::size_t bytes, std::size_t align = 8)
    {
        return heap_.alloc(bytes, align);
    }

    /** Timed load of a naturally-aligned value. */
    template <typename T>
    T
    read(Addr a)
    {
        access(a, false);
        return store_.read<T>(a);
    }

    /** Timed store of a naturally-aligned value. */
    template <typename T>
    void
    write(Addr a, T v)
    {
        access(a, true);
        store_.write<T>(a, v);
    }

    /**
     * Charge the cost of one load/store at @p a without moving data
     * (used when a bulk operation models several accesses at once).
     * The hit path is inline; misses are handled out of line.
     */
    void
    access(Addr a, bool write)
    {
        Addr block = cache_.blockOf(a);
        auto& counts = p_.stats().counts();
        mem::Line* line = chargeAccess(a, block, counts);
        if (line != nullptr) [[likely]] {
            // Only a store touches the line: a load hit leaves the
            // host cache line holding it clean.
            if (write)
                line->dirty = true;
            return;
        }
        miss(block, write, counts);
    }

    /** Untimed peek (harness/verification only). */
    template <typename T>
    T
    peek(Addr a) const
    {
        return store_.read<T>(a);
    }

    /** Untimed poke (harness/initialization only). */
    template <typename T>
    void
    poke(Addr a, T v)
    {
        store_.write<T>(a, v);
    }

    mem::BackingStore& store() { return store_; }
    mem::Cache& cache() { return cache_; }
    mem::Tlb& tlb() { return tlb_; }
    mem::FastHitFilter& fastHit() { return fast_; }
    sim::Processor& proc() { return p_; }

  private:
    /**
     * The TLB/count/charge prologue with the fast-hit shortcut.
     *
     * A memo entry proves the TLB probe would hit (epoch match, see
     * mem/fast_hit.hh), so the probe is skipped. The memoized line may
     * only be acted on AFTER the charge: advance() may yield at a
     * quantum boundary or deliver an interrupt, either of which can
     * kill it. An unchanged stall generation proves neither happened,
     * so the pre-charge memo still describes live state; otherwise
     * the set scan runs exactly where the slow path runs it.
     *
     * @return the line holding @p block, or nullptr on a miss.
     */
    mem::Line*
    chargeAccess(Addr a, Addr block, stats::Counts& counts)
    {
        mem::Line* memo = fast_.lookup(block, tlb_.epoch());
        if (memo != nullptr) [[likely]] {
            std::uint64_t gen = p_.stallGen();
            counts.privAccesses++;
            p_.advance(sim::CostKind::Comp, 1); // the ld/st instruction
            if (p_.stallGen() == gen) [[likely]]
                return memo;
            return findAfterCharge(block);
        }
        return chargeAndFind(a, block, counts);
    }

    /** No memo: the TLB probe, the count and the charge, then find. */
    [[gnu::noinline]] mem::Line*
    chargeAndFind(Addr a, Addr block, stats::Counts& counts)
    {
        if (!tlb_.access(a)) {
            counts.tlbMisses++;
            p_.advance(sim::CostKind::Tlb, cfg_.tlb.missPenalty);
        }
        counts.privAccesses++;
        p_.advance(sim::CostKind::Comp, 1); // the ld/st instruction
        return findAfterCharge(block);
    }

    /**
     * Post-charge set scan, memoizing a hit. The filter is not probed
     * again: it only ever answers what the scan would, and remember()
     * leaves an identical entry untouched.
     */
    [[gnu::noinline]] mem::Line*
    findAfterCharge(Addr block)
    {
        mem::Line* line = cache_.find(block);
        if (line != nullptr)
            fast_.remember(block, line, tlb_.epoch());
        return line;
    }

    [[gnu::noinline]] void
    miss(Addr block, bool write, stats::Counts& counts)
    {
        // Host-profiler: only the miss path is charged to Mem; the
        // hit path stays uninstrumented (it is the <2%-overhead
        // budget and dominates dynamic accesses).
        prof::SampledPhase hp(prof::Phase::Mem);
        counts.privMisses++;
        mem::Victim v;
        mem::Line* line =
            cache_.insert(block, mem::LineState::Exclusive, write, &v);
        fast_.remember(block, line, tlb_.epoch());
        Cycle stall = cfg_.privMissBase + cfg_.dramAccess +
                      (v.valid ? cfg_.mpReplacement : 0);
        p_.advance(sim::CostKind::PrivMiss, stall);
    }

    sim::Processor& p_;
    mem::BackingStore& store_;
    mem::Cache cache_;
    mem::Tlb tlb_;
    mem::FastHitFilter fast_;
    mem::BumpAllocator heap_;
    const core::MachineConfig& cfg_;
};

} // namespace wwt::mp
