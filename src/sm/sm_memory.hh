#pragma once

/**
 * @file
 * The memory-access path of a shared-memory node (Section 4.2).
 *
 * Private addresses behave as on the message-passing machine (11-cycle
 * miss + DRAM + replacement), except that replacement costs follow
 * Table 3 (1 private / 5 shared-clean / 13 shared-dirty) because
 * private and shared blocks share the cache. Shared addresses engage
 * the Dir_nNB protocol: the processor blocks for the whole miss or
 * write-fault transaction (sequential consistency). Dirty shared
 * victims are written back to their home.
 */

#include <cstring>

#include "core/config.hh"
#include "mem/address_map.hh"
#include "prof/hostprof.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/fast_hit.hh"
#include "mem/tlb.hh"
#include "sim/processor.hh"
#include "sm/protocol.hh"

namespace wwt::sm
{

/** Per-node memory front end for the shared-memory machine. */
class SmMemory
{
  public:
    /** @param cache this node's cache, owned by the machine (the
     *         directory protocol manipulates it from event context). */
    SmMemory(sim::Processor& p, mem::BackingStore& store,
             mem::SharedAllocator& shalloc, DirProtocol& proto,
             mem::Cache& cache, const core::MachineConfig& cfg)
        : p_(p), store_(store), shalloc_(shalloc), proto_(proto),
          cache_(cache),
          tlb_(cfg.tlb.entries),
          fast_(cfg.fastHit),
          heap_(mem::AddressMap::privBase(p.id()),
                mem::AddressMap::kPrivStride),
          cfg_(cfg)
    {
        cache_.setFilter(&fast_);
    }

    // The cache points at fast_.
    SmMemory(const SmMemory&) = delete;
    SmMemory& operator=(const SmMemory&) = delete;

    /** Allocate node-private memory. */
    Addr
    lmalloc(std::size_t bytes, std::size_t align = 8)
    {
        return heap_.alloc(bytes, align);
    }

    /** Timed load. */
    template <typename T>
    T
    read(Addr a)
    {
        access(a, false);
        return store_.read<T>(a);
    }

    /**
     * Timed store. For shared data the value is applied at the
     * protocol transaction's grant event (its linearization point),
     * so spinning readers always observe stores in invalidation
     * order; only Exclusive-hit stores apply immediately.
     */
    template <typename T>
    void
    write(Addr a, T v)
    {
        if (!mem::AddressMap::isShared(a)) {
            accessPrivate(a, true);
            store_.write<T>(a, v);
            return;
        }
        static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                      "shared stores are word or doubleword");
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        if (sharedWrite(a, bits, sizeof(T)))
            store_.write<T>(a, v);
    }

    /** Charge one load/store at @p a without moving data. */
    void
    access(Addr a, bool write)
    {
        if (mem::AddressMap::isShared(a))
            accessShared(a, write);
        else
            accessPrivate(a, write);
    }

    /**
     * Atomic swap (the machine's lock primitive, Section 4.2).
     * Acquires exclusivity like a write and returns the old value.
     */
    std::uint64_t swap(Addr a, std::uint64_t nv);

    /**
     * Atomic compare-and-swap; swaps only when the old value equals
     * @p expect. @return the old value.
     */
    std::uint64_t cas(Addr a, std::uint64_t expect, std::uint64_t nv);

    /**
     * Flush the block holding @p a from this cache (Section 5.3.4: a
     * consumer that flushes its copy turns the producer's 2-message
     * invalidation round into a single-message replacement). Dirty
     * blocks are written back; clean drops are silent. Cheap: the
     * replacement cost of Table 3 plus the flush instruction.
     */
    void flush(Addr a);

    /** Untimed peek (verification only). */
    template <typename T>
    T
    peek(Addr a) const
    {
        return store_.read<T>(a);
    }

    /** Untimed poke (initialization only). */
    template <typename T>
    void
    poke(Addr a, T v)
    {
        store_.write<T>(a, v);
    }

    mem::Cache& cache() { return cache_; }
    mem::Tlb& tlb() { return tlb_; }
    mem::FastHitFilter& fastHit() { return fast_; }
    sim::Processor& proc() { return p_; }
    mem::BackingStore& store() { return store_; }

  private:
    void
    checkTlb(Addr a)
    {
        if (!tlb_.access(a)) {
            p_.stats().counts().tlbMisses++;
            p_.advance(sim::CostKind::Tlb, cfg_.tlb.missPenalty);
        }
    }

    Cycle
    replCost(const mem::Victim& v) const
    {
        if (!v.valid)
            return 0;
        if (!mem::AddressMap::isShared(cache_.addrOf(v.block)))
            return cfg_.smReplPrivate;
        return v.dirty ? cfg_.smReplSharedDirty : cfg_.smReplSharedClean;
    }

    /** Issue the writeback for a displaced dirty shared block. */
    void
    maybeWriteback(const mem::Victim& v)
    {
        if (v.valid && v.dirty &&
            mem::AddressMap::isShared(cache_.addrOf(v.block))) {
            proto_.evictWriteback(p_, cache_.addrOf(v.block));
        }
    }

    /**
     * The TLB/count/charge prologue shared by the private and shared
     * access paths, with the fast-hit shortcut inline.
     *
     * When the filter has an entry at function entry, checkTlb is
     * provably a charge-free hit (the epoch match, see
     * mem/fast_hit.hh) and is skipped. The memoized line pointer may
     * only be acted on *after* the charge: advance() may yield at a
     * quantum boundary and protocol events may invalidate or move the
     * block meanwhile. The processor's stall generation tells the two
     * cases apart — unchanged means nothing ran off-fiber during the
     * charge, so the pre-charge memo still describes live state;
     * otherwise the set scan runs exactly where the slow path runs it.
     *
     * @return the line holding @p bnum, or nullptr on a miss.
     */
    mem::Line*
    chargeAccess(Addr a, Addr bnum, std::uint64_t& counter)
    {
        mem::Line* memo = fast_.lookup(bnum, tlb_.epoch());
        if (memo != nullptr) [[likely]] {
            std::uint64_t gen = p_.stallGen();
            counter++;
            p_.advance(sim::CostKind::Comp, 1);
            if (p_.stallGen() == gen) [[likely]]
                return memo;
            return findAfterCharge(bnum);
        }
        return chargeAndFind(a, bnum, counter);
    }

    /** No memo: the TLB probe, the count and the charge, then find. */
    [[gnu::noinline]] mem::Line*
    chargeAndFind(Addr a, Addr bnum, std::uint64_t& counter)
    {
        checkTlb(a);
        counter++;
        p_.advance(sim::CostKind::Comp, 1);
        return findAfterCharge(bnum);
    }

    /**
     * Post-charge set scan, memoizing a hit. The filter is not probed
     * again: it only ever answers what the scan would, and remember()
     * leaves an identical entry untouched.
     */
    [[gnu::noinline]] mem::Line*
    findAfterCharge(Addr bnum)
    {
        mem::Line* line = cache_.find(bnum);
        if (line != nullptr)
            fast_.remember(bnum, line, tlb_.epoch());
        return line;
    }

    void
    accessPrivate(Addr a, bool write)
    {
        Addr bnum = cache_.blockOf(a);
        auto& counts = p_.stats().counts();
        mem::Line* line = chargeAccess(a, bnum, counts.privAccesses);
        if (line != nullptr) [[likely]] {
            // Only a store touches the line: a load hit leaves the
            // host cache line holding it clean.
            if (write)
                line->dirty = true;
            return;
        }
        privateMiss(bnum, write, counts);
    }

    void
    accessShared(Addr a, bool write)
    {
        Addr bnum = cache_.blockOf(a);
        auto& counts = p_.stats().counts();
        mem::Line* line = chargeAccess(a, bnum, counts.sharedAccesses);
        if (line != nullptr &&
            (!write || line->state == mem::LineState::Exclusive))
            [[likely]] {
            if (write)
                line->dirty = true;
            return;
        }
        sharedFaultOrMiss(a, bnum, write, line, counts);
    }

    // Host-profiler: the hit paths above are deliberately left
    // uninstrumented (they are the <2%-overhead budget); only fault
    // and miss handling below is charged to Mem.
    [[gnu::noinline]] void
    privateMiss(Addr bnum, bool write, stats::Counts& counts)
    {
        prof::SampledPhase hp(prof::Phase::Mem);
        counts.privMisses++;
        mem::Victim v;
        mem::Line* line =
            cache_.insert(bnum, mem::LineState::Exclusive, write, &v);
        fast_.remember(bnum, line, tlb_.epoch());
        p_.advance(sim::CostKind::PrivMiss,
                   cfg_.privMissBase + cfg_.dramAccess + replCost(v));
        maybeWriteback(v);
    }

    /** A store to a read-only copy (@p line) or a miss (nullptr). */
    [[gnu::noinline]] void
    sharedFaultOrMiss(Addr a, Addr bnum, bool write, mem::Line* line,
                      stats::Counts& counts)
    {
        prof::SampledPhase hp(prof::Phase::Mem);
        if (line != nullptr) {
            // Write fault: upgrade the read-only copy.
            counts.writeFaults++;
            line->state = mem::LineState::Exclusive;
            line->dirty = true;
            p_.advance(sim::CostKind::WriteFault, cfg_.smSharedMissBase);
            proto_.miss(p_, a, true, true, sim::CostKind::WriteFault);
            return;
        }
        if (proto_.homeOf(a) == p_.id())
            counts.sharedMissLocal++;
        else
            counts.sharedMissRemote++;
        mem::Victim v;
        line = cache_.insert(
            bnum,
            write ? mem::LineState::Exclusive : mem::LineState::Shared,
            write, &v);
        fast_.remember(bnum, line, tlb_.epoch());
        p_.advance(sim::CostKind::SharedMiss,
                   cfg_.smSharedMissBase + replCost(v));
        maybeWriteback(v);
        proto_.miss(p_, a, write, false, sim::CostKind::SharedMiss);
    }

    std::uint64_t atomicOp(Addr a, AtomicKind k, std::uint64_t expect,
                           std::uint64_t nv);

    /**
     * Timing + protocol for a shared store.
     * @return true when the caller should apply the value itself
     *         (Exclusive hit); false when the protocol applied it at
     *         the grant event.
     */
    bool sharedWrite(Addr a, std::uint64_t bits, unsigned width);

    sim::Processor& p_;
    mem::BackingStore& store_;
    mem::SharedAllocator& shalloc_;
    DirProtocol& proto_;
    mem::Cache& cache_;
    mem::Tlb tlb_;
    mem::FastHitFilter fast_;
    mem::BumpAllocator heap_;
    const core::MachineConfig& cfg_;
};

} // namespace wwt::sm
