#include "sm/sm_memory.hh"

#include <cassert>

namespace wwt::sm
{

std::uint64_t
SmMemory::atomicOp(Addr a, AtomicKind k, std::uint64_t expect,
                   std::uint64_t nv)
{
    assert(mem::AddressMap::isShared(a) && "atomics act on shared data");
    Addr bnum = cache_.blockOf(a);
    auto& counts = p_.stats().counts();
    counts.atomicOps++;
    mem::Line* line = chargeAccess(a, bnum, counts.sharedAccesses);

    if (line != nullptr) {
        if (line->state == mem::LineState::Exclusive) {
            // Exclusivity in hand: the swap completes locally.
            line->dirty = true;
            p_.advance(sim::CostKind::Comp, 2);
            std::uint64_t old = store_.read<std::uint64_t>(a);
            if (k == AtomicKind::Swap || old == expect)
                store_.write<std::uint64_t>(a, nv);
            return old;
        }
        prof::SampledPhase hp(prof::Phase::Mem);
        counts.writeFaults++;
        line->state = mem::LineState::Exclusive;
        line->dirty = true;
        p_.advance(sim::CostKind::WriteFault, cfg_.smSharedMissBase);
        return proto_.atomic(p_, a, true, k, nv, expect, 8,
                             sim::CostKind::WriteFault);
    }

    prof::SampledPhase hp(prof::Phase::Mem);
    if (proto_.homeOf(a) == p_.id())
        counts.sharedMissLocal++;
    else
        counts.sharedMissRemote++;
    mem::Victim v;
    fast_.remember(
        bnum, cache_.insert(bnum, mem::LineState::Exclusive, true, &v),
        tlb_.epoch());
    p_.advance(sim::CostKind::SharedMiss,
               cfg_.smSharedMissBase + replCost(v));
    maybeWriteback(v);
    return proto_.atomic(p_, a, false, k, nv, expect, 8,
                         sim::CostKind::SharedMiss);
}

bool
SmMemory::sharedWrite(Addr a, std::uint64_t bits, unsigned width)
{
    Addr bnum = cache_.blockOf(a);
    auto& counts = p_.stats().counts();
    mem::Line* line = chargeAccess(a, bnum, counts.sharedAccesses);

    if (line != nullptr) {
        if (line->state == mem::LineState::Exclusive) {
            line->dirty = true;
            return true; // caller stores immediately
        }
        prof::SampledPhase hp(prof::Phase::Mem);
        counts.writeFaults++;
        line->state = mem::LineState::Exclusive;
        line->dirty = true;
        p_.advance(sim::CostKind::WriteFault, cfg_.smSharedMissBase);
        proto_.atomic(p_, a, true, AtomicKind::Store, bits, 0, width,
                      sim::CostKind::WriteFault);
        return false;
    }

    prof::SampledPhase hp(prof::Phase::Mem);
    if (proto_.homeOf(a) == p_.id())
        counts.sharedMissLocal++;
    else
        counts.sharedMissRemote++;
    mem::Victim v;
    fast_.remember(
        bnum, cache_.insert(bnum, mem::LineState::Exclusive, true, &v),
        tlb_.epoch());
    p_.advance(sim::CostKind::SharedMiss,
               cfg_.smSharedMissBase + replCost(v));
    maybeWriteback(v);
    proto_.atomic(p_, a, false, AtomicKind::Store, bits, 0, width,
                  sim::CostKind::SharedMiss);
    return false;
}

void
SmMemory::flush(Addr a)
{
    p_.advance(sim::CostKind::Comp, 1); // the flush instruction
    mem::Victim v = cache_.remove(cache_.blockOf(a));
    if (!v.valid)
        return;
    p_.advance(sim::CostKind::Comp, replCost(v));
    if (v.dirty) {
        maybeWriteback(v); // carries the data home
    } else if (mem::AddressMap::isShared(a)) {
        // Replacement hint: one message now saves the writer's
        // invalidate + acknowledgement later.
        proto_.replacementHint(p_, a);
    }
}

std::uint64_t
SmMemory::swap(Addr a, std::uint64_t nv)
{
    return atomicOp(a, AtomicKind::Swap, 0, nv);
}

std::uint64_t
SmMemory::cas(Addr a, std::uint64_t expect, std::uint64_t nv)
{
    return atomicOp(a, AtomicKind::Cas, expect, nv);
}

} // namespace wwt::sm
