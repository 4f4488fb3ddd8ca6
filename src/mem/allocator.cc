#include "mem/allocator.hh"

#include <stdexcept>

namespace wwt::mem
{

namespace
{

Addr
alignUp(Addr a, std::size_t align)
{
    Addr mask = static_cast<Addr>(align) - 1;
    return (a + mask) & ~mask;
}

} // namespace

Addr
BumpAllocator::alloc(std::size_t bytes, std::size_t align)
{
    Addr a = alignUp(next_, align);
    if (a + bytes > limit_)
        throw std::runtime_error("private memory region exhausted");
    next_ = a + bytes;
    return a;
}

SharedAllocator::SharedAllocator(Addr base, Addr size, std::size_t nprocs,
                                 AllocPolicy policy)
    : base_(base), limit_(base + size), next_(base), nprocs_(nprocs),
      policy_(policy), basePage_(base >> 12)
{
    if (nprocs == 0)
        throw std::invalid_argument("SharedAllocator needs nodes");
}

Addr
SharedAllocator::allocHomed(std::size_t bytes, std::size_t align,
                            NodeId node, bool force_local)
{
    Addr a = alignUp(next_, align);
    if (force_local || policy_ == AllocPolicy::Local) {
        // Never share a page between nodes under local homing: a page
        // already homed elsewhere would defeat the policy.
        Addr page = a >> 12;
        std::size_t i = static_cast<std::size_t>(page - basePage_);
        if (i < home_.size() && home_[i] != kNoHome && home_[i] != node)
            a = alignUp((page + 1) << 12, align);
    }
    if (a + bytes > limit_)
        throw std::runtime_error("shared memory region exhausted");
    next_ = a + bytes;

    Addr first_page = a >> 12;
    Addr last_page = (a + bytes - 1) >> 12;
    std::size_t need = static_cast<std::size_t>(last_page - basePage_) + 1;
    if (last_page >= first_page && home_.size() < need)
        home_.resize(need, kNoHome);
    for (Addr p = first_page; p <= last_page; ++p)
        assignHome(p, node, force_local);
    return a;
}

void
SharedAllocator::assignHome(Addr page, NodeId node, bool force_local)
{
    NodeId& h = home_[static_cast<std::size_t>(page - basePage_)];
    if (h != kNoHome)
        return; // first assignment wins (page straddles allocations)
    if (force_local || policy_ == AllocPolicy::Local) {
        h = node;
    } else {
        h = static_cast<NodeId>(rrNext_);
        rrNext_ = (rrNext_ + 1) % nprocs_;
    }
}

Addr
SharedAllocator::galloc(std::size_t bytes, NodeId node, std::size_t align)
{
    return allocHomed(bytes, align, node, false);
}

Addr
SharedAllocator::gallocLocal(std::size_t bytes, NodeId node,
                             std::size_t align)
{
    return allocHomed(bytes, align, node, true);
}

NodeId
SharedAllocator::homeOf(Addr a) const
{
    std::size_t i = static_cast<std::size_t>((a >> 12) - basePage_);
    if (a < base_ || i >= home_.size() || home_[i] == kNoHome)
        throw std::logic_error("homeOf() on unallocated shared address");
    return home_[i];
}

} // namespace wwt::mem
