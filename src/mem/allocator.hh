#pragma once

/**
 * @file
 * Target-memory allocators.
 *
 * BumpAllocator hands out private (node-local) memory. SharedAllocator
 * implements the parmacs "gmalloc" of Section 4.2: shared pages are
 * homed round-robin across processors, or on the allocating node under
 * the local policy used for the Table 17 ablation.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace wwt::mem
{

/** Simple bump-pointer allocator over a fixed address range. */
class BumpAllocator
{
  public:
    BumpAllocator(Addr base, Addr size) : base_(base), limit_(base + size),
                                          next_(base)
    {
    }

    /** Allocate @p bytes aligned to @p align (a power of two). */
    Addr alloc(std::size_t bytes, std::size_t align = 8);

    /** Bytes handed out so far (including alignment padding). */
    Addr used() const { return next_ - base_; }

    void reset() { next_ = base_; }

  private:
    Addr base_;
    Addr limit_;
    Addr next_;
};

/** How gmalloc assigns home nodes to shared pages. */
enum class AllocPolicy : std::uint8_t {
    RoundRobin, ///< successive new pages cycle through the nodes
    Local,      ///< pages are homed on the allocating node
};

/**
 * The shared-segment allocator; every allocated page gets a home node
 * that its directory lives on.
 */
class SharedAllocator
{
  public:
    /**
     * @param base start of the shared region.
     * @param size region size in bytes.
     * @param nprocs number of nodes homes cycle through.
     * @param policy default page-homing policy.
     */
    SharedAllocator(Addr base, Addr size, std::size_t nprocs,
                    AllocPolicy policy);

    /**
     * Allocate shared memory under the default policy.
     * @param node the allocating node (used by the Local policy).
     */
    Addr galloc(std::size_t bytes, NodeId node, std::size_t align = 8);

    /**
     * Allocate shared memory whose pages are always homed on
     * @p node regardless of the default policy. Synchronization
     * structures (MCS queue nodes, reduction slots) use this so
     * processors spin on locally-homed locations.
     */
    Addr gallocLocal(std::size_t bytes, NodeId node,
                     std::size_t align = 8);

    /**
     * Home node of an allocated shared address.
     * @throws std::logic_error if no allocation covers @p a's page.
     */
    NodeId homeOf(Addr a) const;

    AllocPolicy policy() const { return policy_; }

  private:
    Addr allocHomed(std::size_t bytes, std::size_t align, NodeId node,
                    bool force_local);
    void assignHome(Addr page, NodeId node, bool force_local);

    Addr base_;
    Addr limit_;
    Addr next_;
    std::size_t nprocs_;
    AllocPolicy policy_;
    std::size_t rrNext_ = 0;
    /** home_ value of a page no allocation covers. */
    static constexpr NodeId kNoHome = ~NodeId{0};

    /**
     * Home of every page from the region's first, indexed by page
     * number minus basePage_; kNoHome for pages alignment skipped.
     * Grows with the bump pointer, so its size ends at the last
     * allocated page.
     */
    std::vector<NodeId> home_;
    Addr basePage_;
};

} // namespace wwt::mem
