#pragma once

/**
 * @file
 * The full-map Dir_nNB write-invalidate directory protocol
 * (Section 4.2, Agarwal et al. [1]).
 *
 * Every shared page has a home node whose directory tracks the
 * block's state (Uncached / Shared / Exclusive) and a full sharer
 * map. A processor that misses (or write-faults) sends a request to
 * the home, blocks for the entire transaction (sequential
 * consistency), and is resumed by the fill event. Directory service
 * costs follow Table 3, and the directory is a contended resource:
 * requests queue behind its busy time (the paper reports ~200-cycle
 * average queuing delays for Gauss) and behind in-progress
 * transactions on the same block.
 *
 * Values live in the single backing store, so data can never be lost
 * by protocol races; the documented simplifications (silent clean
 * evictions, stale-sharer invalidations that find no line, fetches
 * that race an eviction) affect timing only, never values.
 *
 * Atomic operations (swap, compare-and-swap) acquire exclusivity like
 * writes and perform their data update inside the completion event,
 * which makes them linearizable under the event calendar's total
 * order.
 */

#include <bitset>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "mem/allocator.hh"
#include "mem/backing_store.hh"
#include "mem/address_map.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "sim/flat_map.hh"
#include "sim/engine.hh"

namespace wwt::sm
{

/** Largest machine the full-map directory supports (Section 4). */
constexpr std::size_t kMaxSmProcs = 128;

/**
 * Data operations applied at the grant event (the transaction's
 * linearization point). Plain stores are included: applying the store
 * when exclusivity is granted — rather than when the fiber resumes —
 * keeps values coherent with the protocol's invalidation order, which
 * spin-based synchronization depends on.
 */
enum class AtomicKind : std::uint8_t { None, Store, Swap, Cas };

/** The machine-wide directory protocol engine. */
class DirProtocol
{
  public:
    /**
     * @param engine event calendar (also provides processor access).
     * @param net the interconnect.
     * @param shalloc shared allocator (page -> home mapping).
     * @param store target memory contents (atomics update it).
     * @param caches per-node caches, indexed by NodeId.
     * @param cfg Table 3 costs.
     */
    DirProtocol(sim::Engine& engine, net::Network& net,
                mem::SharedAllocator& shalloc, mem::BackingStore& store,
                std::vector<mem::Cache*> caches,
                const core::MachineConfig& cfg);

    // ------------------------------------------------------------------
    // Fiber side (called on the requesting processor).
    // ------------------------------------------------------------------

    /**
     * Complete a shared-data miss or write fault. The caller has
     * already updated its cache (inserted/upgraded the line), charged
     * the requester-side overhead, and issued any victim writeback;
     * this call sends the request and blocks until the fill, charging
     * the stall to @p kind.
     * @param had_copy true for an upgrade (write fault): no data
     *        needs to travel if the directory still lists the caller.
     */
    void miss(sim::Processor& req, Addr addr, bool write, bool had_copy,
              sim::CostKind kind);

    /**
     * Acquire exclusivity (like a write miss/upgrade) and atomically
     * apply @p kind_a at the completion event.
     * @return the old value (CAS swaps only when old == expect).
     */
    std::uint64_t atomic(sim::Processor& req, Addr addr, bool had_copy,
                         AtomicKind kind_a, std::uint64_t val,
                         std::uint64_t expect, unsigned width,
                         sim::CostKind kind);

    /** Send a dirty victim home (the evictor already paid Table 3). */
    void evictWriteback(sim::Processor& req, Addr victim_block_addr);

    /**
     * Replacement hint (Section 5.3.4): tell the home that @p req no
     * longer caches the block, so the next writer's invalidation
     * round skips it — one message now instead of two later.
     */
    void replacementHint(sim::Processor& req, Addr block_addr);

    /**
     * Bulk-update extension (Section 5.3.4, Falsafi et al. [6]): push
     * the blocks covering [addr, addr+nbytes) from the producer into
     * @p dest's cache with a single bulk message, installing snapshot
     * copies *outside* the coherence domain (the directory does not
     * track them, so the producer's next writes stay exclusive hits).
     * Consumers rely on application-level synchronization, exactly as
     * a Tempest-style user-level protocol would. Non-blocking.
     */
    void pushUpdate(sim::Processor& src, Addr addr, std::size_t nbytes,
                    NodeId dest);

    /** Home node of a shared address. */
    NodeId homeOf(Addr a) const { return shalloc_.homeOf(a); }

    // Diagnostics for tests.
    struct DirSnapshot {
        int state = 0; ///< 0 Uncached, 1 Shared, 2 Exclusive
        std::size_t sharers = 0;
        NodeId owner = 0;
        bool busy = false;
    };
    DirSnapshot snapshot(Addr block_addr) const;

    /** Total directory queuing delay accumulated (cycles). */
    Cycle queueDelay() const { return queueDelay_; }

    /**
     * Coherence consistency sweep (audit subsystem). Valid whenever no
     * transaction is in flight — a busy entry implies a blocked
     * requester, so this holds at end-of-run and report time. Checks:
     *  - no busy entry or queued request outlives its transaction;
     *  - single writer: at most one cache holds any shared block
     *    writable (Exclusive line state or dirty), and that cache is
     *    the directory's recorded owner with the entry in Exclusive
     *    state. Every writable shared line is checked, including one
     *    whose block the directory never recorded (which reads as
     *    Uncached and therefore fails).
     * Non-owner caches may legitimately hold Shared *clean* copies the
     * directory does not list (silent clean evictions leave stale
     * sharer bits; pushUpdate installs snapshots outside the coherence
     * domain — see the file comment).
     * @throws audit::AuditError on the first violated invariant.
     */
    void auditConsistency() const;

  private:
    friend struct DirProtocolPeer; // white-box tests of the table

    enum class DirState : std::uint8_t { Uncached, Shared, Exclusive };

    /** One request travelling through the protocol. */
    struct Req {
        NodeId req = 0;
        bool write = false;
        bool hadCopy = false;
        AtomicKind atomicKind = AtomicKind::None;
        std::uint64_t aVal = 0;
        std::uint64_t aExpect = 0;
        unsigned width = 8;
        Addr addr = 0; ///< full address (atomics need it)
        std::uint64_t traceId = 0; ///< flow id when tracing (0 = off)
    };

    struct Txn {
        Req r;
        int pendingAcks = 0;
        bool needData = true;
    };

    /**
     * FIFO of requests waiting on a busy entry. A std::deque here
     * would allocate its map block on *default construction*, which
     * pending_ pays for every slot on every rehash; this vector-backed
     * queue allocates nothing until a request actually queues (rare:
     * only under same-block contention).
     */
    struct ReqQueue {
        std::vector<std::pair<Req, Cycle>> buf;
        std::size_t head = 0;

        bool empty() const { return head == buf.size(); }
        std::size_t size() const { return buf.size() - head; }
        void
        emplace_back(const Req& r, Cycle at)
        {
            buf.emplace_back(r, at);
        }
        const std::pair<Req, Cycle>& front() const { return buf[head]; }
        void
        pop_front()
        {
            if (++head == buf.size()) {
                buf.clear();
                head = 0;
            }
        }
    };

    /**
     * The per-block directory state, kept deliberately small (24
     * bytes): the table holds one entry per shared block of every
     * touched chunk — far beyond any cache level — so every protocol
     * event pays a memory access per entry touched. Transaction state
     * lives in pending_, which only holds blocks with an in-flight
     * transaction (at most one per processor) and therefore stays
     * cache-resident.
     */
    struct DirEntry {
        std::bitset<kMaxSmProcs> sharers;
        NodeId owner = 0;
        DirState state = DirState::Uncached;
        bool busy = false;
    };

    /** In-flight transaction + waiters of one busy block. */
    struct Pending {
        Txn txn;
        ReqQueue q;
    };

    Addr blockOf(Addr a) const { return a & ~(Addr{kBlockBytes} - 1); }

    /** Blocks per directory chunk: 1 KB of shared address space. */
    static constexpr std::size_t kChunkBlocks = 32;

    /**
     * The directory entry of shared @p block, created (Uncached) on
     * first touch by allocating its chunk.
     */
    DirEntry&
    entry(Addr block)
    {
        std::size_t i = blockIndex(block);
        std::size_t c = i / kChunkBlocks;
        if (c >= dir_.size())
            dir_.resize(c + 1);
        std::unique_ptr<DirEntry[]>& chunk = dir_[c];
        if (!chunk)
            chunk = std::make_unique<DirEntry[]>(kChunkBlocks);
        return chunk[i % kChunkBlocks];
    }

    /** The entry of @p block, or nullptr if its chunk was never touched. */
    const DirEntry* findEntry(Addr block) const;

    static std::size_t
    blockIndex(Addr block)
    {
        assert(mem::AddressMap::isShared(block));
        return static_cast<std::size_t>(
            (block - mem::AddressMap::kSharedBase) / kBlockBytes);
    }

    /**
     * Account a protocol message leaving @p from. Messages to self
     * stay inside the node: no traffic is counted.
     */
    void countMsg(NodeId from, NodeId to, bool data);

    stats::Counts& counts(NodeId n);

    void service(NodeId home, Addr block, Req r, Cycle at);
    void grant(NodeId home, Addr block, DirEntry& e, const Req& r,
               Cycle start, bool with_data);
    void fetchArrive(NodeId owner, Addr block, NodeId home,
                     bool to_shared, Cycle at);
    void onFetchReply(NodeId home, Addr block, Cycle at);
    void invalArrive(NodeId sharer, Addr block, NodeId home, Cycle at);
    void onAck(NodeId home, Addr block, Cycle at);
    void fill(const Req& r, Cycle at);
    void onWriteback(NodeId home, Addr block, NodeId from, Cycle at);
    /**
     * Pop the next queued request, if any, once @p e went idle.
     * Callers pass the directory entry (and, when they already hold
     * it, the pending entry) they just looked up, so the drain does
     * not repeat the table probes of the handler it ends.
     */
    void drainQueue(NodeId home, Addr block, DirEntry& e, Pending* p,
                    Cycle at);

    /**
     * Schedule a protocol handler event. All calendar inserts from
     * this class go through here so the event carries the Protocol
     * host-profiler tag — attribution happens in the event drain
     * loop (see EventQueue::schedule), not via a timer scope in each
     * handler.
     */
    void
    scheduleProto(Cycle at, sim::EventFn fn)
    {
        engine_.schedule(at, std::move(fn), prof::Phase::Protocol);
    }

    sim::Engine& engine_;
    net::Network& net_;
    mem::SharedAllocator& shalloc_;
    mem::BackingStore& store_;
    std::vector<mem::Cache*> caches_;
    const core::MachineConfig& cfg_;

    /**
     * Directory entries, indexed by block offset into the shared
     * segment (blockIndex()). The segment is bump-allocated from
     * AddressMap::kSharedBase, so the index needs no hashing. One
     * chunk holds kChunkBlocks entries and is allocated on the first
     * touch of any of its blocks; pages that hold a single
     * synchronization block (gallocLocal) cost one chunk, not a
     * page's worth of entries. Chunks never move and are never freed,
     * so a DirEntry& stays valid across any later insertion.
     */
    std::vector<std::unique_ptr<DirEntry[]>> dir_;
    /**
     * Transaction state keyed by block, populated while the block is
     * busy (or has queued requests) and erased when the last waiter
     * drains — see drainQueue(). Invariant: e.busy implies a pending_
     * entry for the block.
     */
    sim::FlatMap<Pending> pending_;
    std::vector<Cycle> dirBusy_;             // per home node
    std::vector<std::uint64_t> atomicResult_;
    Cycle queueDelay_ = 0;
};

} // namespace wwt::sm
