/**
 * @file
 * Tests for the Dir_nNB directory protocol: miss/fill round trips with
 * Table 3 latencies, invalidations, write faults, producer-consumer
 * four-message behavior, writebacks, atomics, directory
 * contention, the dense directory table, and the coherence audit.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/check.hh"
#include "core/config.hh"
#include "sm/sm_machine.hh"

using namespace wwt;
using namespace wwt::sm;

namespace wwt::sm
{

/** White-box access to the directory table. */
struct DirProtocolPeer {
    static auto&
    entry(DirProtocol& p, Addr block)
    {
        return p.entry(block);
    }
    static constexpr std::size_t kChunkBlocks = DirProtocol::kChunkBlocks;
};

} // namespace wwt::sm

namespace
{

core::MachineConfig
smallCfg(std::size_t nprocs, mem::AllocPolicy pol = mem::AllocPolicy::Local)
{
    core::MachineConfig cfg;
    cfg.nprocs = nprocs;
    cfg.allocPolicy = pol;
    return cfg;
}

std::uint64_t
catCycles(sim::Engine& e, NodeId n, stats::Category c)
{
    return e.proc(n).stats().total().cycles[static_cast<std::size_t>(c)];
}

} // namespace

TEST(SmProtocol, LocalReadMissLatency)
{
    // Home == requester: 19 (overhead) + 10 (self msg) + 23 (dir
    // service) + 10 (self msg back) = 62 stall cycles, +1 for the
    // load, +36 TLB on first touch.
    SmMachine m(smallCfg(1));
    m.run([&](SmMachine::Node& n) {
        Addr a = n.gmalloc(64);
        Cycle t0 = n.proc.now();
        n.rd<double>(a);
        EXPECT_EQ(n.proc.now() - t0, 36u + 1 + 19 + 10 + 23 + 10);
        Cycle t1 = n.proc.now();
        n.rd<double>(a + 8); // same block: plain hit
        EXPECT_EQ(n.proc.now() - t1, 1u);
    });
    auto c = m.engine().proc(0).stats().total().counts;
    EXPECT_EQ(c.sharedMissLocal, 1u);
    EXPECT_EQ(c.sharedMissRemote, 0u);
}

TEST(SmProtocol, RemoteReadMissLatency)
{
    // Home != requester: 19 + 100 + 23 + 100 = 242 stall, +1 load,
    // +36 first-touch TLB. The address is shared host-side.
    SmMachine m2(smallCfg(2));
    Addr shared_addr = 0;
    Cycle stall = 0;
    m2.run([&](SmMachine::Node& n) {
        if (n.id == 1)
            shared_addr = n.gmallocLocal(64);
        n.barrier();
        if (n.id == 0) {
            Cycle t0 = n.proc.now();
            n.rd<double>(shared_addr);
            stall = n.proc.now() - t0;
        }
    });
    EXPECT_EQ(stall, 36u + 1 + 19 + 100 + 23 + 100);
    EXPECT_EQ(m2.engine().proc(0).stats().total().counts.sharedMissRemote,
              1u);
}

TEST(SmProtocol, ValuesFlowBetweenProcessors)
{
    SmMachine m(smallCfg(4));
    Addr arr = 0;
    std::vector<double> got(4, 0);
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            arr = n.gmalloc(4 * 64, 64);
            for (int i = 0; i < 4; ++i)
                n.wr<double>(arr + i * 64, i * 11.0 + 1);
        }
        n.barrier();
        got[n.id] = n.rd<double>(arr + n.id * 64);
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[i], i * 11.0 + 1);
}

TEST(SmProtocol, WriteInvalidatesReaders)
{
    SmMachine m(smallCfg(3));
    Addr a = 0;
    double second_read = 0;
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            a = n.gmallocLocal(64);
            n.wr<double>(a, 1.0);
        }
        n.barrier();
        n.rd<double>(a); // everyone caches it
        n.barrier();
        if (n.id == 2)
            n.wr<double>(a, 2.0); // invalidates 0 and 1
        n.barrier();
        if (n.id == 1)
            second_read = n.rd<double>(a);
    });
    EXPECT_EQ(second_read, 2.0);
    // Node 0 is the home: it issued invalidations for node 2's write
    // fault/miss (to nodes 0 and 1).
    auto c0 = m.engine().proc(0).stats().total().counts;
    EXPECT_GE(c0.invalsSent, 2u);
    // Node 1's re-read was a remote miss (its copy was invalidated).
    auto c1 = m.engine().proc(1).stats().total().counts;
    EXPECT_GE(c1.sharedMissRemote, 2u);
}

TEST(SmProtocol, WriteFaultOnReadOnlyCopy)
{
    SmMachine m(smallCfg(2));
    Addr a = 0;
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0)
            a = n.gmallocLocal(64);
        n.barrier();
        if (n.id == 1) {
            n.rd<double>(a);    // obtain a read-only copy
            n.wr<double>(a, 5); // upgrade: write fault
        }
    });
    auto c1 = m.engine().proc(1).stats().total().counts;
    EXPECT_EQ(c1.writeFaults, 1u);
    EXPECT_GT(catCycles(m.engine(), 1, stats::Category::WriteFault), 0u);
}

TEST(SmProtocol, ProducerConsumerFourMessages)
{
    // The EM3D pathology (Section 5.3.3): a producer updating a value
    // a consumer caches costs an invalidation round plus a re-fetch.
    SmMachine m(smallCfg(2));
    Addr a = 0;
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            a = n.gmallocLocal(64);
            n.wr<double>(a, 0.0);
        }
        n.barrier();
        for (int it = 1; it <= 10; ++it) {
            if (n.id == 0)
                n.wr<double>(a, it); // invalidate consumer, refetch
            n.barrier();
            if (n.id == 1)
                ASSERT_EQ(n.rd<double>(a), it);
            n.barrier();
        }
    });
    auto c1 = m.engine().proc(1).stats().total().counts;
    // Every iteration after the first misses again.
    EXPECT_GE(c1.sharedMissRemote, 9u);
    auto c0 = m.engine().proc(0).stats().total().counts;
    EXPECT_GE(c0.invalsSent + c0.writeFaults, 9u);
}

TEST(SmProtocol, DirtyEvictionWritesBack)
{
    core::MachineConfig cfg = smallCfg(1);
    cfg.cache.bytes = 1024; // tiny cache: 32 blocks
    cfg.cache.assoc = 2;
    SmMachine m(cfg);
    m.run([&](SmMachine::Node& n) {
        Addr a = n.gmalloc(64 * 1024, 32);
        for (int i = 0; i < 256; ++i)
            n.wr<double>(a + i * 32, i); // write-allocate, all dirty
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(n.rd<double>(a + i * 32), i);
    });
    auto c = m.engine().proc(0).stats().total().counts;
    EXPECT_GT(c.writeBacks, 100u);
}

TEST(SmProtocol, AtomicSwapIsAtomicUnderContention)
{
    SmMachine m(smallCfg(8));
    Addr a = 0;
    std::vector<std::uint64_t> seen;
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            a = n.gmallocLocal(64);
            n.mem.poke<std::uint64_t>(a, 0);
        }
        n.barrier();
        // Everyone swaps in (id+1); the sequence of returned values
        // must form a permutation chain: each value appears exactly
        // once as an old value.
        std::uint64_t old = n.mem.swap(a, n.id + 1);
        seen.push_back(old);
    });
    std::uint64_t final = m.node(0).mem.peek<std::uint64_t>(a);
    seen.push_back(final);
    std::sort(seen.begin(), seen.end());
    // {0, and each of 1..8 exactly once}.
    ASSERT_EQ(seen.size(), 9u);
    for (std::uint64_t i = 0; i < 9; ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(SmProtocol, CompareAndSwapOnlyOneWinner)
{
    SmMachine m(smallCfg(8));
    Addr a = 0;
    std::atomic<int> winners{0};
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            a = n.gmallocLocal(64);
            n.mem.poke<std::uint64_t>(a, 7);
        }
        n.barrier();
        if (n.mem.cas(a, 7, 100 + n.id) == 7)
            winners++;
    });
    EXPECT_EQ(winners.load(), 1);
}

TEST(SmProtocol, DirectoryContentionQueuesRequests)
{
    // 16 processors reading 16 distinct blocks all homed on node 0:
    // the directory serializes service, so later fills wait.
    SmMachine m(smallCfg(16));
    Addr a = 0;
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0)
            a = n.gmallocLocal(16 * 32, 32);
        n.barrier();
        n.rd<double>(a + n.id * 32);
    });
    EXPECT_GT(m.protocol().queueDelay(), 0u);
}

TEST(SmProtocol, RoundRobinVsLocalHomes)
{
    // Under round-robin homing, a node touching its "own" array still
    // takes mostly remote misses; under local homing they are local.
    auto misses = [](mem::AllocPolicy pol) {
        SmMachine m(smallCfg(4, pol));
        m.run([&](SmMachine::Node& n) {
            Addr a = pol == mem::AllocPolicy::Local
                         ? n.gmalloc(32 * kPageBytes / 4)
                         : 0;
            if (pol == mem::AllocPolicy::RoundRobin) {
                a = n.id == 0 ? n.gmalloc(32 * kPageBytes) : 0;
            }
            n.barrier();
            return;
        });
        return m;
    };
    // Direct comparison done in the EM3D ablation; here we check the
    // allocator wiring via homeOf.
    SmMachine rr(smallCfg(4, mem::AllocPolicy::RoundRobin));
    Addr base = 0;
    std::array<int, 4> remote{};
    rr.run([&](SmMachine::Node& n) {
        if (n.id == 0)
            base = n.gmalloc(8 * kPageBytes, kPageBytes);
        n.barrier();
        for (int p = 0; p < 8; ++p) {
            if (rr.shalloc().homeOf(base + p * kPageBytes) != n.id)
                remote[n.id]++;
        }
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(remote[i], 6); // 2 of 8 pages home on each node
    (void)misses;
}

TEST(SmProtocol, SequentialConsistencySmoke)
{
    // Dekker-style: both flags end up visible; with SC (blocking
    // misses) at least one processor must see the other's flag.
    SmMachine m(smallCfg(2));
    Addr flags = 0;
    std::array<std::uint64_t, 2> saw{9, 9};
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0) {
            flags = n.gmalloc(2 * 64, 64);
            n.mem.poke<std::uint64_t>(flags, 0);
            n.mem.poke<std::uint64_t>(flags + 64, 0);
        }
        n.barrier();
        n.wr<std::uint64_t>(flags + n.id * 64, 1);
        saw[n.id] = n.rd<std::uint64_t>(flags + (1 - n.id) * 64);
    });
    EXPECT_TRUE(saw[0] == 1 || saw[1] == 1);
}

TEST(SmProtocol, DirEntriesFarApartReadBack)
{
    // Blocks many directory chunks apart, plus a block on a page of
    // its own (the layout gallocLocal gives MCS lock words), each get
    // their own entry.
    SmMachine m(smallCfg(2, mem::AllocPolicy::RoundRobin));
    constexpr std::size_t kChunkBytes =
        DirProtocolPeer::kChunkBlocks * kBlockBytes;
    Addr big = m.shalloc().galloc((1 << 20) + 8, 0, kBlockBytes);
    Addr last = big + (1 << 20) - kBlockBytes;
    // The lock word's node differs from the home of the big region's
    // last page, so the word starts a page of its own.
    NodeId locker = 1 - m.shalloc().homeOf(big + (1 << 20));
    Addr lock = m.shalloc().gallocLocal(16, locker, kBlockBytes);
    ASSERT_EQ(lock % kPageBytes, 0u);
    ASSERT_EQ(m.shalloc().homeOf(lock), locker);
    ASSERT_GE((last - big) / kChunkBytes, 1000u);

    m.run([&](SmMachine::Node& n) {
        if (n.id == 0)
            n.wr<std::uint64_t>(big, 11);
        if (n.id == locker)
            n.wr<std::uint64_t>(lock, 33);
        n.rd<std::uint64_t>(last);
    });

    auto first = m.protocol().snapshot(big);
    EXPECT_EQ(first.state, 2); // Exclusive
    EXPECT_EQ(first.owner, 0u);
    EXPECT_EQ(first.sharers, 1u);
    EXPECT_FALSE(first.busy);
    auto far = m.protocol().snapshot(last);
    EXPECT_EQ(far.state, 1); // Shared by both readers
    EXPECT_EQ(far.sharers, 2u);
    EXPECT_FALSE(far.busy);
    auto lk = m.protocol().snapshot(lock);
    EXPECT_EQ(lk.state, 2);
    EXPECT_EQ(lk.owner, locker);
    EXPECT_EQ(lk.sharers, 1u);
    // Neighbours in a touched chunk were never touched themselves.
    EXPECT_EQ(m.protocol().snapshot(big + kBlockBytes).state, 0);
    EXPECT_EQ(m.protocol().snapshot(lock + kBlockBytes).state, 0);
}

TEST(SmProtocol, DirEntryReferenceSurvivesFarInsertions)
{
    SmMachine m(smallCfg(2));
    DirProtocol& p = m.protocol();
    Addr base = mem::AddressMap::kSharedBase;
    auto& e = DirProtocolPeer::entry(p, base + 5 * kBlockBytes);
    e.owner = 1;
    e.sharers.set(1);
    // Touch one block in each of thousands of later chunks, forcing
    // the chunk index to reallocate many times.
    constexpr Addr kChunkBytes = DirProtocolPeer::kChunkBlocks * kBlockBytes;
    for (Addr c = 1; c <= 5000; ++c)
        DirProtocolPeer::entry(p, base + c * 7 * kChunkBytes).owner = 0;
    EXPECT_EQ(&DirProtocolPeer::entry(p, base + 5 * kBlockBytes), &e);
    EXPECT_EQ(e.owner, 1u);
    auto snap = p.snapshot(base + 5 * kBlockBytes);
    EXPECT_EQ(snap.owner, 1u);
    EXPECT_EQ(snap.sharers, 1u);
}

TEST(SmProtocol, SnapshotOfUntouchedBlockIsUncached)
{
    SmMachine m(smallCfg(2));
    Addr a = m.shalloc().galloc(64 * kPageBytes, 0, kPageBytes);
    m.run([&](SmMachine::Node& n) {
        if (n.id == 1)
            n.wr<std::uint64_t>(a, 1);
    });
    // A block in the touched chunk and one in a chunk never touched.
    for (Addr b : {a + kBlockBytes, a + 40 * kPageBytes}) {
        auto s = m.protocol().snapshot(b);
        EXPECT_EQ(s.state, 0) << std::hex << b;
        EXPECT_EQ(s.sharers, 0u);
        EXPECT_FALSE(s.busy);
    }
}

TEST(SmProtocol, AuditCatchesWritableLineOfUnrecordedBlock)
{
    // A writable copy of a block the directory never recorded breaks
    // single-writer just as much as one of a recorded block.
    SmMachine m(smallCfg(2));
    Addr a = m.shalloc().galloc(8 * kPageBytes, 0, kPageBytes);
    m.run([&](SmMachine::Node& n) {
        if (n.id == 0)
            n.wr<std::uint64_t>(a, 1);
    });
    EXPECT_NO_THROW(m.audit());
    Addr stray = a + 6 * kPageBytes + 3 * kBlockBytes;
    m.node(1).mem.cache().insert(stray / kBlockBytes,
                                 mem::LineState::Exclusive, true);
    std::ostringstream block;
    block << "block 0x" << std::hex << stray;
    try {
        m.protocol().auditConsistency();
        FAIL() << "audit accepted a writable line of an unrecorded block";
    } catch (const audit::AuditError& err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find(block.str()), std::string::npos) << msg;
        EXPECT_NE(msg.find("cache 1"), std::string::npos) << msg;
    }
}
