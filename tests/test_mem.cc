/**
 * @file
 * Unit tests for the memory substrate: backing store, cache, TLB,
 * address map, and the private/shared allocators.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/address_map.hh"
#include "mem/allocator.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

using namespace wwt;
using namespace wwt::mem;

TEST(BackingStore, ReadsBackWrites)
{
    BackingStore s;
    s.write<double>(0x1000, 3.25);
    s.write<std::uint64_t>(0x2000, 42);
    EXPECT_EQ(s.read<double>(0x1000), 3.25);
    EXPECT_EQ(s.read<std::uint64_t>(0x2000), 42u);
    EXPECT_EQ(s.read<std::uint32_t>(0x3000), 0u); // zero-initialized
}

TEST(BackingStore, BulkOpsCrossChunks)
{
    BackingStore s;
    std::vector<char> src(200000);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<char>(i * 31);
    Addr base = BackingStore::kChunkBytes - 1234; // straddles chunks
    s.writeBytes(base, src.data(), src.size());
    std::vector<char> dst(src.size());
    s.readBytes(dst.data(), base, dst.size());
    EXPECT_EQ(src, dst);

    s.copy(base + 500000, base, src.size());
    s.readBytes(dst.data(), base + 500000, dst.size());
    EXPECT_EQ(src, dst);
}

TEST(Cache, HitsAfterInsert)
{
    Cache c(1024, 2, 32, 1); // 16 sets
    Addr b = c.blockOf(0x12345678);
    EXPECT_EQ(c.find(b), nullptr);
    Victim v = c.insert(b, LineState::Exclusive, false);
    EXPECT_FALSE(v.valid);
    ASSERT_NE(c.find(b), nullptr);
    EXPECT_EQ(c.find(b)->state, LineState::Exclusive);
}

TEST(Cache, EvictsWithinSet)
{
    Cache c(1024, 2, 32, 1); // 16 sets, 2 ways
    // Three blocks mapping to set 0: block numbers 0, 16, 32.
    c.insert(0, LineState::Exclusive, true);
    c.insert(16, LineState::Shared, false);
    Victim v = c.insert(32, LineState::Exclusive, false);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.block == 0 || v.block == 16);
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(Cache, RemoveReportsState)
{
    Cache c(1024, 2, 32, 1);
    c.insert(5, LineState::Exclusive, true);
    Victim v = c.remove(5);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.state, LineState::Exclusive);
    EXPECT_FALSE(c.remove(5).valid);
}

TEST(Cache, ReplacementIsDeterministicPerSeed)
{
    auto victims = [](std::uint64_t seed) {
        Cache c(1024, 4, 32, seed);
        std::vector<Addr> out;
        for (Addr b = 0; b < 400; b += 8) { // all map across sets
            Victim v = c.insert(b, LineState::Exclusive, false);
            if (v.valid)
                out.push_back(v.block);
        }
        return out;
    };
    EXPECT_EQ(victims(7), victims(7));
    EXPECT_NE(victims(7), victims(8));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(1000, 3, 32, 1), std::invalid_argument);
    EXPECT_THROW(Cache(1024, 2, 33, 1), std::invalid_argument);
}

TEST(Tlb, FifoReplacement)
{
    Tlb t(4);
    // Fill four pages.
    for (Addr p = 0; p < 4; ++p)
        EXPECT_FALSE(t.access(p << 12));
    for (Addr p = 0; p < 4; ++p)
        EXPECT_TRUE(t.access(p << 12));
    // A fifth page evicts the oldest (page 0), not the most recent.
    EXPECT_FALSE(t.access(4ull << 12));
    EXPECT_FALSE(t.access(0ull << 12));
    EXPECT_TRUE(t.access(4ull << 12));
}

TEST(Tlb, SamePageFastPath)
{
    Tlb t(4);
    EXPECT_FALSE(t.access(0x5000));
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(t.access(0x5000 + i * 8));
}

TEST(AddressMap, PartitionsSpace)
{
    Addr p3 = AddressMap::privBase(3);
    EXPECT_TRUE(AddressMap::isPrivate(p3));
    EXPECT_FALSE(AddressMap::isShared(p3));
    EXPECT_EQ(AddressMap::privOwner(p3 + 100), 3u);
    EXPECT_TRUE(AddressMap::isShared(AddressMap::kSharedBase + 64));
}

TEST(BumpAllocator, AlignsAndAdvances)
{
    BumpAllocator a(0x1000, 0x1000);
    Addr x = a.alloc(10, 8);
    Addr y = a.alloc(10, 32);
    EXPECT_EQ(x % 8, 0u);
    EXPECT_EQ(y % 32, 0u);
    EXPECT_GE(y, x + 10);
    EXPECT_THROW(a.alloc(0x10000), std::runtime_error);
}

TEST(SharedAllocator, RoundRobinHomesPages)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::RoundRobin);
    // Allocate 8 full pages; homes must cycle 0,1,2,3,0,1,2,3.
    std::vector<NodeId> homes;
    for (int i = 0; i < 8; ++i) {
        Addr p = a.galloc(4096, /*node=*/2, 4096);
        homes.push_back(a.homeOf(p));
    }
    EXPECT_EQ(homes, (std::vector<NodeId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(SharedAllocator, LocalPolicyHomesOnAllocator)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::Local);
    Addr x = a.galloc(100, 1);
    Addr y = a.galloc(100, 3);
    EXPECT_EQ(a.homeOf(x), 1u);
    EXPECT_EQ(a.homeOf(y), 3u);
    // Different nodes never share a page under local homing.
    EXPECT_NE(x >> 12, y >> 12);
}

TEST(SharedAllocator, GallocLocalOverridesRoundRobin)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::RoundRobin);
    Addr x = a.gallocLocal(64, 3);
    EXPECT_EQ(a.homeOf(x), 3u);
    // And a following round-robin page continues the cycle.
    Addr y = a.galloc(4096, 0, 4096);
    EXPECT_EQ(a.homeOf(y), 0u);
}

TEST(SharedAllocator, HomeOfUnallocatedThrows)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::RoundRobin);
    EXPECT_THROW(a.homeOf(AddressMap::kSharedBase + (1 << 20)),
                 std::logic_error);
}

TEST(SharedAllocator, HomeOfOutsideAllocationsThrows)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::RoundRobin);
    Addr x = a.galloc(100, 0);
    EXPECT_EQ(a.homeOf(x), 0u);
    // Below the region's base, including the byte just below it.
    EXPECT_THROW(a.homeOf(AddressMap::kSharedBase - 1), std::logic_error);
    EXPECT_THROW(a.homeOf(AddressMap::kSharedBase - (1 << 20)),
                 std::logic_error);
    // A page-aligned allocation skips pages 1..3; they have no home.
    Addr y = a.galloc(64, 0, 4 * 4096);
    EXPECT_EQ(y, AddressMap::kSharedBase + 4 * 4096);
    EXPECT_EQ(a.homeOf(y), 1u);
    for (Addr page = 1; page < 4; ++page) {
        EXPECT_THROW(a.homeOf(AddressMap::kSharedBase + page * 4096),
                     std::logic_error)
            << "page " << page;
    }
    // Past the last allocated page.
    EXPECT_THROW(a.homeOf(y + 4096), std::logic_error);
    EXPECT_THROW(a.homeOf(AddressMap::kSharedBase + (1 << 23)),
                 std::logic_error);
}

TEST(SharedAllocator, ForcedLocalSkipsPageHomedElsewhere)
{
    SharedAllocator a(AddressMap::kSharedBase, 1 << 24, 4,
                      AllocPolicy::Local);
    Addr x = a.galloc(100, 2);
    EXPECT_EQ(a.homeOf(x), 2u);
    // Node 1's block would fit on node 2's page; it starts on the
    // next page instead, homed on node 1.
    Addr y = a.gallocLocal(16, 1, 32);
    EXPECT_EQ(y, AddressMap::kSharedBase + 4096);
    EXPECT_EQ(a.homeOf(y), 1u);
    EXPECT_EQ(a.homeOf(x), 2u);
    // The same node continues on its own page.
    Addr z = a.gallocLocal(16, 1, 32);
    EXPECT_EQ(z >> 12, y >> 12);
    EXPECT_EQ(a.homeOf(z), 1u);
}
