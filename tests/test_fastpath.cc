/**
 * @file
 * Tests for the host-side hot-path structures (docs/performance.md):
 * the fast-hit filter's correctness contract (a fast hit must be
 * exactly the slow path's TLB-hit/cache-hit outcome, with every form
 * of staleness observed), the event calendar's pooled-slot arena (no
 * stale-callback aliasing across quanta), the open-addressed flat
 * tables against a reference map, and the stall-generation counter
 * that lets a pre-charge filter memo be trusted post-charge.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "apps/em3d.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "mem/cache.hh"
#include "mem/fast_hit.hh"
#include "mp/mp_machine.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/processor.hh"
#include "sm/sm_machine.hh"

using namespace wwt;

namespace
{

constexpr std::uint64_t kEpoch = 7;

} // namespace

TEST(FastHitFilter, RemembersAndHits)
{
    mem::Cache cache(256 * 1024, 4, 32, 1);
    mem::FastHitFilter f;
    mem::Line* line = cache.insert(42, mem::LineState::Shared, false,
                                   nullptr);
    EXPECT_EQ(f.lookup(42, kEpoch), nullptr); // nothing memoized yet
    f.remember(42, line, kEpoch);
    EXPECT_EQ(f.lookup(42, kEpoch), line);
}

TEST(FastHitFilter, EpochMismatchMisses)
{
    mem::Cache cache(256 * 1024, 4, 32, 1);
    mem::FastHitFilter f;
    mem::Line* line = cache.insert(42, mem::LineState::Shared, false,
                                   nullptr);
    f.remember(42, line, kEpoch);
    // A TLB refill after the entry was recorded: the entry's page may
    // have been the FIFO victim, so the filter must not answer.
    EXPECT_EQ(f.lookup(42, kEpoch + 1), nullptr);
    EXPECT_EQ(f.lookup(42, kEpoch), line); // old epoch still fine
}

TEST(FastHitFilter, InvalidationOnUpgradeIsObserved)
{
    mem::Cache cache(256 * 1024, 4, 32, 1);
    mem::FastHitFilter f;
    cache.setFilter(&f);
    mem::Line* line = cache.insert(42, mem::LineState::Shared, false,
                                   nullptr);
    f.remember(42, line, kEpoch);
    ASSERT_EQ(f.lookup(42, kEpoch), line);
    // A remote write upgrade invalidates the local read-only copy
    // (the protocol's invalArrive path is a cache remove), and the
    // cache reports the death to its filter.
    cache.remove(42);
    EXPECT_EQ(f.lookup(42, kEpoch), nullptr);
}

TEST(FastHitFilter, EvictionReuseIsObserved)
{
    mem::Cache cache(256 * 1024, 4, 32, 1);
    mem::FastHitFilter f;
    cache.setFilter(&f);
    mem::Line* line = cache.insert(42, mem::LineState::Exclusive, true,
                                   nullptr);
    f.remember(42, line, kEpoch);
    // The victim's slot is reused for another block (any eviction
    // path). The memo for the old block must be gone.
    cache.remove(42);
    Addr other = 42 + cache.numSets(); // same set, different block
    mem::Line* reused = cache.insert(other, mem::LineState::Exclusive,
                                     false, nullptr);
    ASSERT_EQ(line, reused); // the invalid way is reused first
    EXPECT_EQ(f.lookup(42, kEpoch), nullptr);
    f.remember(other, reused, kEpoch);
    EXPECT_EQ(f.lookup(other, kEpoch), reused);
}

// The filter is exact: it forgets a block when the cache reports the
// line's death (eviction, removal, reset), and it never reads the
// Line to find out. Corrupting a live memoized line behind the
// cache's back therefore does not change the answer, while every
// cache-side death does.
TEST(FastHitFilter, DeadLinesAreForgottenWithoutRevalidation)
{
    mem::Cache cache(4 * 32, 4, 32, 1); // one set of four ways
    ASSERT_EQ(cache.numSets(), 1u);
    mem::FastHitFilter f;
    cache.setFilter(&f);
    std::array<mem::Line*, 4> lines{};
    for (Addr b = 0; b < 4; ++b) {
        lines[b] = cache.insert(b, mem::LineState::Exclusive, false,
                                nullptr);
        f.remember(b, lines[b], kEpoch);
    }

    // No revalidation: a memo answers from the slot alone.
    lines[3]->state = mem::LineState::Invalid;
    EXPECT_EQ(f.lookup(3, kEpoch), lines[3]);
    lines[3]->state = mem::LineState::Exclusive;

    // Eviction: exactly the victim is forgotten.
    mem::Victim v;
    mem::Line* fresh = cache.insert(9, mem::LineState::Shared, false, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(f.lookup(v.block, kEpoch), nullptr);
    for (Addr b = 0; b < 4; ++b) {
        if (b != v.block)
            EXPECT_EQ(f.lookup(b, kEpoch), lines[b]) << b;
    }
    f.remember(9, fresh, kEpoch);

    // Removal: the removed block is forgotten, the rest stay.
    Addr gone = v.block == 0 ? 1 : 0;
    cache.remove(gone);
    EXPECT_EQ(f.lookup(gone, kEpoch), nullptr);
    EXPECT_EQ(f.lookup(9, kEpoch), fresh);

    // Removing an absent block forgets nothing.
    cache.remove(1234);
    EXPECT_EQ(f.lookup(9, kEpoch), fresh);

    // Reset: everything goes.
    cache.reset();
    EXPECT_EQ(f.lookup(9, kEpoch), nullptr);
    for (Addr b = 0; b < 4; ++b)
        EXPECT_EQ(f.lookup(b, kEpoch), nullptr) << b;
}

TEST(FastHitFilter, DisabledFilterNeverAnswers)
{
    mem::Cache cache(256 * 1024, 4, 32, 1);
    mem::FastHitFilter f(false);
    mem::Line* line = cache.insert(42, mem::LineState::Shared, false,
                                   nullptr);
    f.remember(42, line, kEpoch);
    EXPECT_FALSE(f.enabled());
    EXPECT_EQ(f.lookup(42, kEpoch), nullptr);
}

// The calendar recycles callback pool slots as soon as an event is
// moved out for execution. Slot reuse across quanta must never alias
// a live event: every scheduled payload fires exactly once, in
// (time, insertion) order, including events scheduled from running
// events into freed slots.
TEST(EventQueueArena, NoStaleAliasingAcrossQuanta)
{
    sim::EventQueue q;
    std::vector<int> fired;
    // Quantum 1: three events, one of which reschedules into the
    // next window (its slot is free by then and may be reused).
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] {
        fired.push_back(2);
        q.schedule(110, [&] { fired.push_back(21); });
    });
    q.schedule(20, [&] { fired.push_back(3); }); // same-cycle tie
    EXPECT_EQ(q.runUntil(100), 3u);
    // Quantum 2: freed slots get reused by fresh events; the old
    // callbacks must be gone, the new payloads intact.
    q.schedule(120, [&] { fired.push_back(4); });
    q.schedule(105, [&] { fired.push_back(5); });
    EXPECT_EQ(q.runUntil(200), 3u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 5, 21, 4}));
    EXPECT_EQ(q.executed(), 6u);
}

// Fibers schedule events for the *same* target cycle from different
// processors; the calendar must run them in (processor id, program
// order), the order the quantum loop inserts them in.
TEST(EventQueueArena, SameCycleEventsFireInProcessorOrder)
{
    sim::Engine e(4);
    std::vector<int> fired;
    for (NodeId i = 0; i < 4; ++i) {
        e.setBody(i, [&e, &fired, i] {
            sim::Processor& p = e.proc(i);
            // Stagger the processors' clocks, all targeting cycle 150
            // (inside the next quantum, while fibers still run).
            p.charge(10 * (4 - i) + 1);
            e.schedule(150, [&fired, i] { fired.push_back(i); });
            e.schedule(150, [&fired, i] { fired.push_back(i + 100); });
            p.charge(300);
        });
    }
    e.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103}));
}

// The calendar hands freed callback-pool slots to the next
// schedule(); across many quanta the same slot hosts many different
// events scheduled from fibers. Recycling must not alias payloads.
TEST(EventQueueArena, RecycledEventSlotsFireOnceAcrossQuanta)
{
    sim::Engine e(4);
    std::vector<int> fired;
    for (NodeId i = 0; i < 4; ++i) {
        e.setBody(i, [&e, &fired, i] {
            sim::Processor& p = e.proc(i);
            // Five quanta of schedule/fire churn: each quantum drains
            // the previous one's events, so every schedule() below
            // reuses a just-freed pool slot.
            for (int q = 0; q < 5; ++q) {
                int tag = 1000 * q + 10 * static_cast<int>(i);
                e.schedule(p.now() + 150,
                           [&fired, tag] { fired.push_back(tag); });
                e.schedule(p.now() + 150,
                           [&fired, tag] { fired.push_back(tag + 1); });
                p.charge(100 + static_cast<Cycle>(i));
            }
        });
    }
    e.run();
    EXPECT_EQ(fired.size(), 40u);
    // Exactly once each, payloads intact.
    std::set<int> unique(fired.begin(), fired.end());
    EXPECT_EQ(unique.size(), fired.size());
}

TEST(EventQueueArena, HeavyChurnKeepsTotalOrder)
{
    sim::EventQueue q;
    // Many windows of schedule/drain churn so pool slots recycle
    // hundreds of times; (time, seq) order must hold throughout.
    std::vector<std::pair<Cycle, int>> fired;
    int id = 0;
    std::mt19937 rng(1234);
    Cycle base = 0;
    for (int window = 0; window < 200; ++window) {
        std::uniform_int_distribution<Cycle> d(0, 299);
        for (int i = 0; i < 10; ++i) {
            Cycle t = base + d(rng);
            int my = id++;
            q.schedule(t, [&fired, t, my] {
                fired.emplace_back(t, my);
            });
        }
        base += 100;
        q.runUntil(base);
    }
    q.runUntil(base + 1000);
    EXPECT_EQ(fired.size(), 2000u);
    // Exactly once each.
    std::vector<bool> seen(2000, false);
    for (auto& [t, my] : fired) {
        EXPECT_FALSE(seen[static_cast<std::size_t>(my)]);
        seen[static_cast<std::size_t>(my)] = true;
    }
    // Time-monotone, and insertion-ordered within a timestamp.
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_TRUE(fired[i - 1].first < fired[i].first ||
                    (fired[i - 1].first == fired[i].first &&
                     fired[i - 1].second < fired[i].second))
            << "order violated at " << i;
    }
}

TEST(FlatMapTables, FlatMapMatchesReferenceUnderChurn)
{
    // Default capacity, and growth from one slot (the size the
    // per-node channel-endpoint tables start at).
    for (std::size_t slots : {std::size_t{16}, std::size_t{1}}) {
        SCOPED_TRACE(slots);
        sim::FlatMap<std::uint64_t> m(slots);
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        std::mt19937_64 rng(99);
        for (int op = 0; op < 20000; ++op) {
            std::uint64_t key = rng() % 512; // force collisions + reuse
            switch (rng() % 3) {
              case 0:
                m[key] = op;
                ref[key] = static_cast<std::uint64_t>(op);
                break;
              case 1:
                EXPECT_EQ(m.erase(key), ref.erase(key) == 1)
                    << "key " << key;
                break;
              default: {
                const std::uint64_t* v = m.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
                if (v != nullptr)
                    EXPECT_EQ(*v, it->second);
              }
            }
        }
        EXPECT_EQ(m.size(), ref.size());
        std::size_t visited = 0;
        m.forEach([&](std::uint64_t k, const std::uint64_t& v) {
            ++visited;
            auto it = ref.find(k);
            ASSERT_NE(it, ref.end());
            EXPECT_EQ(v, it->second);
        });
        EXPECT_EQ(visited, ref.size());
    }
}

// The stall generation is what lets the memory models use a filter
// memo fetched *before* a cycle charge *after* it: an unchanged
// generation proves no foreign code (another fiber, an event handler,
// an interrupt) ran during the charge.
TEST(StallGeneration, BumpsOnQuantumYieldOnly)
{
    sim::Engine e(1);
    std::uint64_t small = 0, cross = 0;
    e.setBody(0, [&] {
        sim::Processor& p = e.proc(0);
        std::uint64_t g0 = p.stallGen();
        p.charge(10); // stays inside the quantum: no yield
        small = p.stallGen() - g0;
        std::uint64_t g1 = p.stallGen();
        p.charge(300); // crosses quantum boundaries: yields
        cross = p.stallGen() - g1;
    });
    e.run();
    EXPECT_EQ(small, 0u);
    EXPECT_GT(cross, 0u);
}

// In-process half of the CI fast-hit-identity gate: the filter must
// not change one simulated cycle, on either machine.
TEST(FastHitIdentity, Em3dBitIdenticalWithFilterOff)
{
    apps::Em3dParams params;
    params.nodesPerProc = 24;
    params.degree = 4;
    params.iters = 3;

    auto smRun = [&](bool fastHit) {
        core::MachineConfig cfg;
        cfg.nprocs = 4;
        cfg.fastHit = fastHit;
        sm::SmMachine m(cfg);
        apps::Em3dResult r = apps::runEm3dSm(m, params);
        core::MachineReport rep = core::collectReport(m.engine());
        return std::tuple(m.engine().elapsed(), r.checksum, r.eVals,
                          rep.phaseCycles);
    };
    EXPECT_EQ(smRun(true), smRun(false));

    auto mpRun = [&](bool fastHit) {
        core::MachineConfig cfg;
        cfg.nprocs = 4;
        cfg.fastHit = fastHit;
        mp::MpMachine m(cfg);
        apps::Em3dResult r = apps::runEm3dMp(m, params);
        core::MachineReport rep = core::collectReport(m.engine());
        return std::tuple(m.engine().elapsed(), r.checksum, r.eVals,
                          rep.phaseCycles);
    };
    EXPECT_EQ(mpRun(true), mpRun(false));
}
