/**
 * @file
 * Unit tests for the discrete-event kernel: fibers (the switch's
 * register, control-word and alignment contract), the event calendar,
 * quantum scheduling, blocking/resume, exceptions escaping a target
 * program, attribution scopes, phases, and determinism.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "audit/check.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/processor.hh"

using namespace wwt;
using namespace wwt::sim;

TEST(Fiber, RunsAndYields)
{
    int step = 0;
    Fiber* self = nullptr;
    Fiber f(64 * 1024, [&] {
        step = 1;
        self->yieldToCaller();
        step = 2;
    });
    self = &f;
    f.switchTo();
    EXPECT_EQ(step, 1);
    EXPECT_FALSE(f.finished());
    f.switchTo();
    EXPECT_EQ(step, 2);
    EXPECT_TRUE(f.finished());
}

#if defined(__x86_64__)
// MXCSR and the x87 control word are callee-saved state: a rounding
// mode one fiber sets must not leak into the engine or into another
// fiber, and must be back in place when that fiber resumes.
TEST(Fiber, FloatingPointControlIsPerFiber)
{
    const unsigned engineCsr = _mm_getcsr();
    const int engineRound = std::fegetround();
    ASSERT_EQ(engineRound, FE_TONEAREST);
    unsigned seenByB = 0;
    int seenByBRound = -1;
    bool resumedIntact = false;
    Fiber* a = nullptr;
    Fiber fa(64 * 1024, [&] {
        std::fesetround(FE_TOWARDZERO);
        const unsigned mine = _mm_getcsr();
        a->yieldToCaller();
        resumedIntact = _mm_getcsr() == mine &&
                        std::fegetround() == FE_TOWARDZERO;
        std::fesetround(FE_TONEAREST);
    });
    a = &fa;
    Fiber fb(64 * 1024, [&] {
        seenByB = _mm_getcsr();
        seenByBRound = std::fegetround();
    });
    fa.switchTo();
    EXPECT_EQ(_mm_getcsr(), engineCsr);
    EXPECT_EQ(std::fegetround(), engineRound);
    fb.switchTo();
    EXPECT_EQ(seenByB, engineCsr);
    EXPECT_EQ(seenByBRound, FE_TONEAREST);
    fa.switchTo();
    EXPECT_TRUE(fa.finished());
    EXPECT_TRUE(resumedIntact);
    EXPECT_EQ(_mm_getcsr(), engineCsr);
    EXPECT_EQ(std::fegetround(), engineRound);
}
#endif

// The compiler assumes 16-byte stack alignment at every call and does
// not realign for an alignas(16) local, so a misprimed stack shows up
// as a misaligned address here (and as a crash in any movaps spill).
TEST(Fiber, FirstFrameIsSixteenByteAligned)
{
    std::uintptr_t addr = 1;
    Fiber f(64 * 1024, [&] {
        alignas(16) volatile unsigned char probe[16] = {};
        probe[0] = 1;
        addr = reinterpret_cast<std::uintptr_t>(&probe[0]);
    });
    f.switchTo();
    ASSERT_TRUE(f.finished());
    EXPECT_EQ(addr % 16, 0u);
}

// Many fibers interleaved round-robin: each keeps its own stack
// resident state (and whatever the compiler holds in callee-saved
// registers) across every switch.
TEST(Fiber, ManyInterleavedFibersKeepTheirState)
{
    constexpr int kFibers = 32;
    constexpr int kSwitches = 1000;
    std::vector<std::uint64_t> sums(kFibers, 0);
    std::vector<int> corrupt(kFibers, 0);
    std::vector<std::unique_ptr<Fiber>> fibers(kFibers);
    for (int id = 0; id < kFibers; ++id) {
        fibers[id] = std::make_unique<Fiber>(64 * 1024, [&, id] {
            std::uint64_t local[8];
            for (int j = 0; j < 8; ++j)
                local[j] = static_cast<std::uint64_t>(id) * 1000 + j;
            std::uint64_t sum = 0;
            for (int k = 0; k < kSwitches; ++k) {
                for (int j = 0; j < 8; ++j) {
                    if (local[j] != static_cast<std::uint64_t>(id) * 1000 +
                                        j + static_cast<std::uint64_t>(k))
                        corrupt[id]++;
                    local[j]++;
                }
                sum += static_cast<std::uint64_t>(id) + k;
                fibers[id]->yieldToCaller();
            }
            sums[id] = sum;
        });
    }
    for (int k = 0; k <= kSwitches; ++k) {
        for (auto& f : fibers)
            f->switchTo();
    }
    for (int id = 0; id < kFibers; ++id) {
        EXPECT_TRUE(fibers[id]->finished()) << id;
        EXPECT_EQ(corrupt[id], 0) << id;
        EXPECT_EQ(sums[id], static_cast<std::uint64_t>(id) * kSwitches +
                                kSwitches * (kSwitches - 1) / 2)
            << id;
    }
}

TEST(Fiber, EscapingExceptionFinishesTheFiber)
{
    Fiber f(64 * 1024, [] { throw std::out_of_range("fiber threw"); });
    f.switchTo();
    EXPECT_TRUE(f.finished());
    ASSERT_TRUE(f.error());
    try {
        std::rethrow_exception(f.error());
    } catch (const std::out_of_range& ex) {
        EXPECT_EQ(std::string(ex.what()), "fiber threw");
    }
}

TEST(EventQueue, OrdersByTimeThenSequence)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(3); });
    EXPECT_EQ(q.nextTime(), 5u);
    EXPECT_EQ(q.runUntil(100), 3u);
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, EventsMayScheduleEarlierEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(20, [&] { order.push_back(2); });
    });
    q.schedule(30, [&] { order.push_back(3); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ChargesAndFinishes)
{
    Engine e(2);
    e.setBody(0, [&] { e.proc(0).charge(1234); });
    e.setBody(1, [&] { e.proc(1).charge(17); });
    e.run();
    EXPECT_EQ(e.proc(0).now(), 1234u);
    EXPECT_EQ(e.proc(1).now(), 17u);
    EXPECT_EQ(e.elapsed(), 1234u);
    EXPECT_TRUE(e.proc(0).finished());
}

TEST(Engine, QuantumInterleavesProcessors)
{
    // Two processors alternately appending: within each 100-cycle
    // quantum both make progress; ordering across quanta is
    // deterministic.
    Engine e(2);
    std::vector<std::pair<NodeId, Cycle>> log;
    for (NodeId i = 0; i < 2; ++i) {
        e.setBody(i, [&, i] {
            for (int k = 0; k < 5; ++k) {
                e.proc(i).charge(60); // crosses a boundary every other
                log.emplace_back(i, e.proc(i).now());
            }
        });
    }
    e.run();
    ASSERT_EQ(log.size(), 10u);
    // Both processors end at 300 cycles.
    EXPECT_EQ(e.proc(0).now(), 300u);
    EXPECT_EQ(e.proc(1).now(), 300u);
}

TEST(Engine, BlockAndResumeViaEvent)
{
    Engine e(1);
    Cycle resumed_at = 0;
    e.setBody(0, [&] {
        Processor& p = e.proc(0);
        p.charge(50);
        e.schedule(400, [&] { e.proc(0).resume(400); });
        p.blockFor(CostKind::Barrier);
        resumed_at = p.now();
    });
    e.run();
    EXPECT_EQ(resumed_at, 400u);
    // The 350 stalled cycles land in the Barrier category.
    EXPECT_EQ(e.proc(0).stats().total().cycles[static_cast<std::size_t>(
                  stats::Category::Barrier)],
              350u);
}

TEST(Engine, SkipsIdleTime)
{
    Engine e(1);
    e.setBody(0, [&] {
        Processor& p = e.proc(0);
        e.schedule(1000000, [&] { e.proc(0).resume(1000000); });
        p.blockFor(CostKind::Barrier);
        p.charge(5);
    });
    e.run();
    EXPECT_EQ(e.proc(0).now(), 1000005u);
}

TEST(Engine, DeadlockIsDetected)
{
    Engine e(2);
    e.setBody(0, [&] { e.proc(0).blockFor(CostKind::Barrier); });
    e.setBody(1, [&] { e.proc(1).charge(10); });
    EXPECT_THROW(e.run(), std::runtime_error);
}

// An exception thrown by a target program reaches Engine::run's caller
// with its type and message, after the throwing processor's slice;
// the processor counts as finished.
TEST(Engine, BodyExceptionReachesTheCaller)
{
    Engine e(2);
    e.setBody(0, [&] {
        e.proc(0).charge(250);
        throw std::runtime_error("proc 0 gave up");
    });
    e.setBody(1, [&] {
        for (int i = 0; i < 100; ++i)
            e.proc(1).charge(30);
    });
    try {
        e.run();
        FAIL() << "run() returned normally";
    } catch (const std::runtime_error& ex) {
        EXPECT_EQ(std::string(ex.what()), "proc 0 gave up");
    }
    EXPECT_TRUE(e.proc(0).finished());
    EXPECT_EQ(e.proc(0).now(), 250u);
}

TEST(Engine, AuditErrorFromABodyKeepsItsType)
{
    Engine e(2);
    e.setBody(0, [&] { e.proc(0).charge(10); });
    e.setBody(1, [&] {
        e.proc(1).charge(120);
        WWT_AUDIT(false, "forged violation on proc " << e.proc(1).id());
    });
    try {
        e.run();
        FAIL() << "run() returned normally";
    } catch (const audit::AuditError& ex) {
        EXPECT_NE(std::string(ex.what()).find("forged violation on proc 1"),
                  std::string::npos)
            << ex.what();
    }
}

TEST(Engine, BulkChargeSkipsQuanta)
{
    Engine e(2);
    e.setBody(0, [&] { e.proc(0).charge(10'000'000); });
    e.setBody(1, [&] {
        for (int i = 0; i < 10; ++i)
            e.proc(1).charge(30);
    });
    e.run();
    EXPECT_EQ(e.elapsed(), 10'000'000u);
}

TEST(Processor, AttributionScopesMapKinds)
{
    Engine e(1);
    e.setBody(0, [&] {
        Processor& p = e.proc(0);
        p.charge(10); // -> Computation
        {
            AttrScope lib(p, stats::libAttribution());
            p.charge(20);                          // -> LibComp
            p.advance(CostKind::PrivMiss, 30);     // -> LibMiss
        }
        p.advance(CostKind::PrivMiss, 40); // -> LocalMiss
        {
            AttrScope lock(p,
                stats::lumpedAttribution(stats::Category::Lock));
            p.charge(50);                      // -> Lock
            p.advance(CostKind::SharedMiss, 60); // -> Lock
        }
    });
    e.run();
    auto total = e.proc(0).stats().total();
    auto get = [&](stats::Category c) {
        return total.cycles[static_cast<std::size_t>(c)];
    };
    EXPECT_EQ(get(stats::Category::Computation), 10u);
    EXPECT_EQ(get(stats::Category::LibComp), 20u);
    EXPECT_EQ(get(stats::Category::LibMiss), 30u);
    EXPECT_EQ(get(stats::Category::LocalMiss), 40u);
    EXPECT_EQ(get(stats::Category::Lock), 110u);
}

TEST(Processor, PhasesSegmentStatistics)
{
    Engine e(1);
    e.setBody(0, [&] {
        Processor& p = e.proc(0);
        p.charge(100);
        p.stats().setPhase(1);
        p.charge(200);
    });
    e.run();
    const auto& st = e.proc(0).stats();
    ASSERT_EQ(st.numPhases(), 2u);
    EXPECT_EQ(st.phase(0).totalCycles(), 100u);
    EXPECT_EQ(st.phase(1).totalCycles(), 200u);
    EXPECT_EQ(st.total().totalCycles(), 300u);
}

TEST(Processor, InterruptHandlerRunsAtAdvance)
{
    Engine e(1);
    int fired = 0;
    e.setBody(0, [&] {
        Processor& p = e.proc(0);
        p.setInterruptHandler([&] { fired++; });
        p.setInterruptsEnabled(true);
        p.charge(10);
        EXPECT_EQ(fired, 0);
        p.raiseInterrupt();
        p.charge(10);
        EXPECT_EQ(fired, 1);
        p.charge(10);
        EXPECT_EQ(fired, 1); // one interrupt, one delivery
    });
    e.run();
    EXPECT_EQ(fired, 1);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run = [] {
        Engine e(4);
        for (NodeId i = 0; i < 4; ++i) {
            e.setBody(i, [&e, i] {
                Processor& p = e.proc(i);
                for (int k = 0; k < 100; ++k) {
                    p.charge(7 + i);
                    if (k == 50 && i == 0) {
                        e.schedule(p.now() + 500, [&e] {
                            // no-op event exercising the calendar
                            (void)e;
                        });
                    }
                }
            });
        }
        e.run();
        return e.elapsed();
    };
    EXPECT_EQ(run(), run());
}
