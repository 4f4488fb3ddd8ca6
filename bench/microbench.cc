/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * cache lookups, TLB translation, the event calendar, fiber context
 * switches, and whole protocol transactions. These measure *host*
 * performance of the simulation infrastructure (how fast experiments
 * run), not target-machine behavior.
 */

#include <benchmark/benchmark.h>

#include "apps/em3d.hh"
#include "core/config.hh"
#include "mem/cache.hh"
#include "prof/hostprof.hh"
#include "mem/tlb.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sm/sm_machine.hh"

using namespace wwt;

static void
BM_CacheHit(benchmark::State& state)
{
    mem::Cache c(256 * 1024, 4, 32, 1);
    c.insert(c.blockOf(0x1000), mem::LineState::Exclusive, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.find(c.blockOf(0x1000)));
}
BENCHMARK(BM_CacheHit);

static void
BM_CacheMissInsert(benchmark::State& state)
{
    mem::Cache c(256 * 1024, 4, 32, 1);
    Addr b = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.insert(b++, mem::LineState::Exclusive, false));
    }
}
BENCHMARK(BM_CacheMissInsert);

static void
BM_TlbHit(benchmark::State& state)
{
    mem::Tlb t(64);
    t.access(0x5000);
    for (auto _ : state)
        benchmark::DoNotOptimize(t.access(0x5008));
}
BENCHMARK(BM_TlbHit);

static void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (Cycle t = 0; t < 256; ++t)
            q.schedule(t * 7 % 251, [&sink] { ++sink; });
        q.runUntil(kCycleMax);
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_FiberSwitch(benchmark::State& state)
{
    sim::Fiber* fp = nullptr;
    sim::Fiber f(64 * 1024, [&] {
        while (true)
            fp->yieldToCaller();
    });
    fp = &f;
    for (auto _ : state)
        f.switchTo();
}
BENCHMARK(BM_FiberSwitch);

static void
BM_EngineQuantum(benchmark::State& state)
{
    // Whole-engine throughput: 4 processors charging cycles.
    for (auto _ : state) {
        sim::Engine e(4);
        for (NodeId i = 0; i < 4; ++i) {
            e.setBody(i, [&e, i] {
                for (int k = 0; k < 1000; ++k)
                    e.proc(i).charge(30);
            });
        }
        e.run();
        benchmark::DoNotOptimize(e.elapsed());
    }
}
BENCHMARK(BM_EngineQuantum);

static void
BM_EngineQuantumTraced(benchmark::State& state)
{
    // Same workload with the flight recorder on: the host-time cost
    // of recording spans (simulated results are identical).
    for (auto _ : state) {
        sim::Engine e(4);
        e.enableTracing();
        for (NodeId i = 0; i < 4; ++i) {
            e.setBody(i, [&e, i] {
                for (int k = 0; k < 1000; ++k)
                    e.proc(i).charge(30);
            });
        }
        e.run();
        benchmark::DoNotOptimize(e.elapsed());
    }
}
BENCHMARK(BM_EngineQuantumTraced);

static void
BM_WholeQuantumEm3dSm(benchmark::State& state)
{
    // Whole-quantum throughput of the fixed EM3D-SM workload the
    // perf-trajectory gate tracks (tools/bench_trajectory.py): the
    // timer covers the complete simulation — quantum loop, fibers,
    // memory model, directory protocol, end-of-run audits — but NOT
    // machine construction (PauseTiming around setup). The
    // sim_cycles_per_sec counter is simulated cycles per host second,
    // the paper-methodology figure of merit. Arg(1) runs the default
    // configuration, Arg(0) disables the fast-hit filter (results
    // are byte-identical either way; only host time may differ).
    std::uint64_t simCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        core::MachineConfig cfg;
        cfg.nprocs = 32;
        cfg.fastHit = state.range(0) != 0;
        sm::SmMachine m(cfg);
        apps::Em3dParams p;
        p.nodesPerProc = 512;
        p.iters = 5;
        state.ResumeTiming();
        apps::runEm3dSm(m, p);
        simCycles += m.engine().elapsed();
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(simCycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WholeQuantumEm3dSm)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

static void
BM_WholeQuantumEm3dSmHostProf(benchmark::State& state)
{
    // The profiler's overhead budget, measurable: the exact
    // BM_WholeQuantumEm3dSm/1 workload with --host-prof accounting
    // live. CI's hostprof-smoke job compares this against the plain
    // variant; the contract is <2% (docs/performance.md). Not in the
    // trajectory TRACKED list — it measures the profiler, not the
    // simulator.
    prof::enable();
    std::uint64_t simCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        core::MachineConfig cfg;
        cfg.nprocs = 32;
        cfg.fastHit = true;
        sm::SmMachine m(cfg);
        apps::Em3dParams p;
        p.nodesPerProc = 512;
        p.iters = 5;
        state.ResumeTiming();
        apps::runEm3dSm(m, p);
        simCycles += m.engine().elapsed();
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(simCycles),
                           benchmark::Counter::kIsRate);
    // Leave the process as found for whatever benchmark runs next.
    prof::resetForTest();
}
BENCHMARK(BM_WholeQuantumEm3dSmHostProf)
    ->Unit(benchmark::kMillisecond);

static void
BM_WholeQuantumEm3dMp(benchmark::State& state)
{
    // Message-passing twin of BM_WholeQuantumEm3dSm: same fixed EM3D
    // workload on the MP machine (channels + active messages instead
    // of the directory protocol). Same timer coverage and counter.
    std::uint64_t simCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        core::MachineConfig cfg;
        cfg.nprocs = 32;
        cfg.fastHit = state.range(0) != 0;
        mp::MpMachine m(cfg);
        apps::Em3dParams p;
        p.nodesPerProc = 512;
        p.iters = 5;
        state.ResumeTiming();
        apps::runEm3dMp(m, p);
        simCycles += m.engine().elapsed();
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(simCycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WholeQuantumEm3dMp)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

static void
BM_ProtocolRemoteMiss(benchmark::State& state)
{
    // Cost of simulating one remote shared-memory read miss
    // (request, directory service, fill, resume).
    for (auto _ : state) {
        state.PauseTiming();
        core::MachineConfig cfg;
        cfg.nprocs = 2;
        sm::SmMachine m(cfg);
        Addr a = 0;
        state.ResumeTiming();
        m.run([&](sm::SmMachine::Node& n) {
            if (n.id == 1)
                a = n.gmallocLocal(4096);
            n.barrier();
            if (n.id == 0) {
                for (int i = 0; i < 64; ++i)
                    n.rd<double>(a + i * 64);
            }
        });
        benchmark::DoNotOptimize(m.engine().elapsed());
    }
}
BENCHMARK(BM_ProtocolRemoteMiss);

BENCHMARK_MAIN();
