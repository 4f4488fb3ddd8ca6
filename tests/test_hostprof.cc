/**
 * @file
 * Host-time profiler tests: the three contracts that make the
 * profiler trustworthy.
 *
 *  1. Phases are exclusive — a nested scope *suspends* its parent, so
 *     no tick is counted twice and the totals equal the
 *     measured window (the paper's sums-to-total discipline).
 *  2. The coverage self-audit actually fires: host work outside any
 *     named scope lands in `untracked` and pushes coverage below the
 *     95% floor instead of silently vanishing.
 *  3. Observation does not perturb the experiment: simulated metrics
 *     are byte-identical with the profiler on or off, for every
 *     paper application on both machines.
 *
 * Plus the artifact exit path: a manifest that cannot be written
 * fails the process that was asked for it.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.hh"
#include "exp/registry.hh"
#include "prof/hostprof.hh"

namespace wwt
{
namespace
{

// Fake tick source: only the main test thread advances it, so exact
// tick arithmetic is deterministic. Single-threaded tests only.
std::uint64_t g_fake_now = 0;

std::uint64_t
fakeTick()
{
    return g_fake_now;
}

std::uint64_t
ticksOf(const prof::Report& r, prof::Phase p)
{
    return r.phase[static_cast<std::size_t>(p)].ticks;
}

class HostProfFakeClock : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_fake_now = 0;
        prof::setTickSourceForTest(&fakeTick);
        prof::enable();
    }

    void
    TearDown() override
    {
        prof::setTickSourceForTest(nullptr);
    }
};

TEST_F(HostProfFakeClock, NestedScopesAreExclusive)
{
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        g_fake_now += 10;
        {
            prof::ScopedPhase mem(prof::Phase::Mem);
            g_fake_now += 5;
        }
        g_fake_now += 7;
    }
    g_fake_now += 3; // outside any scope

    prof::Report r = prof::snapshot();
    // The Mem ticks are charged once, not also to the enclosing
    // Fiber scope.
    EXPECT_EQ(ticksOf(r, prof::Phase::Fiber), 17u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Mem), 5u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Untracked), 3u);
    EXPECT_EQ(r.totalTicks, 25u);
    EXPECT_EQ(r.namedTicks, 22u);
    EXPECT_EQ(r.threads, 1u);
    EXPECT_DOUBLE_EQ(r.coverage, 22.0 / 25.0);

    // The accumulators sum exactly to the measured window.
    std::uint64_t sum = 0;
    for (const prof::PhaseTotal& pt : r.phase)
        sum += pt.ticks;
    EXPECT_EQ(sum, r.totalTicks);
}

TEST_F(HostProfFakeClock, ExchangePhaseRestoresAcrossYields)
{
    // What Engine::runUntilPhased does around a fiber switch: save
    // the fiber's phase, run engine-side, restore. The Mem scope's
    // time must not leak into the engine's EventDrain window.
    prof::ScopedPhase mem(prof::Phase::Mem);
    g_fake_now += 4;
    prof::Phase saved = prof::exchangePhase(prof::Phase::EventDrain);
    EXPECT_EQ(saved, prof::Phase::Mem);
    g_fake_now += 6;
    prof::exchangePhase(saved);
    g_fake_now += 2;

    prof::Report r = prof::snapshot();
    EXPECT_EQ(ticksOf(r, prof::Phase::Mem), 6u);
    EXPECT_EQ(ticksOf(r, prof::Phase::EventDrain), 6u);
}

TEST_F(HostProfFakeClock, CoverageAuditFiresOnUntrackedBusyLoop)
{
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        g_fake_now += 4;
    }
    g_fake_now += 96; // a busy loop nobody instrumented

    prof::Report r = prof::snapshot();
    EXPECT_FALSE(r.coverageOk());
    EXPECT_DOUBLE_EQ(r.coverage, 0.04);
    EXPECT_NE(prof::coverageLine(r).find("BELOW"), std::string::npos);

    std::ostringstream os;
    prof::writeManifest(os, r);
    EXPECT_NE(os.str().find("\"coverage_ok\": false"),
              std::string::npos);
}

TEST_F(HostProfFakeClock, CoverageAuditPassesWhenInstrumented)
{
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        g_fake_now += 99;
    }
    g_fake_now += 1;

    prof::Report r = prof::snapshot();
    EXPECT_TRUE(r.coverageOk());
    EXPECT_NE(prof::coverageLine(r).find("self-audit OK"),
              std::string::npos);
}

TEST_F(HostProfFakeClock, SampledPhasesScaleIntoParent)
{
    // Period 4: entries 4 and 8 measure exactly (5 ticks each); the
    // six unmeasured entries leave their time in the enclosing Fiber
    // scope, and the report moves the scaled remainder (10 * 3) back
    // into mem. Uniform entries make the estimate exact: 8 * 5 = 40.
    prof::resetForTest();
    prof::setSamplePeriod(4);
    prof::enable();
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        for (int i = 0; i < 8; ++i) {
            prof::SampledPhase mem(prof::Phase::Mem);
            g_fake_now += 5;
        }
        g_fake_now += 28;
    }
    prof::Report r = prof::snapshot();
    EXPECT_EQ(r.samplePeriod, 4u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Mem), 40u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Fiber), 28u);
    EXPECT_TRUE(
        r.phase[static_cast<std::size_t>(prof::Phase::Mem)].estimated);
    // The correction moves ticks between named phases; the exact
    // sum-to-total and coverage contracts are untouched.
    EXPECT_EQ(r.totalTicks, 68u);
    EXPECT_EQ(r.namedTicks, 68u);
    std::uint64_t sum = 0;
    for (const prof::PhaseTotal& pt : r.phase)
        sum += pt.ticks;
    EXPECT_EQ(sum, r.totalTicks);

    std::ostringstream os;
    prof::writeManifest(os, r);
    EXPECT_NE(os.str().find("\"sample_period\": 4"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"estimated\": true"),
              std::string::npos);
}

TEST_F(HostProfFakeClock, SamplePeriodOneMeasuresEveryEntry)
{
    prof::resetForTest();
    prof::setSamplePeriod(1);
    prof::enable();
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        for (int i = 0; i < 3; ++i) {
            prof::SampledPhase mem(prof::Phase::Mem);
            g_fake_now += 5;
        }
        g_fake_now += 7;
    }
    prof::Report r = prof::snapshot();
    EXPECT_EQ(ticksOf(r, prof::Phase::Mem), 15u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Fiber), 7u);
    EXPECT_FALSE(
        r.phase[static_cast<std::size_t>(prof::Phase::Mem)].estimated);
}

TEST_F(HostProfFakeClock, SampledScaleIsClampedToParentTime)
{
    // One outlier measurement bigger than everything the parent has:
    // the scaled estimate is clamped so the total cannot be exceeded.
    prof::resetForTest();
    prof::setSamplePeriod(4);
    prof::enable();
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        g_fake_now += 10;
        for (int i = 0; i < 4; ++i) {
            prof::SampledPhase mem(prof::Phase::Mem);
            if (i == 3)
                g_fake_now += 50; // only the sampled entry is slow
        }
    }
    prof::Report r = prof::snapshot();
    // Unclamped the estimate would be 200; the parent only had 10.
    EXPECT_EQ(ticksOf(r, prof::Phase::Mem), 60u);
    EXPECT_EQ(ticksOf(r, prof::Phase::Fiber), 0u);
    EXPECT_EQ(r.totalTicks, 60u);
}

TEST_F(HostProfFakeClock, DisabledScopesAreNoOps)
{
    prof::disable();
    {
        prof::ScopedPhase fib(prof::Phase::Fiber);
        g_fake_now += 50;
    }
    prof::enable();
    g_fake_now += 5;
    prof::Report r = prof::snapshot();
    EXPECT_EQ(ticksOf(r, prof::Phase::Fiber), 0u);
}

// ----------------------------------------------------------------
// Whole-machine runs.
// ----------------------------------------------------------------

exp::LaunchSpec
smallSpec(const std::string& app, const std::string& machine)
{
    exp::LaunchSpec spec;
    spec.app = app;
    spec.machine = machine;
    spec.cfg = core::MachineConfig::cm5Like();
    spec.cfg.nprocs = 4;
    // lcp iterates to convergence, which tiny systems never reach;
    // 256 is the size its own unit tests call "tiny".
    spec.req.size = app == "lcp" ? 256 : 16;
    spec.req.iters = 2;
    return spec;
}

/** The phase-name sequence of a manifest, in emission order. */
std::vector<std::string>
manifestPhaseNames(const std::string& manifest)
{
    std::vector<std::string> names;
    const std::string key = "\"name\": \"";
    for (std::size_t pos = manifest.find(key);
         pos != std::string::npos;
         pos = manifest.find(key, pos + 1)) {
        std::size_t start = pos + key.size();
        names.push_back(
            manifest.substr(start, manifest.find('"', start) - start));
    }
    return names;
}

TEST(HostProfEngine, ManifestStructureIsStable)
{
    prof::resetForTest();
    prof::enable();
    exp::launch(smallSpec("em3d", "sm"));
    prof::Report r = prof::snapshot();
    std::ostringstream os;
    prof::writeManifest(os, r);
    prof::resetForTest();
    // Same schema, every phase once, in enum order.
    const std::string manifest = os.str();
    EXPECT_NE(manifest.find("\"schema\": \"wwtcmp.hostprof/1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"thread_sec\""), std::string::npos);
    EXPECT_EQ(r.threads, 1u);
    std::vector<std::string> names = manifestPhaseNames(manifest);
    ASSERT_EQ(names.size(), prof::kNumPhases);
    for (std::size_t i = 1; i < prof::kNumPhases; ++i) {
        EXPECT_EQ(names[i - 1],
                  prof::phaseName(static_cast<prof::Phase>(i)));
    }
    EXPECT_EQ(names.front(), "event_drain");
    EXPECT_EQ(names.back(), "untracked"); // the remainder, last
}

// The manifest is small enough to sit in the stream buffer until the
// close, so only a checked close sees a full disk.
TEST(HostProfEngine, ManifestFileOnFullDiskReportsFailure)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full on this system";
    prof::resetForTest();
    prof::enable();
    exp::launch(smallSpec("em3d", "mp"));
    testing::internal::CaptureStderr();
    bool ok = prof::writeManifestFile("/dev/full");
    std::string err = testing::internal::GetCapturedStderr();
    prof::resetForTest();
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("cannot write manifest to /dev/full"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("written to"), std::string::npos) << err;
}

/** Run @p cmd with stdout discarded; its stderr lands in @p err. */
int
runCapturingStderr(const std::string& cmd, std::string& err)
{
    FILE* p = ::popen((cmd + " 2>&1 >/dev/null").c_str(), "r");
    if (!p)
        return -1;
    char buf[4096];
    err.clear();
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        err.append(buf, n);
    int rc = ::pclose(p);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// The drivers write their artifacts before main returns, so a lost
// file reaches the exit status instead of only a stderr line.
TEST(ArtifactExit, RunAppHostProfOnFullDiskExitsNonZero)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full on this system";
    std::string err;
    EXPECT_EQ(runCapturingStderr(std::string(WWT_RUN_APP_BIN) +
                                     " --app em3d --machine mp --procs 2"
                                     " --size 8 --iters 1"
                                     " --host-prof /dev/full",
                                 err),
              1);
    EXPECT_NE(err.find("cannot write manifest to /dev/full"),
              std::string::npos)
        << err;
}

TEST(ArtifactExit, BenchMetricsOnFullDiskExitsNonZero)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full on this system";
    std::string err;
    EXPECT_EQ(runCapturingStderr(std::string(WWT_MSE_BENCH_BIN) +
                                     " --small --metrics /dev/full",
                                 err),
              1);
    EXPECT_NE(err.find("cannot write /dev/full"), std::string::npos)
        << err;
}

TEST(HostProfEngine, EngineRunsHitTheNamedPhases)
{
    // At the default 1-in-64 sampling a tiny run's scaled protocol/net
    // estimate can exceed the drain loop's own ticks and be clamped to
    // all of them, leaving event_drain at 0. Period 1 measures every
    // event, so the carve-out is exact.
    prof::resetForTest();
    prof::enable();
    prof::setSamplePeriod(1);
    exp::launch(smallSpec("em3d", "sm"));
    exp::launch(smallSpec("em3d", "mp"));
    prof::Report r = prof::snapshot();
    EXPECT_GT(ticksOf(r, prof::Phase::Fiber), 0u);
    EXPECT_GT(ticksOf(r, prof::Phase::EventDrain), 0u);
    EXPECT_GT(ticksOf(r, prof::Phase::Audit), 0u);
    prof::resetForTest();
}

TEST(HostProfEngine, EventPhaseTagsReachTheDrainLoop)
{
    // Protocol handlers and network deliveries are attributed via
    // tags on the events themselves, sampled in the drain loop. At
    // period 1 every event is measured, so both phases must show up
    // for the machines that schedule them.
    prof::resetForTest();
    prof::enable();
    prof::setSamplePeriod(1);
    exp::launch(smallSpec("em3d", "sm"));
    prof::Report sm = prof::snapshot();
    EXPECT_GT(ticksOf(sm, prof::Phase::Protocol), 0u);
    prof::resetForTest();

    prof::enable();
    prof::setSamplePeriod(1);
    exp::launch(smallSpec("em3d", "mp"));
    prof::Report mp = prof::snapshot();
    EXPECT_GT(ticksOf(mp, prof::Phase::Net), 0u);
    prof::resetForTest();
}

/** Metrics manifest bytes for one run of @p spec. The run name must
 *  be identical across compared runs (it is embedded in the bytes);
 *  only the output file differs. */
std::string
metricsBytes(const exp::LaunchSpec& spec, const std::string& dir,
             const std::string& run_name, const std::string& file_tag)
{
    std::string path = dir + "/" + file_tag + ".json";
    core::ArtifactWriter art("", path);
    exp::launch(spec, &art, run_name);
    art.write();
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(HostProfEngine, MetricsAreByteIdenticalWithProfilerOnOrOff)
{
    std::string dir = ::testing::TempDir();
    const char* apps[] = {"mse", "gauss", "em3d", "lcp"};
    const char* machines[] = {"mp", "sm"};
    for (const char* app : apps) {
        for (const char* machine : machines) {
            std::string tag =
                std::string(app) + "-" + machine;
            prof::resetForTest();
            std::string off = metricsBytes(smallSpec(app, machine),
                                           dir, tag, tag + "-off");
            prof::enable();
            std::string on = metricsBytes(smallSpec(app, machine),
                                          dir, tag, tag + "-on");
            prof::resetForTest();
            ASSERT_FALSE(off.empty()) << tag;
            EXPECT_EQ(off, on)
                << tag << ": enabling --host-prof changed the "
                << "simulated metrics";
        }
    }
}

} // namespace
} // namespace wwt
