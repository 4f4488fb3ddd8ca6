#include "prof/hostprof.hh"

#include "trace/json.hh"

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace wwt::prof
{

namespace detail
{
bool g_enabled = false;
std::uint32_t g_samplePeriod = kDefaultSamplePeriod;
std::uint64_t (*g_tickOverride)() = nullptr;
Shard g_shard;
} // namespace detail

namespace
{

using detail::g_shard;
using detail::Shard;
using detail::tickNow;

struct State {
    std::uint64_t t0Tick = 0; // calibration anchor at enable()
    std::chrono::steady_clock::time_point t0Steady{};
};

State&
state()
{
    static State s;
    return s;
}

void
flushShard(Shard& sh, std::uint64_t now)
{
    if (now > sh.last)
        sh.acc[static_cast<std::size_t>(sh.cur)] += now - sh.last;
    sh.last = now;
}

/** The statically-known enclosing phase of each sampled hot phase;
 *  Untracked marks "not a sampled phase". The report moves the scaled
 *  remainder of a sampled phase out of its parent (see snapshot). */
Phase
sampledParent(Phase p)
{
    switch (p) {
      case Phase::Mem: return Phase::Fiber;
      case Phase::Protocol: return Phase::EventDrain;
      case Phase::Net: return Phase::EventDrain;
      default: return Phase::Untracked;
    }
}

} // namespace

namespace detail
{

Phase
sampleBegin(Phase p)
{
    // Caller (SampledPhase) already checked enabled() and decremented
    // the duty counter to zero.
    Shard& sh = g_shard;
    std::size_t i = static_cast<std::size_t>(p);
    sh.duty[i] = g_samplePeriod;
    sh.sampled[i]++;
    flushShard(sh, tickNow());
    Phase prev = sh.cur;
    sh.cur = p;
    return prev;
}

} // namespace detail

const char*
phaseName(Phase p)
{
    switch (p) {
      case Phase::Untracked: return "untracked";
      case Phase::EventDrain: return "event_drain";
      case Phase::Fiber: return "fiber";
      case Phase::Mem: return "mem";
      case Phase::Protocol: return "protocol";
      case Phase::Net: return "net";
      case Phase::Trace: return "trace";
      case Phase::Audit: return "audit";
    }
    return "unknown";
}

void
enable()
{
    if (detail::g_enabled)
        return;
    State& s = state();
    s.t0Tick = tickNow();
    s.t0Steady = std::chrono::steady_clock::now();
    detail::g_enabled = true;
    if (!g_shard.live) {
        for (std::size_t i = 0; i < kNumPhases; ++i)
            g_shard.duty[i] = detail::g_samplePeriod;
        g_shard.start = g_shard.last = tickNow();
        g_shard.live = true;
    }
}

void
disable()
{
    detail::g_enabled = false;
}

void
setSamplePeriod(std::uint32_t period)
{
    detail::g_samplePeriod = period > 0 ? period : 1;
}

Report
snapshot()
{
    State& s = state();
    if (enabled())
        flushShard(g_shard, tickNow());

    Report r;
    std::uint64_t now_tick = tickNow();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - s.t0Steady)
                      .count();
    r.samplePeriod = detail::g_samplePeriod;
    std::uint64_t sampled[kNumPhases] = {};
    if (g_shard.live) {
        r.threads = 1;
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            r.phase[i].ticks = g_shard.acc[i];
            sampled[i] = g_shard.sampled[i];
        }
        r.totalTicks = g_shard.last - g_shard.start;
    }

    // Scale the duty-sampled hot phases: measured ticks cover one in
    // samplePeriod entries; the unmeasured entries left their time in
    // the statically-known parent phase, so move the estimated
    // remainder there->here (clamped — the estimate can never exceed
    // what the parent actually measured). Every tick stays counted
    // exactly once, so sum-to-total and coverage remain exact; only
    // the sampled/parent split is an estimate, flagged per phase.
    if (r.samplePeriod > 1) {
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            Phase parent = sampledParent(static_cast<Phase>(i));
            if (parent == Phase::Untracked || sampled[i] == 0)
                continue;
            std::size_t pi = static_cast<std::size_t>(parent);
            std::uint64_t extra =
                r.phase[i].ticks *
                static_cast<std::uint64_t>(r.samplePeriod - 1);
            if (extra > r.phase[pi].ticks)
                extra = r.phase[pi].ticks;
            r.phase[i].ticks += extra;
            r.phase[pi].ticks -= extra;
            r.phase[i].estimated = true;
        }
    }

    r.wallSec = wall > 0 ? wall : 0;
    // Calibrate ticks -> seconds over the enable..now window; with
    // a test tick source the rate is meaningless, so fall back to
    // 1 tick == 1ns (tests assert on ticks, not seconds).
    double rate = 0;
    if (now_tick > s.t0Tick && wall > 0)
        rate = static_cast<double>(now_tick - s.t0Tick) / wall;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        r.phase[i].sec =
            rate > 0 ? static_cast<double>(r.phase[i].ticks) / rate
                     : static_cast<double>(r.phase[i].ticks) * 1e-9;
    }
    r.threadSec = rate > 0
                      ? static_cast<double>(r.totalTicks) / rate
                      : static_cast<double>(r.totalTicks) * 1e-9;
    r.namedTicks =
        r.totalTicks -
        r.phase[static_cast<std::size_t>(Phase::Untracked)].ticks;
    r.coverage = r.totalTicks
                     ? static_cast<double>(r.namedTicks) /
                           static_cast<double>(r.totalTicks)
                     : 0.0;
    return r;
}

std::string
coverageLine(const Report& r)
{
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "hostprof: coverage %.1f%% of %.3fs host-thread time across "
        "%zu thread(s): %s",
        r.coverage * 100.0, r.threadSec, r.threads,
        r.coverageOk() ? "self-audit OK (>=95%)"
                       : "BELOW the 95% coverage floor");
    return buf;
}

void
writeManifest(std::ostream& os, const Report& r)
{
    trace::JsonWriter w(os, true);
    w.beginObject();
    w.kv("schema", "wwtcmp.hostprof/1");
    w.kv("wall_sec", r.wallSec);
    w.kv("thread_sec", r.threadSec);
    w.kv("threads", static_cast<std::uint64_t>(r.threads));
    w.kv("coverage", r.coverage);
    w.kv("coverage_ok", r.coverageOk());
    w.kv("sample_period",
         static_cast<std::uint64_t>(r.samplePeriod));
    w.key("phases").beginArray();
    auto emit = [&](Phase p) {
        const PhaseTotal& t = r.phase[static_cast<std::size_t>(p)];
        w.beginObject();
        w.kv("name", phaseName(p));
        w.kv("ticks", t.ticks);
        w.kv("sec", t.sec);
        w.kv("share", r.totalTicks
                          ? static_cast<double>(t.ticks) /
                                static_cast<double>(r.totalTicks)
                          : 0.0);
        w.kv("estimated", t.estimated);
        w.endObject();
    };
    // Named phases in enum order; untracked last, where a reader
    // scanning top-down meets it as "and the rest".
    for (std::size_t i = 1; i < kNumPhases; ++i)
        emit(static_cast<Phase>(i));
    emit(Phase::Untracked);
    w.endArray();
    w.endObject();
}

bool
writeManifestFile(const std::string& path)
{
    Report r = snapshot();
    std::ofstream os(path);
    if (!os) {
        std::cerr << "hostprof: cannot write manifest to " << path
                  << "\n";
        return false;
    }
    errno = 0;
    writeManifest(os, r);
    // A full disk shows only at the flush: check the close.
    os.close();
    if (!os) {
        int err = errno;
        std::cerr << "hostprof: cannot write manifest to " << path << ": "
                  << (err ? std::strerror(err) : "stream error") << "\n";
        return false;
    }
    std::cerr << coverageLine(r) << "\n"
              << "hostprof: manifest written to " << path << "\n";
    return true;
}

void
resetForTest()
{
    disable();
    g_shard = Shard{};
    detail::g_samplePeriod = kDefaultSamplePeriod;
}

void
setTickSourceForTest(std::uint64_t (*fn)())
{
    resetForTest();
    detail::g_tickOverride = fn;
}

Rusage
selfRusage()
{
    Rusage r;
    struct rusage u;
    if (::getrusage(RUSAGE_SELF, &u) != 0)
        return r;
    auto sec = [](const struct timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    r.userSec = sec(u.ru_utime);
    r.sysSec = sec(u.ru_stime);
    r.maxRssKb = u.ru_maxrss; // Linux: kilobytes
    return r;
}

} // namespace wwt::prof
