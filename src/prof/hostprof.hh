#pragma once

/**
 * @file
 * Host-time profiler: where does *host* wall time go while the
 * simulator decomposes *simulated* time?
 *
 * The paper's method is a breakdown of execution time into named,
 * non-overlapping categories that sum to the total. This module
 * applies the same discipline to the simulator's own host thread:
 *
 *  - One process-wide shard holds a tick accumulator per phase, a
 *    current phase, and the tick of the last phase transition. A
 *    transition reads the tick source once, charges `now - last` to
 *    the outgoing phase, and switches. Phases are therefore
 *    *structurally* non-overlapping, and the accumulators sum exactly
 *    to the measured window — anything not inside a named scope lands
 *    in Phase::Untracked, which is what the coverage self-audit
 *    reports on. The simulator runs on one host thread, so the shard
 *    needs no synchronization; only that thread may open scopes.
 *
 *  - Two scope granularities. The coarse phases (event drain, fiber
 *    execution, tracing, audits) transition at loop boundaries — a
 *    few per simulated quantum — and are measured exactly.
 *    The hot phases (memory-model miss handling, protocol
 *    handlers, network delivery) fire millions of times per second of
 *    host time; reading the TSC on every one would *be* the overhead
 *    budget. Those use SampledPhase: a per-shard duty counter lets
 *    every Nth entry measure exactly while the rest stay in the
 *    enclosing coarse phase, and the report scales the measured time
 *    by N, carving the estimate out of the statically-known parent
 *    phase (mem ⊂ fiber, protocol/net ⊂ event_drain). Every tick is
 *    still counted exactly once, so non-overlap and sum-to-wall stay
 *    exact; only the *split* between a sampled phase and its parent
 *    is an estimate, and the manifest says so per phase.
 *
 *  - The tick source is the TSC on x86-64 (one `rdtsc` per phase
 *    transition; no serialization, which is fine at >100ns phase
 *    granularity) with a steady_clock fallback elsewhere, calibrated
 *    against steady_clock over the enable..report window.
 *
 * The profiler is disabled by default and compiled so the disabled
 * path is one load of a flag per would-be scope. The hard contract
 * (CI-enforced): enabling it never changes simulated results —
 * instrumentation must not touch engine state, only read the clock.
 *
 * All runtime output (coverage line, "written to" notes) goes to
 * stderr: stdout byte-identity with the profiler on vs off is part of
 * the contract.
 */

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace wwt::prof
{

/**
 * Host-time phases. Exactly one is active at any instant. Untracked
 * absorbs everything outside a named scope; docs/performance.md
 * documents what each named phase covers and — just as important —
 * what it does not.
 */
enum class Phase : std::uint8_t {
    Untracked = 0, ///< no named scope active (self-audit target)
    EventDrain,    ///< event-queue drain
    Fiber,         ///< fiber quantum execution (direct execution)
    Mem,           ///< MP/SM memory-model miss and fault handling
    Protocol,      ///< coherence-protocol event handlers
    Net,           ///< network delivery into node interfaces
    Trace,         ///< flight-recorder snapshot + artifact writing
    Audit,         ///< invariant audits + report collection
};

inline constexpr std::size_t kNumPhases = 8;

/** snake_case phase name, as used in manifests and records. */
const char* phaseName(Phase p);

/** Coverage floor for the self-audit: named phases must reach 95%. */
inline constexpr double kCoverageFloor = 0.95;

/**
 * Default duty period for SampledPhase: one exact measurement per
 * this many scope entries. setSamplePeriod(1) makes every entry
 * exact (tests; small runs where overhead is irrelevant).
 */
inline constexpr std::uint32_t kDefaultSamplePeriod = 64;

namespace detail
{

extern bool g_enabled;
extern std::uint32_t g_samplePeriod;
extern std::uint64_t (*g_tickOverride)(); ///< tests only; null = real

/** Read the tick source. Inline so a phase transition is a branch
 *  plus one rdtsc, not a call through the registry. */
inline std::uint64_t
tickNow()
{
#if defined(__x86_64__)
    auto* f = g_tickOverride;
    return f ? f() : __rdtsc();
#else
    auto* f = g_tickOverride;
    if (f)
        return f();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/**
 * The accumulator. `acc` sums to exactly `last - start` after every
 * flush, so coverage is well-defined by construction.
 */
struct Shard {
    std::uint64_t acc[kNumPhases] = {};
    std::uint64_t sampled[kNumPhases] = {}; ///< measured entries
    std::uint32_t duty[kNumPhases] = {};    ///< countdown to sample
    std::uint64_t start = 0;
    std::uint64_t last = 0;
    Phase cur = Phase::Untracked;
    bool live = false; ///< started by enable(), cleared by reset
};

/** The one process-wide shard. */
extern Shard g_shard;

/** Out-of-line slow path of a sampled entry: exact transition. */
Phase sampleBegin(Phase p);

} // namespace detail

/** Is the profiler accounting right now? One load. */
inline bool
enabled()
{
    return detail::g_enabled;
}

/** The current phase (Untracked before the first enable()). */
inline Phase
currentPhase()
{
    return detail::g_shard.cur;
}

/**
 * Start accounting; the first call after a reset starts the shard's
 * measured window. Idempotent.
 */
void enable();

/** Stop accounting (scopes become no-ops). Accumulators survive. */
void disable();

/**
 * Set the SampledPhase duty period (1 = exact, default 64). Applies
 * from the next shard start; call before enable().
 */
void setSamplePeriod(std::uint32_t period);

/** The configured SampledPhase duty period. */
inline std::uint32_t
samplePeriod()
{
    return detail::g_samplePeriod;
}

/**
 * Charge elapsed ticks to the current phase and switch to @p next.
 * Returns the previous phase. No-op (returns Untracked) when the
 * profiler is off.
 *
 * This is the primitive the fiber scheduler uses to carry a logical
 * phase across fiber switches: the engine saves the processor's
 * phase on yield and restores it on resume, so a scope opened inside
 * a fiber never bleeds into engine-side time.
 */
inline Phase
exchangePhase(Phase next)
{
    if (!enabled())
        return Phase::Untracked;
    detail::Shard& sh = detail::g_shard;
    std::uint64_t now = detail::tickNow();
    if (now > sh.last)
        sh.acc[static_cast<std::size_t>(sh.cur)] += now - sh.last;
    sh.last = now;
    Phase prev = sh.cur;
    sh.cur = next;
    return prev;
}

/** RAII phase scope, measured exactly. For the coarse phases: a few
 *  transitions per quantum, never on a per-event path. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase p)
    {
        if (enabled()) {
            prev_ = exchangePhase(p);
            armed_ = true;
        }
    }
    ~ScopedPhase()
    {
        if (armed_)
            exchangePhase(prev_);
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

  private:
    Phase prev_ = Phase::Untracked;
    bool armed_ = false;
};

/**
 * RAII phase scope for per-event hot paths (mem/protocol/net).
 * Every Nth entry (per phase) measures exactly; the others cost one
 * decrement and leave the time in the enclosing phase, which the
 * report corrects by the duty period. See the file
 * comment for why the split — not the sum — is the estimate.
 */
class SampledPhase
{
  public:
    explicit SampledPhase(Phase p)
    {
        if (!enabled())
            return;
        if (--detail::g_shard.duty[static_cast<std::size_t>(p)] != 0)
            return;
        prev_ = detail::sampleBegin(p);
        armed_ = true;
    }
    ~SampledPhase()
    {
        if (armed_)
            exchangePhase(prev_);
    }
    SampledPhase(const SampledPhase&) = delete;
    SampledPhase& operator=(const SampledPhase&) = delete;

  private:
    Phase prev_ = Phase::Untracked;
    bool armed_ = false;
};

/**
 * RAII scope that always measures and counts as a sampled entry.
 * For callers that run their own duty counter over a population of
 * work items — the event drain samples every Nth *event* and opens
 * one of these with the event's phase tag, so per-event hot phases
 * cost one counter decrement at a single site instead of a scope in
 * every handler. Scaling at report time is identical to
 * SampledPhase's.
 */
class ForcedSamplePhase
{
  public:
    explicit ForcedSamplePhase(Phase p)
    {
        if (!enabled())
            return;
        prev_ = detail::sampleBegin(p);
        armed_ = true;
    }
    ~ForcedSamplePhase()
    {
        if (armed_)
            exchangePhase(prev_);
    }
    ForcedSamplePhase(const ForcedSamplePhase&) = delete;
    ForcedSamplePhase& operator=(const ForcedSamplePhase&) = delete;

  private:
    Phase prev_ = Phase::Untracked;
    bool armed_ = false;
};

/** Merged totals for one phase. */
struct PhaseTotal {
    std::uint64_t ticks = 0;
    double sec = 0.0;
    bool estimated = false; ///< scaled from a sampled measurement
};

/** Totals of the shard, with sampled phases scaled. */
struct Report {
    double wallSec = 0.0;   ///< steady-clock time since enable()
    double threadSec = 0.0; ///< the shard's measured window
    std::uint64_t totalTicks = 0;
    std::uint64_t namedTicks = 0; ///< totalTicks minus Untracked
    double coverage = 0.0;        ///< namedTicks / totalTicks
    std::size_t threads = 0;      ///< 1 once enabled (manifest field)
    std::uint32_t samplePeriod = 1;
    PhaseTotal phase[kNumPhases];

    bool
    coverageOk() const
    {
        return coverage >= kCoverageFloor;
    }
};

/** Flush the shard and report its totals. */
Report snapshot();

/** The one-line coverage self-audit printed with every manifest. */
std::string coverageLine(const Report& r);

/** Write the wwtcmp.hostprof/1 manifest for @p r. */
void writeManifest(std::ostream& os, const Report& r);

/**
 * snapshot() + manifest to @p path + coverage line to stderr.
 * @return false (with a stderr note) when the file cannot be written.
 */
bool writeManifestFile(const std::string& path);

/** Zero the shard and disable. Test-only. */
void resetForTest();

/**
 * Replace the tick source (nullptr restores the real clock) and zero
 * the shard. Lets tests assert exact tick arithmetic.
 */
void setTickSourceForTest(std::uint64_t (*fn)());

/** Self-resource usage, for campaign records. */
struct Rusage {
    double userSec = 0.0;
    double sysSec = 0.0;
    long maxRssKb = 0;
};

/** getrusage(RUSAGE_SELF) at the call point. */
Rusage selfRusage();

} // namespace wwt::prof
