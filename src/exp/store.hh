#pragma once

/**
 * @file
 * The campaign result store.
 *
 * A campaign directory holds everything one campaign execution
 * produced:
 *
 *   <dir>/results.jsonl   one JSON record per finished run attempt
 *   <dir>/logs/<id>.log   child stdout+stderr, one file per scenario
 *   <dir>/metrics/<id>.json  full wwtcmp.metrics/2 manifest per run
 *   <dir>/hostprof/<id>.json  wwtcmp.hostprof/1 host-time profile
 *                         (only when the campaign ran --host-prof)
 *   <dir>/tmp/            in-flight records only: <id>.partial while
 *                         a child writes, <id>.json once it published
 *
 * Records (schema "wwtcmp.campaign-record/1") carry the scenario id,
 * the scenario's config hash, the scenario's config key/value pairs
 * (an additive field — readers of older stores simply see it empty),
 * the pass/fail/crash/timeout status, the per-category cycle
 * breakdown and event counts, the path of the metrics manifest, and
 * host-side resource use (wall/user/sys seconds and peak RSS, plus a
 * host-phase breakdown when --host-prof was on) — all additive keys;
 * readers of older stores see zeros/empty.
 * Only the parent process appends to results.jsonl, so the file needs
 * no locking. Children hand their record back through tmp/ by
 * write-then-rename (publishRecord); the parent takes it after reaping
 * the child (takeRecord) and validates it before adopting it. A
 * <id>.partial left after a reap means the child died mid-publish;
 * it is never read, only discarded (discardPartial). Every reader
 * folds the one results file by one rule: the *last* record per
 * scenario id wins (resume appends supersede).
 *
 * Stores written by the removed sharded workers may also hold
 * results.<worker>.jsonl shard files. Their records cannot be folded
 * into results.jsonl without the old cross-file rules, so scan()
 * refuses such a store with an error naming the shard rather than
 * silently reading half of it. A leftover leases/ directory is
 * ignored.
 *
 * A *trailing* malformed line (the process died mid-append, the disk
 * filled) is tolerated with a warning and skipped; a malformed line
 * anywhere else is a hard error, because nothing benign produces one.
 *
 * Resume contract: a scenario is skipped iff its latest record has
 * status "pass" AND the stored config hash matches the scenario's
 * current hash — editing the campaign file invalidates exactly the
 * records whose scenarios changed.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hh"
#include "exp/scenario.hh"

namespace wwt::exp
{

/** Terminal status of one scenario execution. */
enum class RunStatus : std::uint8_t {
    Pass,    ///< ran to completion, audits and shape bands hold
    Fail,    ///< deterministic failure (AuditError, shape drift)
    Crash,   ///< child died on a signal and retries ran out
    Timeout, ///< child exceeded its wall-clock budget, retries out
};

const char* runStatusName(RunStatus s);

/** One line of results.jsonl. */
struct RunRecord {
    std::string scenario;
    std::string configHash;
    RunStatus status = RunStatus::Pass;
    int attempts = 1;
    std::string app;
    std::string machine;
    /** Scenario::configKeyValues() at run time; empty in old stores. */
    std::vector<std::pair<std::string, std::string>> config;
    double elapsedCycles = 0;        ///< simulated clock at the end
    double totalCyclesPerProc = 0;   ///< per-proc average total
    /** Per-category per-proc cycles, snake_case key order. */
    std::vector<std::pair<std::string, double>> cycles;
    /** Summed event counts (subset that the diff verb compares). */
    std::vector<std::pair<std::string, double>> counts;
    std::string metricsPath; ///< relative to the campaign dir; may be ""
    int shapeViolations = 0;
    std::string error; ///< diagnostic for fail/crash/timeout
    // Host-side resource use (additive keys; zero in old stores).
    // These are top-level record fields, NOT entries of `cycles` or
    // `counts`: the diff verb compares those maps key-by-key against
    // simulated baselines, and host timings legitimately differ
    // between byte-identical runs.
    double wallSec = 0;  ///< steady-clock wall time of the run
    double userSec = 0;  ///< getrusage user CPU seconds
    double sysSec = 0;   ///< getrusage system CPU seconds
    double maxRssKb = 0; ///< getrusage peak resident set, KB
    /** Host-profiler seconds per phase (empty unless --host-prof). */
    std::vector<std::pair<std::string, double>> hostPhases;
    // Cache-hit provenance (svc/cache_index.hh). A cached record is a
    // verbatim copy of a proven passing record for the same config
    // hash: the simulated fields (cycles, counts, hashes) are the
    // original's, the host timings are zeroed (nothing ran here), and
    // these fields say exactly where the numbers came from — the
    // LAMMPS-note rule (docs/campaigns.md). The keys are emitted only
    // when cached is true, so executed records keep their exact
    // pre-provenance byte layout.
    bool cached = false;        ///< true = served from the cache index
    std::string cacheSource;    ///< results file the hit came from
    std::uint64_t cacheLine = 0;   ///< 1-based line in cacheSource
    double cacheWallSec = 0;    ///< wall time of the original run

    /** Serialize as one compact JSON line (no trailing newline). */
    std::string toJsonLine() const;

    /** Parse one results.jsonl line.
     *  @throws std::runtime_error on malformed input. */
    static RunRecord fromJsonLine(const std::string& line);

    /** Fill breakdown fields from a finished report. */
    void setReport(const core::MachineReport& rep);
};

/** A campaign directory. */
class Store
{
  public:
    explicit Store(std::string dir) : dir_(std::move(dir)) {}

    const std::string& dir() const { return dir_; }

    /** True if the directory already holds results.jsonl. */
    bool exists() const;

    /** Create the directory layout (idempotent).
     *  @throws std::runtime_error when a directory cannot be made. */
    void create() const;

    /** Append one validated record to results.jsonl.
     *  @throws std::runtime_error when the line cannot be written
     *  (full disk included). */
    void append(const RunRecord& rec) const;

    /**
     * Child side of the record handoff: write @p line to
     * tmpPartialPath(@p id), check the write and the close, then
     * rename it to tmpRecordPath(@p id). No fsync: the parent reads
     * the file on the same kernel after waitpid, so the rename alone
     * makes the handoff atomic against a child crash.
     * @throws std::runtime_error on failure, leaving neither file.
     */
    void publishRecord(const std::string& id,
                       const std::string& line) const;

    /** Parent side, after the reap: the record line the child
     *  published for @p id, removed from tmp/; nullopt when there is
     *  none. A .partial file is never taken. */
    std::optional<std::string> takeRecord(const std::string& id) const;

    /** Remove an abandoned tmp/<id>.partial; true if there was one. */
    bool discardPartial(const std::string& id) const;

    /**
     * Scan results.jsonl in line order, invoking @p cb with the
     * 1-based line number and each parsed record; a missing file
     * scans nothing. A malformed *final* line (interrupted append) is
     * skipped with a warning on stderr; a malformed line anywhere
     * earlier is corruption. Every reader (loadLatest, svc::CacheIndex)
     * goes through here, so all of them accept exactly the same store
     * states.
     * @throws std::runtime_error on an interior malformed line, or
     *         when the store holds a worker shard file (file comment).
     */
    void scan(const std::function<void(std::size_t, RunRecord&&)>& cb)
        const;

    /** scan() folded to the latest record per scenario id; empty
     *  when there is no results file. Same errors as scan(). */
    std::map<std::string, RunRecord> loadLatest() const;

    /**
     * True when @p s can be skipped on resume: its latest record
     * passed and the config hash still matches.
     */
    bool satisfiedBy(const std::map<std::string, RunRecord>& latest,
                     const Scenario& s) const;

    std::string resultsPath() const { return dir_ + "/results.jsonl"; }
    std::string logPath(const std::string& id) const
    {
        return dir_ + "/logs/" + id + ".log";
    }
    std::string metricsPath(const std::string& id) const
    {
        return dir_ + "/metrics/" + id + ".json";
    }
    /** Published record of @p id. */
    std::string tmpRecordPath(const std::string& id) const
    {
        return dir_ + "/tmp/" + id + ".json";
    }
    /** The same record while its child is still writing it. */
    std::string tmpPartialPath(const std::string& id) const
    {
        return dir_ + "/tmp/" + id + ".partial";
    }
    std::string hostprofPath(const std::string& id) const
    {
        return dir_ + "/hostprof/" + id + ".json";
    }

  private:
    std::string dir_;
};

} // namespace wwt::exp
