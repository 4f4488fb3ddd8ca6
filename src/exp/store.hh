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
 *   <dir>/leases/         scenario leases for cooperating workers
 *                         (svc/lease.hh; empty in single-runner mode)
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
 * it is never read, only discarded (discardPartial). In
 * multi-worker mode (`--workers`) every cooperating runner keeps the
 * same invariant by appending to its own shard file,
 * results.<worker>.jsonl; readers fold *all* results files. Within
 * one file the *last* record per scenario id wins (resume semantics);
 * across files a passing record beats a non-passing one and ties keep
 * the earliest file in fold order (results.jsonl first, then worker
 * shards sorted by name) — a re-issued claim that
 * eventually passed must win over the dead worker's timeout, and a
 * benign duplicate execution (lease-steal race) carries bit-identical
 * results either way, the simulator being deterministic.
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

    /**
     * Cooperating-worker mode: this process appends to its own shard
     * file, results.<name>.jsonl, keeping the single-writer-per-file
     * invariant. @p name must be [A-Za-z0-9_-].
     * @throws std::runtime_error on an unsafe name.
     */
    void setWorker(const std::string& name);
    const std::string& worker() const { return worker_; }

    /** True if the directory already holds any results file. */
    bool exists() const;

    /** Create the directory layout (idempotent).
     *  @throws std::runtime_error when a directory cannot be made. */
    void create() const;

    /** Append one validated record (this process's shard only).
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
     * Load every results file folded to the latest record per
     * scenario id (fold rules in the file comment above). Returns an
     * empty map when no results file exists. A malformed *final* line
     * of any file (interrupted append) is skipped with a warning on
     * stderr; a malformed line anywhere earlier is corruption.
     * @throws std::runtime_error on an interior malformed line.
     */
    std::map<std::string, RunRecord> loadLatest() const;

    /** Every existing results file of this store, sorted by name
     *  (results.jsonl first, then the worker shards). */
    std::vector<std::string> resultsFiles() const;

    /**
     * Scan one results file in line order, invoking @p cb with the
     * 1-based line number and each parsed record. Same malformed-line
     * policy as loadLatest(). Shared with svc::CacheIndex so every
     * reader tolerates exactly the same store states.
     */
    static void
    scanResultsFile(const std::string& path,
                    const std::function<void(std::size_t, RunRecord&&)>&
                        cb);

    /**
     * True when @p s can be skipped on resume: its latest record
     * passed and the config hash still matches.
     */
    bool satisfiedBy(const std::map<std::string, RunRecord>& latest,
                     const Scenario& s) const;

    /** The file *this* process appends to (worker-aware). */
    std::string resultsPath() const
    {
        return worker_.empty() ? dir_ + "/results.jsonl"
                               : dir_ + "/results." + worker_ +
                                     ".jsonl";
    }
    std::string leasesDir() const { return dir_ + "/leases"; }
    std::string logPath(const std::string& id) const
    {
        return dir_ + "/logs/" + id + ".log";
    }
    std::string metricsPath(const std::string& id) const
    {
        return dir_ + "/metrics/" + id + ".json";
    }
    /** Published record of @p id. Worker mode adds ".<worker>", so
     *  a duplicate execution on another worker never shares it. */
    std::string tmpRecordPath(const std::string& id) const
    {
        return tmpStem(id) + ".json";
    }
    /** The same record while its child is still writing it. */
    std::string tmpPartialPath(const std::string& id) const
    {
        return tmpStem(id) + ".partial";
    }
    std::string hostprofPath(const std::string& id) const
    {
        return dir_ + "/hostprof/" + id + ".json";
    }

  private:
    std::string tmpStem(const std::string& id) const
    {
        return dir_ + "/tmp/" + id +
               (worker_.empty() ? "" : "." + worker_);
    }

    std::string dir_;
    std::string worker_; ///< empty = classic single-runner mode
};

} // namespace wwt::exp
