#pragma once

/**
 * @file
 * Machine-readable run artifacts.
 *
 * Every bench/driver prints paper-shaped text tables; this module
 * gives the same data a machine-readable producer so the performance
 * trajectory can be tracked run over run:
 *
 *  - writeMetricsJson(): a run manifest (schema "wwtcmp.metrics/2")
 *    with the machine configuration, per-phase per-category cycles,
 *    event counts, latency histograms, per-processor cycle/count
 *    vectors, and wait timelines for each run in the binary. Readers
 *    (exp/analyze) keep accepting "/1" manifests, which simply lack
 *    the per-processor sections.
 *  - ArtifactWriter: the driver-side helper behind the shared
 *    `--trace=FILE` / `--metrics=FILE` flags. It enables tracing on
 *    each engine, snapshots the flight recorder after every run, and
 *    writes one catapult trace (one trace "process" per run) and one
 *    metrics manifest at the end.
 *
 * Output is byte-deterministic for deterministic simulations: no
 * wall-clock timestamps, fixed key order, round-tripping number
 * formats.
 */

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/report.hh"
#include "trace/tracer.hh"

namespace wwt::core
{

/** Everything the metrics manifest records about one run. */
struct RunMetrics {
    std::string name;
    MachineConfig config;
    MachineReport report;
};

/** Write the manifest for @p runs as JSON. */
void writeMetricsJson(std::ostream& os,
                      const std::vector<RunMetrics>& runs);

/**
 * Create @p path, let @p fill write it, then flush, close and check
 * the stream. A full disk shows only at that last step, so a writer
 * that skips it reports success for a file that was never written.
 * @return false, after a diagnostic on stderr naming the file, if the
 *         file could not be opened or written.
 */
bool writeFileChecked(const std::string& path,
                      const std::function<void(std::ostream&)>& fill);

/** Collects runs and writes the --trace/--metrics artifacts. */
class ArtifactWriter
{
  public:
    /** Empty paths disable the corresponding artifact. */
    ArtifactWriter(std::string trace_path, std::string metrics_path)
        : tracePath_(std::move(trace_path)),
          metricsPath_(std::move(metrics_path))
    {
    }

    /** True if any artifact was requested. */
    bool
    enabled() const
    {
        return !tracePath_.empty() || !metricsPath_.empty();
    }

    /**
     * Enable tracing on @p engine if artifacts were requested. Call
     * after constructing a machine, before running it.
     */
    void attach(sim::Engine& engine) const;

    /** Snapshot one finished run (report + flight recorder). */
    void addRun(std::string name, const MachineConfig& cfg,
                sim::Engine& engine, const MachineReport& rep);

    /**
     * Write the requested files and print one line per file written.
     * @return false if any file could not be opened or written (see
     *         writeFileChecked()); no "written to" line is printed for
     *         that file.
     */
    bool write() const;

  private:
    std::string tracePath_;
    std::string metricsPath_;
    std::vector<RunMetrics> runs_;
    std::vector<std::optional<trace::Tracer>> tracers_;
};

} // namespace wwt::core
