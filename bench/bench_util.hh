#pragma once

/**
 * @file
 * Shared helpers for the table-reproduction benches.
 *
 * Every bench binary reruns one of the paper's experiments at paper
 * scale (32 simulated processors, Tables 1-3 hardware) and prints the
 * corresponding tables. Pass --small to run a scaled-down version
 * (useful for smoke testing); pass --procs N to change the machine
 * size. All flag parsing lives here so every driver accepts the same
 * flags — including the observability pair:
 *
 *   --trace=FILE      write a Chrome trace-event (catapult) JSON file
 *   --metrics=FILE    write the machine-readable metrics manifest
 *   --host-prof=FILE  write the wwtcmp.hostprof/1 host-time profile
 *                     (simulated results are byte-identical with the
 *                     profiler on or off; see docs/performance.md
 *                     "Host-time profile")
 *   --no-fast-hit     disable the fast-hit filter (bit-identical
 *                     either way; exists for the CI identity gate)
 *   --check-shapes    check measured ratios against the golden-shape
 *                     bands and exit nonzero on drift
 *   --shapes=FILE     golden-shape file (default
 *                     bench/golden_shapes.json)
 *
 * Numeric flags are validated strictly: junk or out-of-range values
 * exit with status 2 and a diagnostic instead of silently running a
 * 0-processor machine. Drivers feed each run into the ArtifactWriter
 * returned by artifacts(): attach() before running, addRun() after
 * collecting the report, then writeArtifacts() once at the end; a
 * driver whose artifacts could not all be written exits 1.
 * Shape-checking drivers obtain a gate via shapeGate(), record()
 * their ratios, and fold finishShapes() into that exit status.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "audit/shapes.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "core/parse.hh"
#include "core/report.hh"
#include "prof/hostprof.hh"

namespace wwt::bench
{

/** Sanity bounds for the machine-size flags. */
constexpr std::size_t kMaxProcs = 4096;

/** Command-line options shared by all benches. */
struct Options {
    bool small = false;
    std::size_t procs = 32;
    bool fastHit = true;      ///< --no-fast-hit clears this
    bool checkShapes = false; ///< --check-shapes
    std::string shapesFile = "bench/golden_shapes.json"; ///< --shapes=FILE
    std::string traceFile;    ///< --trace=FILE (empty = off)
    std::string metricsFile;  ///< --metrics=FILE (empty = off)
    std::string hostProfFile; ///< --host-prof=FILE (empty = off)
};

/** Match `--flag=VALUE` or `--flag VALUE`; advances @p i as needed. */
inline bool
flagValue(int argc, char** argv, int& i, const char* flag,
          std::string& out)
{
    std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0)
        return false;
    if (argv[i][len] == '=') {
        out = argv[i] + len + 1;
        return true;
    }
    if (argv[i][len] == '\0' && i + 1 < argc) {
        out = argv[++i];
        return true;
    }
    return false;
}

inline Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (flagValue(argc, argv, i, "--trace", o.traceFile) ||
            flagValue(argc, argv, i, "--metrics", o.metricsFile) ||
            flagValue(argc, argv, i, "--host-prof", o.hostProfFile) ||
            flagValue(argc, argv, i, "--shapes", o.shapesFile))
            continue;
        if (flagValue(argc, argv, i, "--procs", v)) {
            o.procs = static_cast<std::size_t>(
                core::requireCount("--procs", v, 1, kMaxProcs));
            continue;
        }
        if (std::strcmp(argv[i], "--small") == 0)
            o.small = true;
        else if (std::strcmp(argv[i], "--no-fast-hit") == 0)
            o.fastHit = false;
        else if (std::strcmp(argv[i], "--check-shapes") == 0)
            o.checkShapes = true;
        else {
            std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
            std::exit(2);
        }
    }
    // Arm the profiler here so every bench driver honors the flag;
    // writeArtifacts() writes the manifest.
    if (!o.hostProfFile.empty())
        prof::enable();
    return o;
}

/**
 * The golden-shape gate for @p section: loaded from the golden file
 * when --check-shapes was passed (profile "smoke" under --small,
 * "paper" otherwise), disabled no-op gate when it wasn't.
 */
inline audit::ShapeGate
shapeGate(const Options& o, const std::string& section)
{
    if (!o.checkShapes)
        return audit::ShapeGate{};
    return audit::ShapeGate::fromFile(
        o.shapesFile, o.small ? "smoke" : "paper", section);
}

/**
 * Print the gate's verdicts and convert them to an exit status:
 * 0 when disabled or all bands hold, 1 on any violation.
 */
inline int
finishShapes(const audit::ShapeGate& gate)
{
    if (!gate.enabled())
        return 0;
    return gate.finish(std::cout) == 0 ? 0 : 1;
}

/** The artifact collector configured by --trace/--metrics. */
inline core::ArtifactWriter
artifacts(const Options& o)
{
    return core::ArtifactWriter(o.traceFile, o.metricsFile);
}

/**
 * Write every artifact the flags asked for: the --metrics and --trace
 * files, then the --host-prof manifest (its coverage self-audit line
 * goes to stderr). Each failure names its file on stderr.
 * @return false if any write failed; the driver must then exit 1.
 */
inline bool
writeArtifacts(const Options& o, const core::ArtifactWriter& art)
{
    bool ok = art.write();
    if (!o.hostProfFile.empty())
        ok = prof::writeManifestFile(o.hostProfFile) && ok;
    return ok;
}

/** The paper's machine (Tables 1-3), sized by the options. */
inline core::MachineConfig
paperConfig(const Options& o)
{
    core::MachineConfig cfg = core::MachineConfig::cm5Like();
    cfg.nprocs = o.procs;
    cfg.fastHit = o.fastHit;
    return cfg;
}

inline void
banner(const std::string& title)
{
    std::printf("\n===== %s =====\n", title.c_str());
}

inline void
note(const std::string& text)
{
    std::printf("%s\n", text.c_str());
}

/** Print total cycles and the mutual ratio of a program pair. */
inline void
printPair(const char* name, const core::MachineReport& mp_rep,
          const core::MachineReport& sm_rep)
{
    double mp_t = mp_rep.totalCycles();
    double sm_t = sm_rep.totalCycles();
    std::printf("%s: MP %.1fM cycles, SM %.1fM cycles; "
                "MP relative to SM: %.0f%%\n",
                name, mp_t / 1e6, sm_t / 1e6, 100.0 * mp_t / sm_t);
}

} // namespace wwt::bench
