/**
 * @file
 * Command-line runner: execute any of the paper's four applications
 * on either machine with custom parameters and print the breakdown.
 *
 * Usage:
 *   run_app --app mse|gauss|em3d|lcp|alcp --machine mp|sm
 *           [--procs N] [--size N] [--iters N] [--local-alloc]
 *           [--cache-kb N] [--net-gap N] [--tree flat|binary|lop]
 *           [--no-fast-hit]
 *           [--trace FILE] [--metrics FILE] [--host-prof FILE]
 *
 * --no-fast-hit disables the fast-hit filter in front of the cache/TLB
 * model; results are bit-identical either way (CI enforces it — see
 * docs/performance.md), the flag exists for that gate and debugging.
 * --host-prof writes a wwtcmp.hostprof/1 host-time profile (which
 * host-side phase the wall time went to); the simulated results and
 * stdout are byte-identical with it on or off — CI gates that too.
 * See docs/performance.md, "Host-time profile". The artifacts are
 * written before main returns; if any of them cannot be written, the
 * diagnostic names the file and the exit status is 1.
 *
 * This is a thin client of the experiment layer: app dispatch lives
 * in the exp registry (src/exp/registry.hh), shared with the
 * wwtcmp_campaign runner, so a new application needs one registry
 * entry and no CLI changes. For sweeps over many configurations use
 * wwtcmp_campaign (docs/campaigns.md).
 *
 * Examples:
 *   run_app --app em3d --machine sm --procs 16 --cache-kb 1024
 *   run_app --app gauss --machine mp --tree binary
 *   run_app --app em3d --trace em3d.json --metrics em3d-metrics.json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/metrics.hh"
#include "core/parse.hh"
#include "core/report.hh"
#include "exp/registry.hh"
#include "prof/hostprof.hh"

using namespace wwt;

namespace
{

struct Cli {
    std::string app = "em3d";
    std::string machine = "mp";
    std::size_t procs = 32;
    std::size_t size = 0;  // 0 = app default
    std::size_t iters = 0; // 0 = app default
    bool localAlloc = false;
    std::size_t cacheKb = 256;
    bool fastHit = true;
    Cycle netGap = 0;
    std::string tree = "lop";
    std::string traceFile;
    std::string metricsFile;
    std::string hostProfFile;
};

bool
parse(int argc, char** argv, Cli& c)
{
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* what) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", what);
                return nullptr;
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--app")) {
            const char* v = next("--app");
            if (!v)
                return false;
            c.app = v;
        } else if (!std::strcmp(argv[i], "--machine")) {
            const char* v = next("--machine");
            if (!v)
                return false;
            c.machine = v;
        } else if (!std::strcmp(argv[i], "--procs")) {
            const char* v = next("--procs");
            if (!v)
                return false;
            c.procs = static_cast<std::size_t>(
                core::requireCount("--procs", v, 1, 4096));
        } else if (!std::strcmp(argv[i], "--size")) {
            const char* v = next("--size");
            if (!v)
                return false;
            c.size = static_cast<std::size_t>(
                core::requireCount("--size", v, 0, 1u << 30));
        } else if (!std::strcmp(argv[i], "--iters")) {
            const char* v = next("--iters");
            if (!v)
                return false;
            c.iters = static_cast<std::size_t>(
                core::requireCount("--iters", v, 0, 1u << 30));
        } else if (!std::strcmp(argv[i], "--cache-kb")) {
            const char* v = next("--cache-kb");
            if (!v)
                return false;
            c.cacheKb = static_cast<std::size_t>(
                core::requireCount("--cache-kb", v, 1, 1u << 20));
        } else if (!std::strcmp(argv[i], "--net-gap")) {
            const char* v = next("--net-gap");
            if (!v)
                return false;
            c.netGap = static_cast<Cycle>(
                core::requireCount("--net-gap", v, 0, 1u << 20));
        } else if (!std::strcmp(argv[i], "--tree")) {
            const char* v = next("--tree");
            if (!v)
                return false;
            c.tree = v;
        } else if (!std::strcmp(argv[i], "--trace")) {
            const char* v = next("--trace");
            if (!v)
                return false;
            c.traceFile = v;
        } else if (!std::strncmp(argv[i], "--trace=", 8)) {
            c.traceFile = argv[i] + 8;
        } else if (!std::strcmp(argv[i], "--metrics")) {
            const char* v = next("--metrics");
            if (!v)
                return false;
            c.metricsFile = v;
        } else if (!std::strncmp(argv[i], "--metrics=", 10)) {
            c.metricsFile = argv[i] + 10;
        } else if (!std::strcmp(argv[i], "--host-prof")) {
            const char* v = next("--host-prof");
            if (!v)
                return false;
            c.hostProfFile = v;
        } else if (!std::strncmp(argv[i], "--host-prof=", 12)) {
            c.hostProfFile = argv[i] + 12;
        } else if (!std::strcmp(argv[i], "--local-alloc")) {
            c.localAlloc = true;
        } else if (!std::strcmp(argv[i], "--no-fast-hit")) {
            c.fastHit = false;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli c;
    if (!parse(argc, argv, c))
        return 2;
    if (!c.hostProfFile.empty())
        prof::enable();

    exp::LaunchSpec spec;
    spec.app = c.app;
    spec.machine = c.machine;
    spec.cfg = core::MachineConfig::cm5Like();
    spec.cfg.nprocs = c.procs;
    spec.cfg.cache.bytes = c.cacheKb * 1024;
    spec.cfg.netGap = c.netGap;
    spec.cfg.fastHit = c.fastHit;
    if (c.localAlloc)
        spec.cfg.allocPolicy = mem::AllocPolicy::Local;
    spec.req.size = c.size;
    spec.req.iters = c.iters;

    core::ArtifactWriter art(c.traceFile, c.metricsFile);
    exp::LaunchResult res;
    try {
        spec.tree = exp::parseTree(c.tree);
        res = exp::launch(spec, &art, c.app + "-" + c.machine);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (!res.note.empty())
        std::printf("%s\n", res.note.c_str());
    std::printf("%s\n",
                core::phaseBreakdownTable(
                    c.app + " on the " +
                        (res.isMp ? "message-passing"
                                  : "shared-memory") +
                        " machine",
                    res.report,
                    res.isMp ? core::mpRows() : core::smRows())
                    .c_str());
    std::printf("%s\n",
                (res.isMp
                     ? core::mpCountsTable("Per-processor counts",
                                           res.report)
                     : core::smCountsTable("Per-processor counts",
                                           res.report))
                    .c_str());
    std::string hist =
        core::histogramTable("Latency histograms", res.report);
    if (!hist.empty())
        std::printf("%s\n", hist.c_str());
    bool ok = art.write();
    if (!c.hostProfFile.empty())
        ok = prof::writeManifestFile(c.hostProfFile) && ok;
    return ok ? 0 : 1;
}
