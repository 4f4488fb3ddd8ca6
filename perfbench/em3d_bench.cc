/**
 * @file
 * EM3D program of the repository benchmark (perfbench/run.py).
 *
 * Runs one EM3D simulation through the public layer entry points and
 * times each layer call on its own:
 *
 *   setup    - the SmMachine / MpMachine constructor;
 *   simulate - apps::runEm3dSm / runEm3dMp on that machine;
 *   report   - core::collectReport, which re-runs the audit sweeps.
 *
 * One simulation per process, as run_app and every campaign child do,
 * so each one starts from the same state. --setup-only builds the
 * machine, prints its construction time (wall and CPU) and exits.
 * With --host-prof the simulation runs under the host profiler and
 * its wwtcmp.hostprof/1 manifest covers exactly the simulate span.
 *
 * Oracle: the E and H values are compared with a plain host-side
 * sweep over Em3dGraph::make with the same seed (tolerance 1e-9; the
 * simulated programs sum in a different order), and an audit that
 * throws fails the simulation. The report is written as a
 * wwtcmp.metrics/2 manifest, which run.py compares with the other
 * simulations of the run and with the recorded reference statistics.
 *
 * Output: one JSON object on stdout. Span times are CLOCK_MONOTONIC
 * seconds (std::chrono::steady_clock), the clock Python's
 * time.monotonic() reads, so run.py can nest them under its own spans.
 * Each span also carries "cpu": the process CPU seconds
 * (CLOCK_PROCESS_CPUTIME_ID) it took, which leaves out time the
 * process waited for a core or the VM's vCPU was stolen by its host.
 *
 * Usage:
 *   em3d_bench --machine sm|mp --out DIR [--seed N] [--iters N]
 *              [--procs N] [--nodes N] [--cache-kb N] [--host-prof]
 *              [--perturb]
 *   em3d_bench --machine sm|mp --setup-only [--procs N] [--cache-kb N]
 *
 * --perturb adds 1e-6 to one E value before the oracle compares it;
 * it exists so the benchmark's tests can prove the oracle fires.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <time.h>

#include "apps/em3d.hh"
#include "core/metrics.hh"
#include "core/parse.hh"
#include "core/report.hh"
#include "prof/hostprof.hh"

using namespace wwt;

namespace
{

constexpr double kTolerance = 1e-9;

struct Cli {
    std::string machine;
    std::string outDir;
    std::uint64_t seed = 42;
    std::size_t iters = 10;
    std::size_t procs = 32;
    std::size_t nodes = 1000;
    std::size_t cacheKb = 256;
    bool setupOnly = false;
    bool hostProf = false;
    bool perturb = false;
};

bool
parse(int argc, char** argv, Cli& c)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--host-prof") {
            c.hostProf = true;
            continue;
        }
        if (a == "--perturb") {
            c.perturb = true;
            continue;
        }
        if (a == "--setup-only") {
            c.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            return false;
        }
        const char* v = argv[++i];
        if (a == "--machine")
            c.machine = v;
        else if (a == "--out")
            c.outDir = v;
        else if (a == "--seed")
            c.seed = core::requireCount("--seed", v, 0, UINT64_MAX);
        else if (a == "--iters")
            c.iters = core::requireCount("--iters", v, 1, 1u << 20);
        else if (a == "--procs")
            c.procs = core::requireCount("--procs", v, 1, 4096);
        else if (a == "--nodes")
            c.nodes = core::requireCount("--nodes", v, 1, 1u << 24);
        else if (a == "--cache-kb")
            c.cacheKb = core::requireCount("--cache-kb", v, 1, 1u << 20);
        else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            return false;
        }
    }
    if (c.machine != "sm" && c.machine != "mp") {
        std::fprintf(stderr, "--machine must be sm or mp\n");
        return false;
    }
    if (c.outDir.empty() && !c.setupOnly) {
        std::fprintf(stderr, "--out is required\n");
        return false;
    }
    return true;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (user + system, all threads). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
    const char* name;
    double start, end;
    double cpu;
};

/** Times one span, wall and CPU; stop() appends it to @p out. */
struct SpanTimer {
    const char* name;
    double t0 = now();
    double c0 = cpuNow();

    void stop(std::vector<Span>& out) const
    {
        double c1 = cpuNow();
        out.push_back({name, t0, now(), c1 - c0});
    }
};

/** Host-side EM3D: the same affine update, in plain edge order. */
void
hostSweep(const apps::Em3dParams& p, std::size_t nprocs,
          std::vector<double>& e, std::vector<double>& h)
{
    apps::Em3dGraph g = apps::Em3dGraph::make(p, nprocs);
    const std::size_t n = g.nNodes;
    e.assign(nprocs * n, 1.0);
    h.assign(nprocs * n, 1.0);
    std::vector<double> acc(nprocs * n);
    auto half = [&](const std::vector<apps::Em3dEdge>& edges,
                    const std::vector<double>& src,
                    std::vector<double>& dst) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (const apps::Em3dEdge& ed : edges)
            acc[ed.tp * n + ed.ti] += ed.w * src[ed.sp * n + ed.si];
        for (std::size_t i = 0; i < dst.size(); ++i)
            dst[i] = 0.2 + acc[i];
    };
    for (std::size_t t = 0; t < p.iters; ++t) {
        half(g.hToE, h, e);
        half(g.eToH, e, h);
    }
}

double
maxAbsDiff(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        return INFINITY;
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

/** JSON string literal for an error message. */
std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
    }
    return out + "\"";
}

/** Build one machine, simulate, report, check; print one JSON line. */
template <typename Machine>
int
simulate(const Cli& cli, const core::MachineConfig& cfg,
         apps::Em3dResult (*run)(Machine&, const apps::Em3dParams&))
{
    std::vector<Span> spans;
    SpanTimer setup{"setup"};
    auto m = std::make_unique<Machine>(cfg);
    setup.stop(spans);
    if (cli.setupOnly) {
        std::printf("{\"setup_s\": %.9f, \"cpu_s\": %.9f}\n",
                    spans[0].end - spans[0].start, spans[0].cpu);
        return 0;
    }

    apps::Em3dParams params;
    params.nodesPerProc = cli.nodes;
    params.iters = cli.iters;
    params.seed = cli.seed;

    std::string error;
    double err = 0;
    try {
        if (cli.hostProf)
            prof::enable();
        SpanTimer simulate{"simulate"};
        apps::Em3dResult res = run(*m, params);
        simulate.stop(spans);
        if (cli.hostProf) {
            if (!prof::writeManifestFile(cli.outDir + "/hostprof.json"))
                throw std::runtime_error("cannot write hostprof manifest");
            prof::disable();
        }

        SpanTimer report{"report"};
        core::MachineReport rep =
            core::collectReport(m->engine(), {"Init", "Main"});
        report.stop(spans);

        std::vector<double> refE, refH;
        hostSweep(params, cli.procs, refE, refH);
        if (cli.perturb && !res.eVals.empty())
            res.eVals[0] += 1e-6;
        err = std::max(maxAbsDiff(res.eVals, refE),
                       maxAbsDiff(res.hVals, refH));
        if (!(err <= kTolerance))
            error = "E/H values differ from the host sweep";

        std::ofstream f(cli.outDir + "/metrics.json");
        core::writeMetricsJson(
            f, {core::RunMetrics{"em3d-" + cli.machine, cfg, rep}});
        if (!f)
            throw std::runtime_error("cannot write metrics manifest");
    } catch (const std::exception& e) {
        error = e.what();
    }

    std::printf("{\"ok\": %s, \"error\": %s, \"max_abs_err\": %.17g, "
                "\"spans\": [",
                error.empty() ? "true" : "false", quote(error).c_str(),
                std::isfinite(err) ? err : 1e300);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::printf("%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"cpu\": %.9f}",
                    i ? ", " : "", spans[i].name, spans[i].start,
                    spans[i].end, spans[i].cpu);
    }
    std::printf("]}\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    if (!parse(argc, argv, cli))
        return 2;
    core::MachineConfig cfg = core::MachineConfig::cm5Like();
    cfg.nprocs = cli.procs;
    cfg.cache.bytes = cli.cacheKb * 1024;
    if (cli.machine == "sm")
        return simulate<sm::SmMachine>(cli, cfg, apps::runEm3dSm);
    return simulate<mp::MpMachine>(cli, cfg, apps::runEm3dMp);
}
