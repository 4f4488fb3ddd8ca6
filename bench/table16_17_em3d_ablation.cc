/**
 * @file
 * Reproduces Tables 16 & 17: the EM3D-SM ablations.
 *
 *   Table 16: with a 1 MB cache the main loop drops from 130.0M to
 *             61.0M cycles — below EM3D-MP — because the working set
 *             fits and capacity misses vanish.
 *   Table 17: with local (instead of round-robin) page homing the
 *             main loop drops to 86.3M cycles; remote misses fall
 *             from 97% of misses to ~10%.
 */

#include "apps/em3d.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

namespace
{

core::MachineReport
runVariant(const char* title, const core::MachineConfig& cfg,
           const apps::Em3dParams& p, core::ArtifactWriter& art,
           const char* run_name)
{
    sm::SmMachine m(cfg);
    art.attach(m.engine());
    apps::runEm3dSm(m, p);
    auto rep = core::collectReport(m.engine(),
                                   {"Initialization", "Main Loop"});
    art.addRun(run_name, cfg, m.engine(), rep);
    std::printf("%s\n",
                core::phaseBreakdownTable(title, rep,
                                          core::smRowsDataAccess())
                    .c_str());
    auto c = rep.counts(1);
    std::printf("main-loop misses: %.0f shared "
                "(%.0f%% remote), write faults %.0f\n\n",
                rep.perProc(c.sharedMissLocal + c.sharedMissRemote),
                100.0 * c.sharedMissRemote /
                    std::max<std::uint64_t>(
                        1, c.sharedMissLocal + c.sharedMissRemote),
                rep.perProc(c.writeFaults));
    return rep;
}

/** Fraction of main-loop shared misses whose home is remote. */
double
remoteMissShare(const core::MachineReport& rep)
{
    auto c = rep.counts(1);
    return static_cast<double>(c.sharedMissRemote) /
           std::max<std::uint64_t>(1, c.sharedMissLocal +
                                          c.sharedMissRemote);
}

} // namespace

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::Em3dParams p;
    if (o.small) {
        p.nodesPerProc = 256;
        p.degree = 8;
        p.iters = 10;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }

    core::MachineConfig base = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);
    auto base_rep =
        runVariant("EM3D-SM baseline (256 KB cache, round-robin)", base,
                   p, art, "em3d-sm-baseline");

    core::MachineConfig big = base;
    big.cache.bytes = 1024 * 1024;
    auto big_rep = runVariant("Table 16: EM3D-SM with a 1 MB cache",
                              big, p, art, "em3d-sm-1mb-cache");

    core::MachineConfig local = base;
    local.allocPolicy = mem::AllocPolicy::Local;
    auto local_rep =
        runVariant("Table 17: EM3D-SM with local allocation", local, p,
                   art, "em3d-sm-local-alloc");

    note("Paper: main loop 130.0M baseline; 61.0M with 1 MB cache; "
         "86.3M with local allocation (remote misses 97% -> 10%).");
    bool wrote = writeArtifacts(o, art);

    audit::ShapeGate gate = shapeGate(o, "em3d_ablation");
    gate.record("big_cache_over_baseline",
                big_rep.totalCycles(1) / base_rep.totalCycles(1));
    gate.record("local_alloc_over_baseline",
                local_rep.totalCycles(1) / base_rep.totalCycles(1));
    gate.record("baseline_remote_miss_share",
                remoteMissShare(base_rep));
    gate.record("local_alloc_remote_miss_share",
                remoteMissShare(local_rep));
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
