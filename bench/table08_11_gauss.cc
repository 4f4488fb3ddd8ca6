/**
 * @file
 * Reproduces Tables 8-11: Gaussian elimination on both machines.
 *
 * Paper reference (32 procs, 512 variables):
 *   Table 8 (Gauss-MP): Computation 40.8M (58%), Broadcast/Reduction
 *                       29.8M (42%); total 71.0M; 98% of SM.
 *   Table 9 (Gauss-SM): Computation 39.5M (54%), Cache Misses 16.7M
 *                       (23%), Synchronization 16.1M (22%);
 *                       total 72.7M.
 *   Table 10 (MP):      3,489 local misses, 511 channel writes,
 *                       1534 active messages, 0.7M bytes.
 *   Table 11 (SM):      23,590 shared misses (mostly remote),
 *                       946 write faults, 1.8M bytes.
 */

#include "apps/gauss.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::GaussParams p;
    if (o.small) {
        p.n = 128;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }
    core::MachineConfig cfg = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);

    banner("Tables 8 & 10: Gauss Message Passing (Gauss-MP)");
    mp::MpMachine mpm(cfg);
    art.attach(mpm.engine());
    apps::GaussResult gr = apps::runGaussMp(mpm, p);
    auto mp_rep = core::collectReport(mpm.engine(), {"Init", "Solve"});
    art.addRun("gauss-mp", cfg, mpm.engine(), mp_rep);
    std::printf("solution max error: %.2e\n", gr.maxErr);

    banner("Tables 9 & 11: Gauss Shared Memory (Gauss-SM)");
    sm::SmMachine smm(cfg);
    art.attach(smm.engine());
    apps::GaussResult sr = apps::runGaussSm(smm, p);
    auto sm_rep = core::collectReport(smm.engine(), {"Init", "Solve"});
    art.addRun("gauss-sm", cfg, smm.engine(), sm_rep);
    std::printf("solution max error: %.2e\n", sr.maxErr);

    // The paper's tables cover the solve; report the solve phase.
    double rel = mp_rep.totalCycles(1) / sm_rep.totalCycles(1);
    std::pair<std::string, double> rel8{"Relative to Shared Memory",
                                        rel};
    std::printf("%s\n", core::breakdownTable(
                            "Table 8: Gauss-MP cycle breakdown (solve)",
                            mp_rep, 1, core::mpRows(), &rel8)
                            .c_str());
    std::pair<std::string, double> rel9{"Relative to Message Passing",
                                        1.0 / rel};
    std::printf("%s\n", core::breakdownTable(
                            "Table 9: Gauss-SM cycle breakdown (solve)",
                            sm_rep, 1, core::smRows(), &rel9)
                            .c_str());
    std::printf("%s\n", core::mpCountsTable(
                            "Table 10: Gauss-MP per-processor counts "
                            "(solve)",
                            mp_rep, 1)
                            .c_str());
    std::printf("%s\n", core::smCountsTable(
                            "Table 11: Gauss-SM per-processor counts "
                            "(solve)",
                            sm_rep, 1)
                            .c_str());
    printPair("Gauss (solve)", mp_rep, sm_rep);
    note("Paper: MP at 98% of SM; MP collectives ~42% of time; "
         "SM pays ~23% in contended shared misses.");
    std::printf("SM directory queueing delay: %.1fK cycles total\n",
                smm.protocol().queueDelay() / 1e3);
    bool wrote = writeArtifacts(o, art);

    audit::ShapeGate gate = shapeGate(o, "gauss");
    gate.record("mp_over_sm", rel);
    gate.record("mp_collectives_share",
                (mp_rep.cycles(stats::Category::LibComp, 1) +
                 mp_rep.cycles(stats::Category::LibMiss, 1) +
                 mp_rep.cycles(stats::Category::NetAccess, 1)) /
                    mp_rep.totalCycles(1));
    gate.record("sm_reduction_share",
                sm_rep.cycles(stats::Category::Reduction, 1) /
                    sm_rep.totalCycles(1));
    gate.record("sm_barrier_share",
                sm_rep.cycles(stats::Category::Barrier, 1) /
                    sm_rep.totalCycles(1));
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
