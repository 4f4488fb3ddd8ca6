/**
 * @file
 * Reproduces Tables 4-7: Microstructure Electrostatics (MSE) on both
 * machines — cycle breakdowns and per-processor event counts.
 *
 * Paper reference (32 procs, 256 bodies x 20 elements, 20 iterations):
 *   Table 4 (MSE-MP):  Computation 1115.9M (90%), Local Misses 53.6M,
 *                      Communication 71.6M (6%); total 1241.1M;
 *                      98% of shared memory.
 *   Table 5 (MSE-SM):  Computation 1043.8M (82%), Cache Misses 62.7M,
 *                      Synchronization 161.3M (13%); total 1267.8M.
 *   Table 6 (MSE-MP):  2.4M local misses, 1271 messages, 1.1M bytes.
 *   Table 7 (MSE-SM):  2.5M private misses, 0.04M shared misses,
 *                      774 write faults, 2.4M bytes.
 */

#include "apps/mse.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::MseParams p;
    if (o.small) {
        p.bodies = 32;
        p.elemsPerBody = 8;
        p.iters = 8;
        p.geomInitCycles = 2'000'000;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }
    core::MachineConfig cfg = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);

    banner("Tables 4 & 6: MSE Message Passing (MSE-MP)");
    mp::MpMachine mpm(cfg);
    art.attach(mpm.engine());
    apps::MseResult mr = apps::runMseMp(mpm, p);
    auto mp_rep = core::collectReport(mpm.engine(), {"Init", "Main"});
    art.addRun("mse-mp", cfg, mpm.engine(), mp_rep);
    std::printf("solution max error vs ones: %.2e\n",
                mr.maxErrFromOnes);

    banner("Tables 5 & 7: MSE Shared Memory (MSE-SM)");
    sm::SmMachine smm(cfg);
    art.attach(smm.engine());
    apps::MseResult sr = apps::runMseSm(smm, p);
    auto sm_rep = core::collectReport(smm.engine(), {"Init", "Main"});
    art.addRun("mse-sm", cfg, smm.engine(), sm_rep);
    std::printf("solution max error vs ones: %.2e\n",
                sr.maxErrFromOnes);

    double rel_mp = mp_rep.totalCycles() / sm_rep.totalCycles();
    std::pair<std::string, double> rel4{"Relative to Shared Memory",
                                        rel_mp};
    std::printf("%s\n",
                core::breakdownTable("Table 4: MSE-MP cycle breakdown",
                                     mp_rep, -1, core::mpRows(), &rel4)
                    .c_str());
    std::pair<std::string, double> rel5{"Relative to Message Passing",
                                        1.0 / rel_mp};
    std::printf("%s\n",
                core::breakdownTable("Table 5: MSE-SM cycle breakdown",
                                     sm_rep, -1, core::smRows(), &rel5)
                    .c_str());
    std::printf("%s\n", core::mpCountsTable(
                            "Table 6: MSE-MP per-processor counts",
                            mp_rep)
                            .c_str());
    std::printf("%s\n", core::smCountsTable(
                            "Table 7: MSE-SM per-processor counts",
                            sm_rep)
                            .c_str());
    printPair("MSE", mp_rep, sm_rep);
    note("Paper: MP at 98% of SM; computation >= 82% on both.");
    bool wrote = writeArtifacts(o, art);

    audit::ShapeGate gate = shapeGate(o, "mse");
    gate.record("mp_over_sm", rel_mp);
    gate.record("mp_comp_share",
                mp_rep.cycles(stats::Category::Computation) /
                    mp_rep.totalCycles());
    gate.record("sm_comp_share",
                sm_rep.cycles(stats::Category::Computation) /
                    sm_rep.totalCycles());
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
