/**
 * @file
 * Reproduces Tables 12-15: EM3D on both machines, split into
 * initialization and main loop.
 *
 * Paper reference (32 procs, 1000 E + 1000 H nodes/proc, degree 10,
 * 20% remote, 50 iterations):
 *   Table 12 (EM3D-MP): init 20.0M, main 66.5M, total 86.4M;
 *                       50% of shared memory.
 *   Table 14 (EM3D-SM): init 42.1M, main 130.0M, total 172.1M;
 *                       data access 64% of total, locks 6.9M in init.
 *   Table 13 (MP main): 643,436 local misses, 200 channel writes,
 *                       2.0M bytes (1.6M data).
 *   Table 15 (SM main): 330,044 shared misses (319,226 remote),
 *                       24,975 write faults, 22.9M bytes.
 */

#include "apps/em3d.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::Em3dParams p;
    if (o.small) {
        p.nodesPerProc = 128;
        p.degree = 5;
        p.iters = 10;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }
    core::MachineConfig cfg = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);

    banner("Tables 12 & 13: EM3D Message Passing (EM3D-MP)");
    mp::MpMachine mpm(cfg);
    art.attach(mpm.engine());
    apps::Em3dResult mr = apps::runEm3dMp(mpm, p);
    auto mp_rep = core::collectReport(mpm.engine(),
                                      {"Initialization", "Main Loop"});
    art.addRun("em3d-mp", cfg, mpm.engine(), mp_rep);
    std::printf("checksum: %.6f\n", mr.checksum);

    banner("Tables 14 & 15: EM3D Shared Memory (EM3D-SM)");
    sm::SmMachine smm(cfg);
    art.attach(smm.engine());
    apps::Em3dResult sr = apps::runEm3dSm(smm, p);
    auto sm_rep = core::collectReport(smm.engine(),
                                      {"Initialization", "Main Loop"});
    art.addRun("em3d-sm", cfg, smm.engine(), sm_rep);
    std::printf("checksum: %.6f (MP/SM difference %.2e)\n",
                sr.checksum, std::abs(sr.checksum - mr.checksum));

    std::printf("%s\n",
                core::phaseBreakdownTable(
                    "Table 12: EM3D-MP cycle breakdown", mp_rep,
                    core::mpRows())
                    .c_str());
    std::printf("%s\n",
                core::phaseBreakdownTable(
                    "Table 14: EM3D-SM cycle breakdown", sm_rep,
                    core::smRowsDataAccess())
                    .c_str());
    std::printf("%s\n", core::mpCountsTable(
                            "Table 13: EM3D-MP counts (main loop)",
                            mp_rep, 1)
                            .c_str());
    std::printf("%s\n", core::smCountsTable(
                            "Table 15: EM3D-SM counts (main loop)",
                            sm_rep, 1)
                            .c_str());
    printPair("EM3D", mp_rep, sm_rep);
    note("Paper: EM3D-MP at 50% of EM3D-SM (the one decisive win for "
         "message passing).");
    bool wrote = writeArtifacts(o, art);

    audit::ShapeGate gate = shapeGate(o, "em3d");
    gate.record("mp_over_sm",
                mp_rep.totalCycles() / sm_rep.totalCycles());
    double sm_main = sm_rep.totalCycles(1);
    gate.record("sm_main_data_access_share",
                (sm_rep.cycles(stats::Category::LocalMiss, 1) +
                 sm_rep.cycles(stats::Category::SharedMiss, 1) +
                 sm_rep.cycles(stats::Category::WriteFault, 1) +
                 sm_rep.cycles(stats::Category::TlbMiss, 1)) /
                    sm_main);
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
