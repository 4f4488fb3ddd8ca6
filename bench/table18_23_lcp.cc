/**
 * @file
 * Reproduces Tables 18-23: the Linear Complementarity Problem,
 * synchronous and asynchronous, on both machines.
 *
 * Paper reference (32 procs, 4096 variables, 5 sweeps/step):
 *   Table 18 (LCP-MP):  Computation 41.1M (73%), Communication 15.6M;
 *                       total 56.8M; 86% of SM.
 *   Table 19 (LCP-SM):  Computation 41.3M, Cache Misses 13.4M,
 *                       Synchronization 11.3M; total 66.0M.
 *   Table 20 (ALCP-MP): Communication balloons to 59.8M (64%);
 *                       total 92.7M — slower despite fewer steps.
 *   Table 21 (ALCP-SM): Cache Misses 62.9M (64%); total 98.7M.
 *   Tables 22/23:       sync 220 channel writes, 1.8M bytes ->
 *                       async 5,425 channel writes, 6.9M bytes (MP);
 *                       shared misses 48k -> 207k (SM).
 *   Steps: 43 synchronous -> 34/35 asynchronous.
 */

#include "apps/lcp.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::LcpParams p;
    if (o.small) {
        p.n = 512;
        p.halfBand = 8;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }
    core::MachineConfig cfg = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);

    struct Run {
        const char* name;
        bool async;
        int mp_table, sm_table;
    } runs[] = {
        {"LCP (synchronous)", false, 18, 19},
        {"ALCP (asynchronous)", true, 20, 21},
    };

    core::MachineReport reps[2][2]; // [sync/async][mp/sm]
    std::size_t steps[2][2] = {};

    for (int v = 0; v < 2; ++v) {
        apps::LcpParams pv = p;
        pv.async = runs[v].async;

        banner(std::string("Tables ") +
               std::to_string(runs[v].mp_table) + " & 22: " +
               runs[v].name + " Message Passing");
        mp::MpMachine mpm(cfg);
        art.attach(mpm.engine());
        apps::LcpResult mr = apps::runLcpMp(mpm, pv);
        reps[v][0] = core::collectReport(mpm.engine(),
                                         {"Init", "Solve"});
        art.addRun(runs[v].async ? "alcp-mp" : "lcp-mp", cfg,
                   mpm.engine(), reps[v][0]);
        steps[v][0] = mr.steps;
        std::printf("steps %zu, complementarity residual %.2e\n",
                    mr.steps, mr.complementarity);

        banner(std::string("Tables ") +
               std::to_string(runs[v].sm_table) + " & 23: " +
               runs[v].name + " Shared Memory");
        sm::SmMachine smm(cfg);
        art.attach(smm.engine());
        apps::LcpResult sr = apps::runLcpSm(smm, pv);
        reps[v][1] = core::collectReport(smm.engine(),
                                         {"Init", "Solve"});
        art.addRun(runs[v].async ? "alcp-sm" : "lcp-sm", cfg,
                   smm.engine(), reps[v][1]);
        steps[v][1] = sr.steps;
        std::printf("steps %zu, complementarity residual %.2e\n",
                    sr.steps, sr.complementarity);

        double rel = reps[v][0].totalCycles(1) /
                     reps[v][1].totalCycles(1);
        std::pair<std::string, double> relmp{
            "Relative to Shared Memory", rel};
        std::printf("%s\n",
                    core::breakdownTable(
                        "Table " + std::to_string(runs[v].mp_table) +
                            ": cycle breakdown (solve)",
                        reps[v][0], 1, core::mpRows(), &relmp)
                        .c_str());
        std::pair<std::string, double> relsm{
            "Relative to Message Passing", 1.0 / rel};
        std::printf("%s\n",
                    core::breakdownTable(
                        "Table " + std::to_string(runs[v].sm_table) +
                            ": cycle breakdown (solve)",
                        reps[v][1], 1, core::smRows(), &relsm)
                        .c_str());
    }

    banner("Table 22: LCP-MP event counts (solve phase)");
    std::printf("%s\n", core::mpCountsTable("Synchronous", reps[0][0],
                                            1)
                            .c_str());
    std::printf("%s\n", core::mpCountsTable("Asynchronous", reps[1][0],
                                            1)
                            .c_str());
    banner("Table 23: LCP-SM event counts (solve phase)");
    std::printf("%s\n", core::smCountsTable("Synchronous", reps[0][1],
                                            1)
                            .c_str());
    std::printf("%s\n", core::smCountsTable("Asynchronous", reps[1][1],
                                            1)
                            .c_str());

    std::printf("steps: sync MP %zu / SM %zu, async MP %zu / SM %zu\n",
                steps[0][0], steps[0][1], steps[1][0], steps[1][1]);
    printPair("LCP sync", reps[0][0], reps[0][1]);
    printPair("ALCP async", reps[1][0], reps[1][1]);
    note("Paper: sync MP at 86% of SM; async variants take fewer "
         "steps, move ~4x the data, and run slower overall.");
    bool wrote = writeArtifacts(o, art);

    audit::ShapeGate gate = shapeGate(o, "lcp");
    gate.record("sync_mp_over_sm", reps[0][0].totalCycles(1) /
                                       reps[0][1].totalCycles(1));
    gate.record("async_mp_over_sm", reps[1][0].totalCycles(1) /
                                        reps[1][1].totalCycles(1));
    stats::Counts sync_c = reps[0][0].counts(1);
    stats::Counts async_c = reps[1][0].counts(1);
    gate.record("mp_async_over_sync_bytes",
                static_cast<double>(async_c.bytesData +
                                    async_c.bytesCtrl) /
                    static_cast<double>(sync_c.bytesData +
                                        sync_c.bytesCtrl));
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
