/**
 * @file
 * Reproduces the Section 5.2 broadcast/reduction ablation: Gauss-MP
 * with flat, binary-tree, and LogP lop-sided-tree collectives.
 *
 * Paper reference (32 procs, 512 variables): broadcasts + reductions
 * cost 119.3M cycles flat, 40.9M with a binary tree over CMMD
 * messages, and 30.1M with lop-sided trees over active messages and
 * channels. "A node several levels down in a tree (or late in a flat
 * broadcast) waits a long time."
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
    if (o.small)
        p.n = 128;
    core::MachineConfig cfg = paperConfig(o);
    core::ArtifactWriter art = artifacts(o);

    banner("Section 5.2 ablation: Gauss-MP collective implementations");
    struct RowOut {
        const char* name;
        const char* run_name;
        mp::TreeKind kind;
        double comm = 0;
        double total = 0;
    } rows[] = {
        {"Flat", "gauss-mp-flat", mp::TreeKind::Flat, 0, 0},
        {"Binary tree", "gauss-mp-binary", mp::TreeKind::Binary, 0, 0},
        {"Lop-sided tree (LogP)", "gauss-mp-lopsided",
         mp::TreeKind::LopSided, 0, 0},
    };

    for (auto& r : rows) {
        mp::MpMachine m(cfg, r.kind);
        art.attach(m.engine());
        apps::runGaussMp(m, p);
        auto rep = core::collectReport(m.engine(), {"Init", "Solve"});
        art.addRun(r.run_name, cfg, m.engine(), rep);
        r.comm = rep.cycles(stats::Category::LibComp, 1) +
                 rep.cycles(stats::Category::LibMiss, 1) +
                 rep.cycles(stats::Category::NetAccess, 1);
        r.total = rep.totalCycles(1);
        std::printf("%-24s collectives+waiting %7.1fM cycles, "
                    "solve total %7.1fM cycles\n",
                    r.name, r.comm / 1e6, r.total / 1e6);
    }
    note("Paper: 119.3M flat > 40.9M binary > 30.1M lop-sided "
         "(the ordering is the reproduction target).");

    // Also show the tree shapes for reference.
    for (auto kind : {mp::TreeKind::Binary, mp::TreeKind::LopSided}) {
        mp::CommTree t(cfg.nprocs, kind, 60, cfg.netLatency);
        std::printf("%s tree: depth %zu, root fan-out %zu\n",
                    kind == mp::TreeKind::Binary ? "Binary"
                                                 : "Lop-sided",
                    t.depth(), t.children(0).size());
    }
    bool wrote = writeArtifacts(o, art);

    // The reproduction target is the ordering flat > binary > lop;
    // the bands keep the ratios from silently collapsing toward 1.
    audit::ShapeGate gate = shapeGate(o, "gauss_collectives");
    gate.record("flat_over_binary", rows[0].comm / rows[1].comm);
    gate.record("binary_over_lop", rows[1].comm / rows[2].comm);
    int rc = finishShapes(gate);
    return wrote ? rc : 1;
}
