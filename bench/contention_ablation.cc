/**
 * @file
 * Extension bench: how sensitive are the paper's results to the
 * contention-free network assumption?
 *
 * The paper (Section 3) notes that LAPSE models network contention
 * while this study does not. This ablation enables the LAPSE-style
 * link-occupancy model (MachineConfig::netGap: minimum spacing
 * between packets on one node's link) and sweeps the gap for the two
 * most communication-intensive programs. A CM-5 data-network link
 * moves ~20 MB/s against a 33 MHz clock, i.e. a 20-byte packet
 * occupies a link for roughly 30 cycles — the middle of the sweep.
 */

#include "apps/em3d.hh"
#include "apps/gauss.hh"
#include "bench/bench_util.hh"

using namespace wwt;
using namespace wwt::bench;

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    apps::Em3dParams ep;
    apps::GaussParams gp;
    if (o.small) {
        ep.nodesPerProc = 128;
        ep.degree = 5;
        ep.iters = 10;
        gp.n = 128;
        o.procs = std::min<std::size_t>(o.procs, 8);
    }

    core::ArtifactWriter art = artifacts(o);

    banner("Sensitivity to the contention-free network assumption");
    std::printf("%10s %16s %16s %16s\n", "link gap", "EM3D-MP (M)",
                "Gauss-MP (M)", "EM3D-SM (M)");
    for (Cycle gap : {0, 30, 100}) {
        core::MachineConfig cfg = paperConfig(o);
        cfg.netGap = gap;
        std::string suffix = "-gap" + std::to_string(gap);

        mp::MpMachine m1(cfg);
        art.attach(m1.engine());
        apps::runEm3dMp(m1, ep);
        auto r1 = core::collectReport(m1.engine());
        art.addRun("em3d-mp" + suffix, cfg, m1.engine(), r1);
        double em3d_mp = r1.totalCycles();

        mp::MpMachine m2(cfg);
        art.attach(m2.engine());
        apps::runGaussMp(m2, gp);
        auto r2 = core::collectReport(m2.engine());
        art.addRun("gauss-mp" + suffix, cfg, m2.engine(), r2);
        double gauss_mp = r2.totalCycles();

        sm::SmMachine m3(cfg);
        art.attach(m3.engine());
        apps::runEm3dSm(m3, ep);
        auto r3 = core::collectReport(m3.engine());
        art.addRun("em3d-sm" + suffix, cfg, m3.engine(), r3);
        double em3d_sm = r3.totalCycles();

        std::printf("%10llu %16.1f %16.1f %16.1f\n",
                    static_cast<unsigned long long>(gap),
                    em3d_mp / 1e6, gauss_mp / 1e6, em3d_sm / 1e6);
    }
    note("gap 0 = the paper's assumption; ~30 approximates a CM-5 "
         "link. If the rows barely move, the paper's no-contention "
         "simplification was safe for these programs.");
    return writeArtifacts(o, art) ? 0 : 1;
}
