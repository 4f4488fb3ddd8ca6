/**
 * @file
 * Validation bench: spot-checks the simulated machines' primitive
 * latencies against the Tables 1-3 cost model (the closest available
 * analogue of the paper's validation against a physical CM-5, which
 * found agreement within 27%).
 *
 * Prints measured vs expected cycles for: private miss, NI packet
 * send, one-way packet latency, AM round trip, local and remote
 * shared-memory read misses, write faults, barrier, and atomic swap.
 */

#include "bench/bench_util.hh"
#include "mp/mp_machine.hh"
#include "sm/sm_machine.hh"

using namespace wwt;
using namespace wwt::bench;

namespace
{

int failures = 0;

void
check(const char* what, Cycle measured, Cycle expected)
{
    bool ok = measured == expected;
    if (!ok)
        ++failures;
    std::printf("%-42s measured %6llu expected %6llu  %s\n", what,
                static_cast<unsigned long long>(measured),
                static_cast<unsigned long long>(expected),
                ok ? "ok" : "MISMATCH");
}

} // namespace

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    core::MachineConfig cfg; // Table 1-3 defaults
    cfg.nprocs = 2;
    core::ArtifactWriter art = artifacts(o);

    banner("Message-passing machine (Table 2)");
    {
        mp::MpMachine m(cfg);
        art.attach(m.engine());
        Cycle send = 0, miss = 0, hit = 0;
        m.run([&](mp::MpMachine::Node& n) {
            if (n.id == 0) {
                Addr a = n.mem.alloc(64);
                Cycle t0 = n.proc.now();
                n.mem.read<double>(a); // TLB miss + cache miss
                miss = n.proc.now() - t0;
                t0 = n.proc.now();
                n.mem.read<double>(a + 8);
                hit = n.proc.now() - t0;
                t0 = n.proc.now();
                n.ni.send(1, 0, {}, 0);
                send = n.proc.now() - t0;
            } else {
                n.am.pollUntil([&] { return n.ni.queueDepth() > 0; });
            }
        });
        check("local read miss (TLB+ld+11+DRAM)", miss,
              cfg.tlb.missPenalty + 1 + cfg.privMissBase +
                  cfg.dramAccess);
        check("local read hit", hit, 1);
        check("NI packet injection", send,
              cfg.niWriteTagDest + cfg.niSendWords);
        art.addRun("latency-mp", cfg, m.engine(),
                   core::collectReport(m.engine()));
    }

    banner("Shared-memory machine (Table 3)");
    {
        sm::SmMachine m(cfg);
        art.attach(m.engine());
        Addr remote = 0, local = 0;
        Cycle lmiss = 0, rmiss = 0, wfault = 0, swap = 0;
        m.run([&](sm::SmMachine::Node& n) {
            if (n.id == 0)
                local = n.gmallocLocal(64);
            if (n.id == 1)
                remote = n.gmallocLocal(64);
            n.barrier();
            if (n.id == 0) {
                Cycle t0 = n.proc.now();
                n.rd<double>(local);
                lmiss = n.proc.now() - t0;
                t0 = n.proc.now();
                n.rd<double>(remote);
                rmiss = n.proc.now() - t0;
                t0 = n.proc.now();
                n.wr<double>(remote, 1.0); // upgrade (no sharers)
                wfault = n.proc.now() - t0;
                t0 = n.proc.now();
                n.mem.swap(remote + 8, 7); // exclusive in cache: local
                swap = n.proc.now() - t0;
            }
        });
        Cycle dir_grant =
            cfg.dirBase + cfg.dirMsgSend + cfg.dirBlockSend;
        check("shared read miss, local home", lmiss,
              cfg.tlb.missPenalty + 1 + cfg.smSharedMissBase +
                  2 * cfg.selfLatency + dir_grant);
        check("shared read miss, remote home", rmiss,
              cfg.tlb.missPenalty + 1 + cfg.smSharedMissBase +
                  2 * cfg.netLatency + dir_grant);
        check("write fault, no other sharer", wfault,
              1 + cfg.smSharedMissBase + 2 * cfg.netLatency +
                  cfg.dirBase + cfg.dirMsgSend);
        check("atomic swap on an exclusive block", swap, 1 + 2);
        art.addRun("latency-sm", cfg, m.engine(),
                   core::collectReport(m.engine()));
    }

    banner("Common hardware (Table 1)");
    {
        sm::SmMachine m(cfg);
        Cycle bar = 0;
        m.run([&](sm::SmMachine::Node& n) {
            Cycle t0 = n.proc.now();
            n.barrier();
            bar = n.proc.now() - t0; // both arrive at cycle 0
        });
        check("barrier (simultaneous arrival)", bar,
              cfg.barrierLatency);
    }
    {
        mp::MpMachine m(cfg);
        Cycle oneway = 0;
        m.run([&](mp::MpMachine::Node& n) {
            if (n.id == 0) {
                n.ni.send(1, 0, {}, 0);
            } else {
                n.am.pollUntil([&] { return n.ni.queueDepth() > 0; });
                oneway = n.proc.now();
            }
        });
        std::printf("%-42s measured %6llu (>= %llu: latency + "
                    "polling grain)\n",
                    "one-way packet observation",
                    static_cast<unsigned long long>(oneway),
                    static_cast<unsigned long long>(cfg.netLatency));
        if (oneway < cfg.netLatency)
            ++failures;
    }

    std::printf("\n%d mismatches\n", failures);
    bool wrote = writeArtifacts(o, art);
    return failures == 0 && wrote ? 0 : 1;
}
