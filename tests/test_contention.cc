/**
 * @file
 * Tests for the optional network-contention extension (the paper
 * assumes a contention-free network; LAPSE-style link occupancy can
 * be enabled with MachineConfig::netGap).
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "mp/mp_machine.hh"
#include "net/network.hh"

using namespace wwt;

TEST(Contention, OffByDefaultMatchesConstantLatency)
{
    sim::Engine e(2);
    net::Network n(e, 100, 10);
    EXPECT_EQ(n.gap(), 0u);
    std::vector<Cycle> arrivals;
    e.setBody(0, [&] {
        sim::Processor& p = e.proc(0);
        for (int i = 0; i < 5; ++i)
            arrivals.push_back(n.deliver(p.now(), 0, 1, [] {}));
        p.charge(1);
    });
    e.run();
    for (Cycle a : arrivals)
        EXPECT_EQ(a, 100u); // all burst packets land together
}

TEST(Contention, GapSpacesBursts)
{
    sim::Engine e(2);
    net::Network n(e, 100, 10, /*gap=*/8);
    std::vector<Cycle> arrivals;
    e.setBody(0, [&] {
        sim::Processor& p = e.proc(0);
        for (int i = 0; i < 5; ++i)
            arrivals.push_back(n.deliver(p.now(), 0, 1, [] {}));
        p.charge(1);
    });
    e.run();
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 8) << i;
    EXPECT_GE(arrivals[0], 100u);
}

TEST(Contention, ConvergingTrafficQueuesAtReceiver)
{
    // Two senders bursting at one receiver: with a gap, the
    // receiver-side link serializes the interleaved arrivals.
    sim::Engine e(3);
    net::Network n(e, 100, 10, 8);
    std::vector<Cycle> arrivals;
    for (NodeId s = 0; s < 2; ++s) {
        e.setBody(s, [&, s] {
            sim::Processor& p = e.proc(s);
            for (int i = 0; i < 3; ++i)
                arrivals.push_back(n.deliver(p.now(), s, 2, [] {}));
            p.charge(1);
        });
    }
    e.setBody(2, [&] { e.proc(2).charge(1); });
    e.run();
    std::sort(arrivals.begin(), arrivals.end());
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 8) << i;
}

TEST(Contention, SlowsBulkTransfersEndToEnd)
{
    auto elapsed = [](Cycle gap) {
        core::MachineConfig cfg;
        cfg.nprocs = 4;
        cfg.netGap = gap;
        mp::MpMachine m(cfg);
        m.run([&](mp::MpMachine::Node& n) {
            Addr buf = n.mem.alloc(4096);
            if (n.id != 0)
                n.chans.openStatic(7 + n.id, buf, 4096);
            n.barrier();
            if (n.id == 0) {
                // Burst 4 KB to each peer back to back.
                for (NodeId q = 1; q < 4; ++q)
                    n.chans.write(q, 7 + q, buf, 4096);
            } else {
                n.chans.waitEpochs(7 + n.id, 1);
            }
        });
        return m.engine().elapsed();
    };
    Cycle free_net = elapsed(0);
    Cycle contended = elapsed(200); // gap larger than software costs
    EXPECT_GT(contended, free_net);
}

TEST(Contention, ResultsStayCorrectUnderContention)
{
    core::MachineConfig cfg;
    cfg.nprocs = 4;
    cfg.netGap = 16;
    mp::MpMachine m(cfg);
    std::vector<double> sums(4);
    m.run([&](mp::MpMachine::Node& n) {
        sums[n.id] = n.coll.allReduce(n.id + 1.0, mp::RedOp::Sum);
    });
    for (double s : sums)
        EXPECT_EQ(s, 10.0);
}
