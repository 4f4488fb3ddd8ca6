/**
 * @file
 * Unit tests for the message-passing stack: network interface, active
 * messages, channels (static and dynamic), CMMD send/receive, and the
 * per-node memory path.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config.hh"
#include "mp/mp_machine.hh"

using namespace wwt;
using namespace wwt::mp;

namespace
{

core::MachineConfig
smallCfg(std::size_t nprocs)
{
    core::MachineConfig cfg;
    cfg.nprocs = nprocs;
    return cfg;
}

} // namespace

TEST(MpMemory, HitAndMissCosts)
{
    MpMachine m(smallCfg(1));
    m.run([&](MpMachine::Node& n) {
        Addr a = n.mem.alloc(64);
        Cycle t0 = n.proc.now();
        n.mem.write<double>(a, 1.5); // TLB miss + cache miss
        Cycle t1 = n.proc.now();
        // 36 (TLB) + 1 (store) + 11 + 10 (miss, no replacement)
        EXPECT_EQ(t1 - t0, 36u + 1 + 21);
        n.mem.write<double>(a + 8, 2.5); // same block: hit
        EXPECT_EQ(n.proc.now() - t1, 1u);
        EXPECT_EQ(n.mem.read<double>(a), 1.5);
    });
    auto c = m.engine().proc(0).stats().total().counts;
    EXPECT_EQ(c.privMisses, 1u);
    EXPECT_EQ(c.tlbMisses, 1u);
    EXPECT_EQ(c.privAccesses, 3u);
}

TEST(NetIface, PacketTimingAndCounts)
{
    MpMachine m(smallCfg(2));
    m.run([&](MpMachine::Node& n) {
        if (n.id == 0) {
            AmArgs words{1, 2, 3, 4, 5};
            Cycle t0 = n.proc.now();
            n.ni.send(1, /*tag=*/7, words, /*data_bytes=*/12);
            EXPECT_EQ(n.proc.now() - t0, 20u); // 5 tag/dest + 15 words
        } else {
            // Poll until the packet arrives (~100 cycles of latency).
            while (!n.ni.recvPending()) {
            }
            Cycle seen = n.proc.now();
            EXPECT_GE(seen, 100u);
            Packet pkt = n.ni.receive();
            EXPECT_EQ(pkt.src, 0u);
            EXPECT_EQ(pkt.tag, 7u);
            EXPECT_EQ(pkt.words[4], 5u);
            EXPECT_GE(pkt.arrival, 100u);
        }
    });
    auto c = m.engine().proc(0).stats().total().counts;
    EXPECT_EQ(c.packetsSent, 1u);
    EXPECT_EQ(c.bytesData, 12u);
    EXPECT_EQ(c.bytesCtrl, 8u);
}

TEST(ActiveMessages, HandlerRunsOnPoll)
{
    MpMachine m(smallCfg(2));
    std::vector<int> got;
    m.run([&](MpMachine::Node& n) {
        std::uint32_t h = n.am.registerHandler(
            [&](NodeId src, const AmArgs& a) {
                got.push_back(static_cast<int>(a[0] + src));
            });
        n.barrier(); // both registered
        if (n.id == 0) {
            AmArgs a{41, 0, 0, 0, 0};
            n.am.request(1, h, a, 4);
        } else {
            n.am.pollUntil([&] { return !got.empty(); });
        }
    });
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 41);
    EXPECT_EQ(m.engine().proc(0).stats().total().counts.activeMsgs, 1u);
}

TEST(ActiveMessages, PackUnpackDouble)
{
    AmArgs a{};
    packDouble(a, 1, -1234.5678e-9);
    EXPECT_EQ(unpackDouble(a, 1), -1234.5678e-9);
}

TEST(Channels, DynamicTransferMovesData)
{
    MpMachine m(smallCfg(2));
    constexpr std::size_t kBytes = 1000; // partial final packet (8)
    m.run([&](MpMachine::Node& n) {
        Addr buf = n.mem.alloc(kBytes);
        if (n.id == 1) {
            n.chans.armRecv(/*chan=*/3, buf, kBytes);
        }
        n.barrier();
        if (n.id == 0) {
            for (std::size_t i = 0; i < kBytes / 4; ++i) {
                n.mem.write<std::uint32_t>(
                    buf + i * 4, static_cast<std::uint32_t>(i * 3 + 1));
            }
            n.chans.write(1, 3, buf, kBytes);
        } else {
            n.chans.waitRecv(3);
            for (std::size_t i = 0; i < kBytes / 4; ++i) {
                ASSERT_EQ(n.mem.read<std::uint32_t>(buf + i * 4),
                          i * 3 + 1);
            }
        }
    });
    auto c0 = m.engine().proc(0).stats().total().counts;
    EXPECT_EQ(c0.channelWrites, 1u);
    EXPECT_EQ(c0.packetsSent, 63u); // ceil(1000/16)
    EXPECT_EQ(c0.bytesData, 1000u);
}

TEST(Channels, StaticEndpointToleratesEagerSender)
{
    // The sender streams three epochs back-to-back; the receiver is
    // slow and consumes them afterwards.
    MpMachine m(smallCfg(2));
    constexpr std::size_t kEpoch = 64;
    std::vector<std::uint32_t> sums;
    m.run([&](MpMachine::Node& n) {
        Addr buf = n.mem.alloc(kEpoch);
        if (n.id == 1)
            n.chans.openStatic(9, buf, kEpoch);
        n.barrier();
        if (n.id == 0) {
            for (std::uint32_t ep = 0; ep < 3; ++ep) {
                for (std::size_t i = 0; i < kEpoch / 4; ++i) {
                    n.mem.write<std::uint32_t>(buf + i * 4, ep + 1);
                }
                n.chans.write(1, 9, buf, kEpoch);
            }
        } else {
            n.charge(20000); // fall far behind
            for (std::uint32_t ep = 1; ep <= 3; ++ep) {
                n.chans.waitEpochs(9, ep);
                // NOTE: with a fixed buffer, later epochs overwrite
                // earlier ones; after falling behind we observe the
                // last value written, which is what a static channel
                // with a fixed buffer gives real programs too.
            }
            sums.push_back(n.mem.read<std::uint32_t>(buf));
        }
    });
    ASSERT_EQ(sums.size(), 1u);
    EXPECT_EQ(sums[0], 3u);
}

TEST(Cmmd, BlockingSendRecvRendezvous)
{
    MpMachine m(smallCfg(2));
    constexpr std::size_t kBytes = 256;
    m.run([&](MpMachine::Node& n) {
        Addr buf = n.mem.alloc(kBytes);
        if (n.id == 0) {
            for (std::size_t i = 0; i < kBytes / 8; ++i)
                n.mem.write<double>(buf + i * 8, i * 1.5);
            n.cmmd.send(1, /*tag=*/5, buf, kBytes);
        } else {
            n.cmmd.recv(0, 5, buf, kBytes);
            for (std::size_t i = 0; i < kBytes / 8; ++i)
                ASSERT_EQ(n.mem.read<double>(buf + i * 8), i * 1.5);
        }
    });
    EXPECT_EQ(m.engine().proc(0).stats().total().counts.sendsPosted, 1u);
}

TEST(Cmmd, ManyMessagesBothDirections)
{
    MpMachine m(smallCfg(2));
    m.run([&](MpMachine::Node& n) {
        Addr buf = n.mem.alloc(64);
        for (int round = 0; round < 10; ++round) {
            if (n.id == 0) {
                n.mem.write<std::uint64_t>(buf, 100 + round);
                n.cmmd.send(1, 1, buf, 64);
                n.cmmd.recv(1, 2, buf, 64);
                ASSERT_EQ(n.mem.read<std::uint64_t>(buf),
                          200u + round);
            } else {
                n.cmmd.recv(0, 1, buf, 64);
                ASSERT_EQ(n.mem.read<std::uint64_t>(buf),
                          100u + round);
                n.mem.write<std::uint64_t>(buf, 200 + round);
                n.cmmd.send(0, 2, buf, 64);
            }
        }
    });
}

TEST(MpMachine, LibraryTimeIsAttributedToLib)
{
    MpMachine m(smallCfg(2));
    m.run([&](MpMachine::Node& n) {
        Addr buf = n.mem.alloc(160);
        if (n.id == 0)
            n.cmmd.send(1, 1, buf, 160);
        else
            n.cmmd.recv(0, 1, buf, 160);
    });
    for (NodeId i = 0; i < 2; ++i) {
        auto tot = m.engine().proc(i).stats().total();
        auto get = [&](stats::Category c) {
            return tot.cycles[static_cast<std::size_t>(c)];
        };
        EXPECT_GT(get(stats::Category::LibComp), 0u) << i;
        EXPECT_GT(get(stats::Category::NetAccess), 0u) << i;
        EXPECT_EQ(get(stats::Category::Computation), 0u) << i;
    }
}

TEST(Mp, WaitOnUnopenedChannelThrows)
{
    // A wait on a channel nobody opened must fail loudly: an empty
    // endpoint (0 of 0 bytes expected) would "complete" at once.
    MpMachine m(smallCfg(2));
    ChannelMgr& chans = m.node(1).chans;
    auto expectNamed = [](auto&& call, const char* op) {
        try {
            call();
            ADD_FAILURE() << op << " on an unopened channel returned";
        } catch (const std::logic_error& e) {
            std::string what = e.what();
            EXPECT_NE(what.find(op), std::string::npos) << what;
            EXPECT_NE(what.find("node 1"), std::string::npos) << what;
            EXPECT_NE(what.find("channel 42"), std::string::npos) << what;
        }
    };
    expectNamed([&] { chans.waitEpochs(42, 1); }, "waitEpochs");
    expectNamed([&] { chans.waitRecv(42); }, "waitRecv");

    // Opening one channel does not make another one valid.
    m.run([&](MpMachine::Node& n) {
        if (n.id == 1)
            n.chans.openStatic(9, n.mem.alloc(64), 64);
    });
    expectNamed([&] { chans.waitEpochs(42, 1); }, "waitEpochs");
}

// The handler throws inside node 1's fiber; the error must reach the
// caller of run() with its message, not end the process.
TEST(Mp, DataOnUnopenedChannelNamesNodeAndChannel)
{
    MpMachine m(smallCfg(2));
    try {
        m.run([&](MpMachine::Node& n) {
            Addr buf = n.mem.alloc(64);
            if (n.id == 0) {
                n.chans.write(1, 77, buf, 64);
            } else {
                n.charge(5000); // let the packets arrive
                n.am.pollAll();
            }
        });
        ADD_FAILURE() << "data on an unopened channel was accepted";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "channel data arrived on node 1: channel 77"),
                  std::string::npos)
            << e.what();
    }
}
