#include "mp/channel.hh"

#include <cassert>
#include <stdexcept>
#include <string>

namespace wwt::mp
{

ChannelMgr::ChannelMgr(sim::Processor& p, ActiveMessages& am, MpMemory& mem,
                       const core::MachineConfig& cfg)
    : p_(p), am_(am), mem_(mem), cfg_(cfg)
{
    dataHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& args) { onData(src, args); });
}

void
ChannelMgr::openStatic(std::uint32_t chan, Addr dst,
                       std::size_t epoch_bytes)
{
    assert(epoch_bytes > 0 && epoch_bytes % 4 == 0);
    sim::AttrScope lib(p_, stats::libAttribution());
    p_.advance(sim::CostKind::Comp, 8); // endpoint bookkeeping
    Endpoint& ep = eps_[chan];
    assert(ep.got == 0 && "openStatic() after traffic started");
    ep.dst = dst;
    ep.epochBytes = epoch_bytes;
    ep.isStatic = true;
}

ChannelMgr::Endpoint&
ChannelMgr::endpoint(std::uint32_t chan, const char* op)
{
    if (Endpoint* ep = eps_.find(chan))
        return *ep;
    throw std::logic_error(
        std::string(op) + " on node " + std::to_string(p_.id()) +
        ": channel " + std::to_string(chan) +
        " was never opened (openStatic) or armed (armRecv)");
}

std::uint64_t
ChannelMgr::epochsDone(std::uint32_t chan)
{
    p_.advance(sim::CostKind::Comp, 2); // counter read
    Endpoint& ep = endpoint(chan, "epochsDone");
    assert(ep.isStatic);
    return ep.got / ep.epochBytes;
}

void
ChannelMgr::waitEpochs(std::uint32_t chan, std::uint64_t epochs)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    am_.pollUntil([this, chan, epochs] {
        const Endpoint& ep = endpoint(chan, "waitEpochs");
        return ep.got >= epochs * ep.epochBytes;
    });
}

void
ChannelMgr::armRecv(std::uint32_t chan, Addr dst, std::size_t nbytes)
{
    assert(nbytes % 4 == 0 && "channel payloads are word-granular");
    sim::AttrScope lib(p_, stats::libAttribution());
    p_.advance(sim::CostKind::Comp, 8); // endpoint bookkeeping
    Endpoint& ep = eps_[chan];
    assert(!ep.isStatic && "armRecv() on a static endpoint");
    assert(ep.got == ep.expect && "re-armed an incomplete endpoint");
    ep.dst = dst;
    ep.expect += nbytes;
}

bool
ChannelMgr::recvDone(std::uint32_t chan)
{
    p_.advance(sim::CostKind::Comp, 2); // counter read
    const Endpoint& ep = endpoint(chan, "recvDone");
    return ep.got >= ep.expect;
}

void
ChannelMgr::waitRecv(std::uint32_t chan)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    am_.pollUntil([this, chan] {
        const Endpoint& ep = endpoint(chan, "waitRecv");
        return ep.got >= ep.expect;
    });
}

void
ChannelMgr::write(NodeId dest, std::uint32_t chan, Addr src,
                  std::size_t nbytes)
{
    assert(nbytes % 4 == 0 && "channel payloads are word-granular");
    assert(chan <= 0xffff && "channel id must fit the packet header");
    sim::AttrScope lib(p_, stats::libAttribution());
    Cycle op_t0 = p_.now();
    writesIssued_++;
    p_.stats().counts().channelWrites++;
    p_.advance(sim::CostKind::Comp, 10); // channel setup per operation

    std::size_t npackets = (nbytes + kDataPerPacket - 1) / kDataPerPacket;
    assert(npackets <= 0xffff && "transfer too large for one write");
    std::size_t off = 0;
    for (std::size_t idx = 0; idx < npackets; ++idx) {
        std::size_t take = std::min(kDataPerPacket, nbytes - off);
        AmArgs args{};
        args[0] = (chan << 16) | static_cast<std::uint32_t>(idx);
        // Gather the payload with word loads through the cache.
        for (std::size_t w = 0; w < take / 4; ++w)
            args[1 + w] = mem_.read<std::uint32_t>(src + off + w * 4);
        p_.advance(sim::CostKind::Comp, cfg_.chanSendPerPacket);
        am_.ni().send(dest, dataHandler_, args,
                      static_cast<unsigned>(take));
        off += take;
    }
    if (trace::Tracer* tr = p_.tracer())
        tr->op(p_.id(), trace::OpKind::ChannelWrite, op_t0, p_.now());
}

void
ChannelMgr::onData(NodeId, const AmArgs& args)
{
    std::uint32_t chan = args[0] >> 16;
    std::uint32_t idx = args[0] & 0xffff;
    Endpoint& ep = endpoint(chan, "channel data arrived");

    std::size_t take;
    if (ep.isStatic) {
        assert(static_cast<std::size_t>(idx) * kDataPerPacket <
               ep.epochBytes);
        take = std::min(kDataPerPacket,
                        ep.epochBytes - idx * kDataPerPacket);
    } else {
        std::uint64_t remaining = ep.expect - ep.got;
        if (remaining == 0)
            throw std::logic_error(
                "channel data arrived on an unarmed dynamic endpoint; "
                "arm before the event that releases the sender");
        take = static_cast<std::size_t>(
            std::min<std::uint64_t>(kDataPerPacket, remaining));
    }

    Addr at = ep.dst + static_cast<Addr>(idx) * kDataPerPacket;
    // Scatter the payload with word stores through the cache.
    for (std::size_t w = 0; w < take / 4; ++w)
        mem_.write<std::uint32_t>(at + w * 4, args[1 + w]);
    p_.advance(sim::CostKind::Comp, cfg_.chanRecvPerPacket);
    ep.got += take;
}

} // namespace wwt::mp
