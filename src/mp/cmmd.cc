#include "mp/cmmd.hh"

namespace wwt::mp
{

namespace
{

std::uint64_t
key(NodeId peer, std::uint32_t tag)
{
    return (static_cast<std::uint64_t>(peer) << 32) | tag;
}

} // namespace

Cmmd::Cmmd(sim::Processor& p, ActiveMessages& am, ChannelMgr& chans)
    : p_(p), am_(am), chans_(chans)
{
    clearHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& args) {
            // args[0] = tag: the receiver on 'src' is ready.
            clears_[key(src, args[0])]++;
        });
}

void
Cmmd::send(NodeId dest, std::uint32_t tag, Addr src, std::size_t nbytes)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    p_.stats().counts().sendsPosted++;
    std::uint64_t k = key(dest, tag);
    std::uint64_t need = ++sent_[k];
    // Handshake: wait for the matching receive's clear-to-send.
    am_.pollUntil([this, k, need] { return clears_[k] >= need; });
    chans_.write(dest, chanFor(p_.id(), tag), src, nbytes);
}

void
Cmmd::postRecv(NodeId src, std::uint32_t tag, Addr dst,
               std::size_t nbytes)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    std::uint32_t chan = chanFor(src, tag);
    chans_.armRecv(chan, dst, nbytes);
    AmArgs args{};
    args[0] = tag;
    am_.request(src, clearHandler_, args, 0);
}

void
Cmmd::waitPosted(NodeId src, std::uint32_t tag)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    chans_.waitRecv(chanFor(src, tag));
}

void
Cmmd::recv(NodeId src, std::uint32_t tag, Addr dst, std::size_t nbytes)
{
    postRecv(src, tag, dst, nbytes);
    waitPosted(src, tag);
}

} // namespace wwt::mp
