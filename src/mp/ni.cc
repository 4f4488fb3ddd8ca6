#include "mp/ni.hh"

#include "audit/check.hh"

namespace wwt::mp
{

void
NetIface::send(NodeId dest, std::uint32_t tag,
               const std::array<std::uint32_t, core::kMpPacketWords>& words,
               unsigned data_bytes)
{
    WWT_AUDIT(peers_ != nullptr,
              "NetIface not wired to a machine: proc " << p_.id()
                  << " send at cycle " << p_.now());
    WWT_AUDIT(data_bytes <= core::kMpPacketBytes,
              "packet payload exceeds the wire format: proc "
                  << p_.id() << " claims " << data_bytes
                  << " data bytes in a " << core::kMpPacketBytes
                  << "-byte packet at cycle " << p_.now());

    // Stores into the memory-mapped interface: tag + destination,
    // then the five payload words.
    p_.advance(sim::CostKind::Net, cfg_.niWriteTagDest + cfg_.niSendWords);

    auto& counts = p_.stats().counts();
    counts.packetsSent++;
    counts.bytesData += data_bytes;
    counts.bytesCtrl += core::kMpPacketBytes - data_bytes;
    sentPkts_++;

    Packet pkt;
    pkt.src = p_.id();
    pkt.tag = tag;
    pkt.words = words;
    pkt.arrival = p_.now() + net_.latency(p_.id(), dest);

    if (trace::Tracer* tr = p_.tracer()) {
        pkt.traceId = tr->newFlowId(p_.id());
        tr->flowBegin(p_.id(), trace::FlowKind::Packet, pkt.traceId,
                      p_.now());
        tr->latency(trace::LatencyKind::MsgDelivery,
                    pkt.arrival - p_.now());
    }

    NetIface* dst = (*peers_)[dest];
    net_.deliver(p_.now(), p_.id(), dest, [dst, pkt] {
        dst->enqueue(pkt);
    });
}

void
NetIface::enqueue(const Packet& pkt)
{
    // Event-context delivery: the delivery event itself is tagged
    // Net at its Network::deliver schedule site, so the drain loop
    // attributes this handler's time — no timer scope needed here.
    enqueuedPkts_++;
    inq_.push_back(pkt);
    if (waiting_) {
        waiting_ = false;
        p_.resume(pkt.arrival);
    }
    if (p_.interruptsEnabled())
        p_.raiseInterrupt();
}

void
NetIface::waitPacket()
{
    // Packets already delivered (or arriving before our clock) don't
    // need a wait; otherwise block until the next enqueue resumes us.
    if (!inq_.empty()) {
        if (inq_.front().arrival > p_.now()) {
            p_.advance(sim::CostKind::Comp,
                       inq_.front().arrival - p_.now());
        }
        return;
    }
    waiting_ = true;
    p_.blockFor(sim::CostKind::Comp);
}

bool
NetIface::recvPending()
{
    p_.advance(sim::CostKind::Net, cfg_.niStatusAccess);
    return peekPending();
}

Packet
NetIface::receive()
{
    WWT_AUDIT(peekPending(),
              "receive() without a pending packet: proc " << p_.id()
                  << " at cycle " << p_.now() << " (queue depth "
                  << inq_.size() << ")");
    p_.advance(sim::CostKind::Net, cfg_.niRecvWords);
    consumedPkts_++;
    Packet pkt = inq_.front();
    inq_.pop_front();
    if (pkt.traceId != 0) {
        if (trace::Tracer* tr = p_.tracer()) {
            tr->flowEnd(p_.id(), trace::FlowKind::Packet, pkt.traceId,
                        p_.now());
        }
    }
    return pkt;
}

} // namespace wwt::mp
