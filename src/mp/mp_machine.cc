#include "mp/mp_machine.hh"

#include <utility>

#include "audit/audit.hh"
#include "audit/check.hh"

namespace wwt::mp
{

MpMachine::MpMachine(const core::MachineConfig& cfg, TreeKind collectives)
    : cfg_(cfg),
      engine_(cfg.nprocs, cfg.quantum, cfg.fiberStack),
      net_(engine_, cfg.netLatency, cfg.netLatency, cfg.netGap),
      barrier_(engine_, cfg.nprocs, cfg.barrierLatency)
{
    nodes_.reserve(cfg_.nprocs);
    for (NodeId i = 0; i < cfg_.nprocs; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            engine_.proc(i), store_, net_, barrier_, cfg_, cfg_.nprocs,
            collectives));
    }
    niPtrs_.reserve(cfg_.nprocs);
    for (auto& n : nodes_)
        niPtrs_.push_back(&n->ni);
    for (auto& n : nodes_)
        n->ni.setPeers(&niPtrs_);
    engine_.addAudit([this] { audit(); });
}

void
MpMachine::audit() const
{
    audit::checkCycleConservation(engine_);

    std::uint64_t sent = 0;
    std::uint64_t enqueued = 0;
    for (const auto& n : nodes_) {
        const stats::Counts c = n->proc.stats().total().counts;

        // Byte conservation at the NI: the interface charges exactly
        // 20 bytes per packet, split between payload and padding.
        WWT_AUDIT(c.bytesData + c.bytesCtrl ==
                      c.packetsSent * core::kMpPacketBytes,
                  "NI byte conservation violated: proc "
                      << n->id << " sent " << c.packetsSent
                      << " packets but charged " << c.bytesData
                      << " data + " << c.bytesCtrl << " ctrl bytes (want "
                      << c.packetsSent * core::kMpPacketBytes << ")");

        // The stats counter and the NI's own conservation counter are
        // updated on separate paths; they must agree.
        WWT_AUDIT(c.packetsSent == n->ni.sentPkts(),
                  "packet count mismatch: proc "
                      << n->id << " stats say " << c.packetsSent
                      << " packets sent, NI says " << n->ni.sentPkts());

        // No shared-memory protocol activity on this machine.
        WWT_AUDIT(c.protoMsgs == 0 && c.invalsSent == 0 &&
                      c.writeBacks == 0,
                  "shared-memory protocol counts on the MP machine: proc "
                      << n->id << " protoMsgs " << c.protoMsgs
                      << " invalsSent " << c.invalsSent << " writeBacks "
                      << c.writeBacks);

        // A packet is consumed at most once, from its own FIFO.
        WWT_AUDIT(n->ni.consumedPkts() + n->ni.queueDepth() ==
                      n->ni.enqueuedPkts(),
                  "receive FIFO conservation violated: proc "
                      << n->id << " consumed " << n->ni.consumedPkts()
                      << " + queued " << n->ni.queueDepth()
                      << " != enqueued " << n->ni.enqueuedPkts());

        sent += n->ni.sentPkts();
        enqueued += n->ni.enqueuedPkts();
    }

    // Delivery conservation holds only once no packets remain in
    // flight; with events still on the calendar (a finished run can
    // leave deliveries to already-exited nodes), skip the check.
    if (engine_.calendarDrained()) {
        WWT_AUDIT(sent == enqueued,
                  "packets lost in flight: " << sent << " sent but "
                                             << enqueued
                                             << " delivered machine-wide");
    }
    WWT_AUDIT(enqueued <= sent,
              "packets materialized from nowhere: " << enqueued
                  << " delivered but only " << sent << " sent");
}

void
MpMachine::run(std::function<void(Node&)> body)
{
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        Node* n = nodes_[i].get();
        engine_.setBody(i, [n, body] { body(*n); });
    }
    engine_.run();
}

} // namespace wwt::mp
