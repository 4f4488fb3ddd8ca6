#include "trace/tracer.hh"

namespace wwt::trace
{

const char*
latencyKindName(LatencyKind k)
{
    switch (k) {
      case LatencyKind::MissStall: return "miss_stall";
      case LatencyKind::WriteFault: return "write_fault";
      case LatencyKind::MsgDelivery: return "msg_delivery";
      case LatencyKind::BarrierWait: return "barrier_wait";
      case LatencyKind::LockHold: return "lock_hold";
      default: return "?";
    }
}

const char*
timelineKindName(TimelineKind k)
{
    switch (k) {
      case TimelineKind::BarrierWait: return "barrier_wait";
      case TimelineKind::ChannelWrite: return "channel_write";
      default: return "?";
    }
}

const char*
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::AllReduce: return "allreduce";
      case OpKind::Broadcast: return "broadcast";
      case OpKind::BroadcastValue: return "broadcast-value";
      case OpKind::ChannelWrite: return "channel-write";
      case OpKind::LockHold: return "lock-hold";
      default: return "?";
    }
}

const char*
instantKindName(InstantKind k)
{
    switch (k) {
      case InstantKind::PhaseSwitch: return "phase-switch";
      case InstantKind::BarrierRelease: return "barrier-release";
      case InstantKind::QuantumEvents: return "quantum-events";
      case InstantKind::IdleSkip: return "idle-skip";
      default: return "?";
    }
}

const char*
flowKindName(FlowKind k)
{
    switch (k) {
      case FlowKind::ProtoTxn: return "proto-txn";
      case FlowKind::Packet: return "packet";
      default: return "?";
    }
}

Tracer::Tracer(std::size_t nprocs, std::size_t cap_per_track)
    : nprocs_(nprocs), cap_(cap_per_track ? cap_per_track : 1)
{
    tracks_.resize(nprocs_ + 1); // + the engine track
}

Record*
Tracer::lastRecord(NodeId track)
{
    Track& t = tracks_[track];
    if (t.buf.empty())
        return nullptr;
    if (t.buf.size() < cap_)
        return &t.buf.back();
    // Ring is full: the newest record sits just before the head.
    return &t.buf[(t.head + t.buf.size() - 1) % t.buf.size()];
}

void
Tracer::push(NodeId track, const Record& r)
{
    Track& t = tracks_[track];
    if (t.buf.size() < cap_) {
        t.buf.push_back(r);
        return;
    }
    t.buf[t.head] = r;
    t.head = (t.head + 1) % t.buf.size();
    t.dropped++;
}

void
Tracer::span(NodeId p, stats::Category c, Cycle t0, Cycle t1)
{
    if (t0 == t1)
        return;
    if (c == stats::Category::Barrier) {
        tracks_[p]
            .timelines[static_cast<std::size_t>(
                TimelineKind::BarrierWait)]
            .add(t0, t1);
    }
    // Merge with the previous record when it is a contiguous span of
    // the same category (the common case: long runs of computation).
    if (Record* last = lastRecord(p)) {
        if (last->kind == Record::Kind::Span &&
            last->tag == static_cast<std::uint8_t>(c) && last->t1 == t0) {
            last->t1 = t1;
            return;
        }
    }
    Record r{};
    r.kind = Record::Kind::Span;
    r.tag = static_cast<std::uint8_t>(c);
    r.t0 = t0;
    r.t1 = t1;
    push(p, r);
}

void
Tracer::op(NodeId p, OpKind k, Cycle t0, Cycle t1)
{
    if (k == OpKind::ChannelWrite && t1 > t0) {
        tracks_[p]
            .timelines[static_cast<std::size_t>(
                TimelineKind::ChannelWrite)]
            .add(t0, t1);
    }
    Record r{};
    r.kind = Record::Kind::OpSpan;
    r.tag = static_cast<std::uint8_t>(k);
    r.t0 = t0;
    r.t1 = t1;
    push(p, r);
}

void
Tracer::instant(NodeId p, InstantKind k, Cycle t, std::uint32_t arg)
{
    Record r{};
    r.kind = Record::Kind::Instant;
    r.tag = static_cast<std::uint8_t>(k);
    r.arg = arg;
    r.t0 = t;
    push(p, r);
}

void
Tracer::flowBegin(NodeId p, FlowKind k, std::uint64_t id, Cycle t)
{
    Record r{};
    r.kind = Record::Kind::FlowBegin;
    r.tag = static_cast<std::uint8_t>(k);
    r.t0 = t;
    r.id = id;
    push(p, r);
}

void
Tracer::flowStep(NodeId p, FlowKind k, std::uint64_t id, Cycle t)
{
    Record r{};
    r.kind = Record::Kind::FlowStep;
    r.tag = static_cast<std::uint8_t>(k);
    r.t0 = t;
    r.id = id;
    push(p, r);
}

void
Tracer::flowEnd(NodeId p, FlowKind k, std::uint64_t id, Cycle t)
{
    Record r{};
    r.kind = Record::Kind::FlowEnd;
    r.tag = static_cast<std::uint8_t>(k);
    r.t0 = t;
    r.id = id;
    push(p, r);
}

void
Tracer::lockAcquired(NodeId p, std::uint64_t lock, Cycle t)
{
    tracks_[p].openLocks[lock] = t;
}

void
Tracer::lockReleased(NodeId p, std::uint64_t lock, Cycle t)
{
    auto& open = tracks_[p].openLocks;
    auto it = open.find(lock);
    if (it == open.end())
        return; // release without a recorded acquire: ignore
    Cycle t0 = it->second;
    open.erase(it);
    latency(LatencyKind::LockHold, t - t0);
    op(p, OpKind::LockHold, t0, t);
}

void
Tracer::phaseSwitch(NodeId p, std::size_t phase, Cycle t)
{
    instant(p, InstantKind::PhaseSwitch, t,
            static_cast<std::uint32_t>(phase));
}

} // namespace wwt::trace
