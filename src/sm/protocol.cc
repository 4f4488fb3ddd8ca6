#include "sm/protocol.hh"

#include "audit/check.hh"
#include "prof/hostprof.hh"

#include <stdexcept>

namespace wwt::sm
{

DirProtocol::DirProtocol(sim::Engine& engine, net::Network& net,
                         mem::SharedAllocator& shalloc,
                         mem::BackingStore& store,
                         std::vector<mem::Cache*> caches,
                         const core::MachineConfig& cfg)
    : engine_(engine), net_(net), shalloc_(shalloc), store_(store),
      caches_(std::move(caches)), cfg_(cfg),
      dirBusy_(engine.numProcs(), 0),
      atomicResult_(engine.numProcs(), 0)
{
    if (engine.numProcs() > kMaxSmProcs)
        throw std::invalid_argument("too many nodes for the full map");
}

stats::Counts&
DirProtocol::counts(NodeId n)
{
    return engine_.proc(n).stats().counts();
}

void
DirProtocol::countMsg(NodeId from, NodeId to, bool data)
{
    if (from == to)
        return;
    stats::Counts& c = counts(from);
    c.protoMsgs++;
    c.bytesCtrl += core::kSmMsgHeaderBytes;
    if (data)
        c.bytesData += kBlockBytes;
}

void
DirProtocol::miss(sim::Processor& req, Addr addr, bool write,
                  bool had_copy, sim::CostKind kind)
{
    Req r;
    r.req = req.id();
    r.write = write;
    r.hadCopy = had_copy;
    r.addr = addr;

    Addr block = blockOf(addr);
    NodeId home = homeOf(addr);
    if (trace::Tracer* tr = engine_.tracer()) {
        r.traceId = tr->newFlowId(r.req);
        tr->flowBegin(r.req, trace::FlowKind::ProtoTxn, r.traceId,
                      req.now());
    }
    countMsg(r.req, home, false);
    Cycle at = req.now() + net_.latency(r.req, home);
    scheduleProto(at, [this, home, block, r, at] {
        service(home, block, r, at);
    });
    req.blockFor(kind);
}

std::uint64_t
DirProtocol::atomic(sim::Processor& req, Addr addr, bool had_copy,
                    AtomicKind kind_a, std::uint64_t val,
                    std::uint64_t expect, unsigned width,
                    sim::CostKind kind)
{
    WWT_AUDIT(kind_a != AtomicKind::None,
              "atomic() without an operation: proc " << req.id()
                  << " addr 0x" << std::hex << addr << std::dec
                  << " at cycle " << req.now());
    Req r;
    r.req = req.id();
    r.write = true;
    r.hadCopy = had_copy;
    r.atomicKind = kind_a;
    r.aVal = val;
    r.aExpect = expect;
    r.width = width;
    r.addr = addr;

    Addr block = blockOf(addr);
    NodeId home = homeOf(addr);
    if (trace::Tracer* tr = engine_.tracer()) {
        r.traceId = tr->newFlowId(r.req);
        tr->flowBegin(r.req, trace::FlowKind::ProtoTxn, r.traceId,
                      req.now());
    }
    countMsg(r.req, home, false);
    Cycle at = req.now() + net_.latency(r.req, home);
    scheduleProto(at, [this, home, block, r, at] {
        service(home, block, r, at);
    });
    req.blockFor(kind);
    return atomicResult_[r.req];
}

void
DirProtocol::evictWriteback(sim::Processor& req, Addr victim_block_addr)
{
    Addr block = blockOf(victim_block_addr);
    NodeId home = homeOf(victim_block_addr);
    NodeId from = req.id();
    req.stats().counts().writeBacks++;
    countMsg(from, home, true);
    Cycle at = req.now() + net_.latency(from, home);
    scheduleProto(at, [this, home, block, from, at] {
        onWriteback(home, block, from, at);
    });
}

void
DirProtocol::replacementHint(sim::Processor& req, Addr block_addr)
{
    Addr block = blockOf(block_addr);
    NodeId home = homeOf(block_addr);
    NodeId from = req.id();
    countMsg(from, home, false);
    Cycle at = req.now() + net_.latency(from, home);
    scheduleProto(at, [this, home, block, from, at] {
        DirEntry& e = entry(block);
        Cycle start = std::max(at, dirBusy_[home]);
        dirBusy_[home] = start + cfg_.dirBase;
        if (!e.busy && e.state == DirState::Shared)
            e.sharers.reset(from);
    });
}

void
DirProtocol::pushUpdate(sim::Processor& src, Addr addr,
                        std::size_t nbytes, NodeId dest)
{
    WWT_AUDIT(dest != src.id(),
              "pushUpdate to self: proc " << src.id() << " addr 0x"
                  << std::hex << addr << std::dec << " at cycle "
                  << src.now());
    Addr first = blockOf(addr);
    Addr last = blockOf(addr + nbytes - 1);
    std::size_t nblocks =
        static_cast<std::size_t>((last - first) / kBlockBytes) + 1;

    // One bulk message: gather + injection cost at the producer,
    // payload accounted per block.
    src.advance(sim::CostKind::Net, 5 + 3 * nblocks);
    stats::Counts& c = src.stats().counts();
    c.protoMsgs++;
    c.bytesCtrl += core::kSmMsgHeaderBytes;
    c.bytesData += nblocks * kBlockBytes;

    mem::Cache* dcache = caches_[dest];
    Cycle at = src.now() + net_.latency(src.id(), dest);
    NodeId from = src.id();
    scheduleProto(at, [this, dcache, first, nblocks, from, dest,
                          at] {
        for (std::size_t i = 0; i < nblocks; ++i) {
            Addr bnum = first / kBlockBytes + i;
            if (dcache->find(bnum))
                continue; // refresh in place
            mem::Victim v =
                dcache->insert(bnum, mem::LineState::Shared, false);
            // Displaced dirty blocks still go home.
            if (v.valid && v.dirty &&
                mem::AddressMap::isShared(v.block * kBlockBytes)) {
                Addr vb = v.block * kBlockBytes;
                NodeId home = homeOf(vb);
                countMsg(dest, home, true);
                Cycle arr = at + net_.latency(dest, home);
                scheduleProto(arr, [this, home, vb, dest, arr] {
                    onWriteback(home, blockOf(vb), dest, arr);
                });
            }
        }
        (void)from;
    });
}

void
DirProtocol::onWriteback(NodeId home, Addr block, NodeId from, Cycle at)
{
    DirEntry& e = entry(block);
    Cycle start = std::max(at, dirBusy_[home]);
    dirBusy_[home] = start + cfg_.dirBase + cfg_.dirBlockRecv;
    // Only meaningful if the directory still believes 'from' owns the
    // block; otherwise a later transaction already superseded it.
    if (e.state == DirState::Exclusive && e.owner == from && !e.busy) {
        e.state = DirState::Uncached;
        e.sharers.reset();
    }
}

void
DirProtocol::service(NodeId home, Addr block, Req r, Cycle at)
{
    if (r.traceId != 0) {
        if (trace::Tracer* tr = engine_.tracer())
            tr->flowStep(home, trace::FlowKind::ProtoTxn, r.traceId, at);
    }
    DirEntry& e = entry(block);
    if (e.busy) {
        pending_[block].q.emplace_back(r, at);
        return;
    }

    Cycle start = std::max(at, dirBusy_[home]);
    queueDelay_ += start - at;

    switch (e.state) {
      case DirState::Uncached:
        grant(home, block, e, r, start, true);
        return;

      case DirState::Shared: {
        if (!r.write) {
            grant(home, block, e, r, start, true);
            return;
        }
        // Write into a shared block: invalidate every other sharer.
        // Stack-resident victim list — this runs per write-fault
        // service, so a heap-backed vector here is a malloc on the
        // protocol hot path.
        NodeId victims[kMaxSmProcs];
        std::size_t nVictims = 0;
        for (std::size_t s = 0; s < engine_.numProcs(); ++s) {
            if (e.sharers.test(s) && s != r.req)
                victims[nVictims++] = static_cast<NodeId>(s);
        }
        bool req_listed = e.sharers.test(r.req);
        if (nVictims == 0) {
            grant(home, block, e, r, start,
                  !(r.hadCopy && req_listed));
            return;
        }
        e.busy = true;
        Pending& p = pending_[block];
        p.txn.r = r;
        p.txn.pendingAcks = static_cast<int>(nVictims);
        p.txn.needData = !(r.hadCopy && req_listed);
        Cycle t = start + cfg_.dirBase;
        for (std::size_t i = 0; i < nVictims; ++i) {
            NodeId s = victims[i];
            t += cfg_.dirMsgSend;
            counts(home).invalsSent++;
            countMsg(home, s, false);
            Cycle arr = t + net_.latency(home, s);
            scheduleProto(arr, [this, s, block, home, arr] {
                invalArrive(s, block, home, arr);
            });
        }
        dirBusy_[home] = t;
        e.sharers.reset();
        return;
      }

      case DirState::Exclusive: {
        if (e.owner == r.req) {
            // Stale ownership: the requester evicted the block and its
            // writeback is (at worst) still in flight; the backing
            // store already holds the data, so serve from home.
            grant(home, block, e, r, start, true);
            return;
        }
        e.busy = true;
        Pending& p = pending_[block];
        p.txn.r = r;
        p.txn.needData = true;
        Cycle t = start + cfg_.dirBase + cfg_.dirMsgSend;
        dirBusy_[home] = t;
        NodeId owner = e.owner;
        bool to_shared = !r.write;
        countMsg(home, owner, false);
        Cycle arr = t + net_.latency(home, owner);
        scheduleProto(arr, [this, owner, block, home, to_shared, arr] {
            fetchArrive(owner, block, home, to_shared, arr);
        });
        return;
      }
    }
}

void
DirProtocol::grant(NodeId home, Addr block, DirEntry& e, const Req& r,
                   Cycle start, bool with_data)
{
    Cycle done = start + cfg_.dirBase + cfg_.dirMsgSend +
                 (with_data ? cfg_.dirBlockSend : 0);
    dirBusy_[home] = done;
    if (r.write) {
        e.state = DirState::Exclusive;
        e.owner = r.req;
        e.sharers.reset();
        e.sharers.set(r.req);
    } else {
        e.state = DirState::Shared;
        e.sharers.set(r.req);
    }
    countMsg(home, r.req, with_data);
    Cycle at = done + net_.latency(home, r.req);
    Req rc = r;
    scheduleProto(at, [this, rc, at] { fill(rc, at); });
    // This transaction completed without a busy period, but requests
    // may have queued behind an earlier one; keep draining.
    drainQueue(home, block, e, pending_.find(block), done);
}

void
DirProtocol::fetchArrive(NodeId owner, Addr block, NodeId home,
                         bool to_shared, Cycle at)
{
    mem::Cache& c = *caches_[owner];
    Cycle cost = cfg_.smInvalidate;
    Addr bnum = block / kBlockBytes;
    if (to_shared) {
        if (mem::Line* line = c.find(bnum)) {
            cost += line->dirty ? cfg_.smReplSharedDirty
                                : cfg_.smReplSharedClean;
            line->state = mem::LineState::Shared;
            line->dirty = false;
        }
    } else {
        mem::Victim v = c.remove(bnum);
        if (v.valid)
            cost += v.dirty ? cfg_.smReplSharedDirty
                            : cfg_.smReplSharedClean;
    }
    countMsg(owner, home, true); // data travels home
    Cycle arr = at + cost + net_.latency(owner, home);
    scheduleProto(arr, [this, home, block, arr] {
        onFetchReply(home, block, arr);
    });
}

void
DirProtocol::onFetchReply(NodeId home, Addr block, Cycle at)
{
    DirEntry& e = entry(block);
    Pending* p = pending_.find(block);
    WWT_AUDIT(e.busy && p != nullptr,
              "fetch reply for an idle directory entry: home "
                  << home << " block 0x" << std::hex << block
                  << std::dec << " at cycle " << at);
    Req r = p->txn.r;
    Cycle start = std::max(at, dirBusy_[home]);
    Cycle done = start + cfg_.dirBase + cfg_.dirBlockRecv +
                 cfg_.dirMsgSend + cfg_.dirBlockSend;
    dirBusy_[home] = done;
    if (r.write) {
        e.state = DirState::Exclusive;
        e.owner = r.req;
        e.sharers.reset();
        e.sharers.set(r.req);
    } else {
        // Downgrade: the old owner keeps a shared copy.
        e.state = DirState::Shared;
        e.sharers.set(e.owner);
        e.sharers.set(r.req);
    }
    countMsg(home, r.req, true);
    Cycle fill_at = done + net_.latency(home, r.req);
    scheduleProto(fill_at, [this, r, fill_at] { fill(r, fill_at); });
    e.busy = false;
    drainQueue(home, block, e, p, done);
}

void
DirProtocol::invalArrive(NodeId sharer, Addr block, NodeId home, Cycle at)
{
    mem::Cache& c = *caches_[sharer];
    mem::Victim v = c.remove(block / kBlockBytes);
    Cycle cost = cfg_.smInvalidate;
    if (v.valid)
        cost += v.dirty ? cfg_.smReplSharedDirty : cfg_.smReplSharedClean;
    countMsg(sharer, home, false); // acknowledgement
    Cycle arr = at + cost + net_.latency(sharer, home);
    scheduleProto(arr, [this, home, block, arr] {
        onAck(home, block, arr);
    });
}

void
DirProtocol::onAck(NodeId home, Addr block, Cycle at)
{
    DirEntry& e = entry(block);
    Pending* p = pending_.find(block);
    WWT_AUDIT(e.busy && p != nullptr && p->txn.pendingAcks > 0,
              "stray invalidation ack: home "
                  << home << " block 0x" << std::hex << block << std::dec
                  << " busy=" << e.busy << " pendingAcks="
                  << (p != nullptr ? p->txn.pendingAcks : 0)
                  << " at cycle " << at);
    Cycle start = std::max(at, dirBusy_[home]);
    dirBusy_[home] = start + cfg_.dirBase;
    if (--p->txn.pendingAcks > 0)
        return;

    Req r = p->txn.r;
    bool need_data = p->txn.needData;
    Cycle done = dirBusy_[home] + cfg_.dirMsgSend +
                 (need_data ? cfg_.dirBlockSend : 0);
    dirBusy_[home] = done;
    e.state = DirState::Exclusive;
    e.owner = r.req;
    e.sharers.reset();
    e.sharers.set(r.req);
    countMsg(home, r.req, need_data);
    Cycle fill_at = done + net_.latency(home, r.req);
    scheduleProto(fill_at, [this, r, fill_at] { fill(r, fill_at); });
    e.busy = false;
    drainQueue(home, block, e, p, done);
}

void
DirProtocol::fill(const Req& r, Cycle at)
{
    if (r.atomicKind != AtomicKind::None) {
        // Linearization point: apply the store / read-modify-write
        // now, in event order, before the processor can run again.
        std::uint64_t old;
        bool commit;
        if (r.width == 8) {
            old = store_.read<std::uint64_t>(r.addr);
            commit = r.atomicKind != AtomicKind::Cas || old == r.aExpect;
            if (commit)
                store_.write<std::uint64_t>(r.addr, r.aVal);
        } else {
            old = store_.read<std::uint32_t>(r.addr);
            commit = r.atomicKind != AtomicKind::Cas || old == r.aExpect;
            if (commit) {
                store_.write<std::uint32_t>(
                    r.addr, static_cast<std::uint32_t>(r.aVal));
            }
        }
        atomicResult_[r.req] = old;
    }
    if (r.traceId != 0) {
        if (trace::Tracer* tr = engine_.tracer())
            tr->flowEnd(r.req, trace::FlowKind::ProtoTxn, r.traceId, at);
    }
    engine_.proc(r.req).resume(at);
}

void
DirProtocol::drainQueue(NodeId home, Addr block, DirEntry& e, Pending* p,
                        Cycle at)
{
    if (e.busy)
        return;
    if (p == nullptr)
        return;
    if (p->q.empty()) {
        // Transaction over, nobody waiting: retire the side entry so
        // pending_ stays small enough to be cache-resident.
        pending_.erase(block);
        return;
    }
    auto [r, arrived] = p->q.front();
    p->q.pop_front();
    queueDelay_ += at > arrived ? at - arrived : 0;
    service(home, block, r, std::max(at, arrived));
}

const DirProtocol::DirEntry*
DirProtocol::findEntry(Addr block) const
{
    std::size_t i = blockIndex(block);
    std::size_t c = i / kChunkBlocks;
    if (c >= dir_.size() || !dir_[c])
        return nullptr;
    return &dir_[c][i % kChunkBlocks];
}

void
DirProtocol::auditConsistency() const
{
    pending_.forEach([&](Addr block, const Pending& p) {
        const DirEntry* e = findEntry(block);
        WWT_AUDIT(e != nullptr && !e->busy,
                  "busy directory entry outlived its transaction: home "
                      << homeOf(block) << " block 0x" << std::hex << block
                      << std::dec << " requester " << p.txn.r.req
                      << " pendingAcks " << p.txn.pendingAcks);
        WWT_AUDIT(p.q.empty(),
                  "requests left queued on an idle directory entry: home "
                      << homeOf(block) << " block 0x" << std::hex << block
                      << std::dec << " queued " << p.q.size());
    });
    for (std::size_t c = 0; c < dir_.size(); ++c) {
        if (!dir_[c])
            continue;
        for (std::size_t k = 0; k < kChunkBlocks; ++k) {
            Addr block = mem::AddressMap::kSharedBase +
                         (c * kChunkBlocks + k) * kBlockBytes;
            WWT_AUDIT(!dir_[c][k].busy,
                      "busy directory entry outlived its transaction: "
                      "home " << homeOf(block) << " block 0x" << std::hex
                              << block << std::dec);
        }
    }

    // Single-writer: at most one cache may hold any shared block
    // writable (Exclusive line state, or dirty data), and it must be
    // the recorded owner. Shared clean copies in other caches are
    // legal (stale sharers, pushUpdate snapshots). One pass over the
    // caches' line arrays gathers every writable holder; each is then
    // checked against its entry, an untouched block reading as
    // Uncached.
    struct Writable {
        std::uint32_t writers = 0;
        NodeId writer = 0;
    };
    sim::FlatMap<Writable> writable;
    for (std::size_t n = 0; n < caches_.size(); ++n) {
        caches_[n]->forEachValid([&](const mem::Line& line) {
            Addr block = caches_[n]->addrOf(line.block);
            if (mem::AddressMap::isShared(block) &&
                (line.dirty || line.state == mem::LineState::Exclusive)) {
                Writable& w = writable[block];
                w.writers++;
                w.writer = static_cast<NodeId>(n);
            }
        });
    }

    const DirEntry untouched{};
    writable.forEach([&](Addr block, const Writable& w) {
        WWT_AUDIT(w.writers <= 1,
                  "single-writer violated: block 0x"
                      << std::hex << block << std::dec << " held writable "
                         "by " << w.writers << " caches (home "
                      << homeOf(block) << ")");
        const DirEntry* found = findEntry(block);
        const DirEntry& e = found != nullptr ? *found : untouched;
        WWT_AUDIT(e.state == DirState::Exclusive && e.owner == w.writer,
                  "directory/cache disagreement: block 0x"
                      << std::hex << block << std::dec
                      << " writable in cache " << w.writer
                      << " but directory state "
                      << static_cast<int>(e.state) << " owner " << e.owner
                      << " (home " << homeOf(block) << ")");
    });
}

DirProtocol::DirSnapshot
DirProtocol::snapshot(Addr block_addr) const
{
    DirSnapshot s;
    const DirEntry* entry = findEntry(blockOf(block_addr));
    if (entry == nullptr)
        return s;
    const DirEntry& e = *entry;
    s.state = static_cast<int>(e.state);
    s.sharers = e.sharers.count();
    s.owner = e.owner;
    s.busy = e.busy;
    return s;
}

} // namespace wwt::sm
