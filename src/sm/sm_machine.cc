#include "sm/sm_machine.hh"

#include <utility>

#include "audit/audit.hh"
#include "mem/address_map.hh"

namespace wwt::sm
{

namespace
{

std::vector<mem::Cache*>
pointers(const std::vector<std::unique_ptr<mem::Cache>>& caches)
{
    std::vector<mem::Cache*> p;
    p.reserve(caches.size());
    for (const auto& c : caches)
        p.push_back(c.get());
    return p;
}

} // namespace

SmMachine::SmMachine(const core::MachineConfig& cfg)
    : cfg_(cfg),
      engine_(cfg.nprocs, cfg.quantum, cfg.fiberStack),
      net_(engine_, cfg.netLatency, cfg.selfLatency, cfg.netGap),
      barrier_(engine_, cfg.nprocs, cfg.barrierLatency),
      shalloc_(mem::AddressMap::kSharedBase, kSharedBytes, cfg.nprocs,
               cfg.allocPolicy),
      caches_([&] {
          std::vector<std::unique_ptr<mem::Cache>> cs;
          for (std::size_t i = 0; i < cfg.nprocs; ++i) {
              cs.push_back(std::make_unique<mem::Cache>(
                  cfg.cache.bytes, cfg.cache.assoc, cfg.cache.blockBytes,
                  cfg.cache.seed + i));
          }
          return cs;
      }()),
      proto_(engine_, net_, shalloc_, store_, pointers(caches_), cfg_)
{
    nodes_.reserve(cfg_.nprocs);
    for (NodeId i = 0; i < cfg_.nprocs; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            engine_.proc(i), *this, store_, shalloc_, proto_,
            *caches_[i], cfg_, cfg_.nprocs));
    }
    reducer_ = std::make_unique<SmReducer>(shalloc_, cfg_.nprocs);
    engine_.addAudit([this] { audit(); });
}

void
SmMachine::audit() const
{
    audit::checkCycleConservation(engine_);
    proto_.auditConsistency();
}

std::size_t
SmMachine::createLock(NodeId home)
{
    locks_.push_back(
        std::make_unique<McsLock>(shalloc_, cfg_.nprocs, home));
    return locks_.size() - 1;
}

void
SmMachine::run(std::function<void(Node&)> body)
{
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        Node* n = nodes_[i].get();
        engine_.setBody(i, [n, body] { body(*n); });
    }
    engine_.run();
}

// --------------------------------------------------------------------
// Node
// --------------------------------------------------------------------

Addr
SmMachine::Node::gmalloc(std::size_t bytes, std::size_t align)
{
    proc.charge(10); // allocator bookkeeping
    return m_.shalloc_.galloc(bytes, id, align);
}

Addr
SmMachine::Node::gmallocLocal(std::size_t bytes, std::size_t align)
{
    proc.charge(10);
    return m_.shalloc_.gallocLocal(bytes, id, align);
}

void
SmMachine::Node::barrier()
{
    m_.barrier_.wait(proc);
}

void
SmMachine::Node::startupBarrier()
{
    stats::Attribution a = stats::appAttribution();
    a.barrier = stats::Category::StartupWait;
    sim::AttrScope scope(proc, a);
    m_.barrier_.wait(proc);
}

void
SmMachine::Node::lockAcquire(std::size_t lock_id)
{
    sim::AttrScope scope(
        proc, stats::lumpedAttribution(stats::Category::Lock));
    m_.locks_.at(lock_id)->acquire(mem);
    if (trace::Tracer* tr = proc.tracer())
        tr->lockAcquired(id, lock_id, proc.now());
}

void
SmMachine::Node::lockRelease(std::size_t lock_id)
{
    sim::AttrScope scope(
        proc, stats::lumpedAttribution(stats::Category::Lock));
    if (trace::Tracer* tr = proc.tracer())
        tr->lockReleased(id, lock_id, proc.now());
    m_.locks_.at(lock_id)->release(mem);
}

double
SmMachine::Node::reduce(double v, SmRedOp op,
                        const stats::Attribution& attr)
{
    sim::AttrScope scope(proc, attr);
    return m_.reducer_->reduce(mem, v, op);
}

std::pair<double, std::uint64_t>
SmMachine::Node::reduceMaxLoc(double v, std::uint64_t loc,
                              const stats::Attribution& attr)
{
    sim::AttrScope scope(proc, attr);
    return m_.reducer_->reduceMaxLoc(mem, v, loc);
}

} // namespace wwt::sm
