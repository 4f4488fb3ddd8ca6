#include "net/hw_barrier.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wwt::net
{

HwBarrier::HwBarrier(sim::Engine& engine, std::size_t nprocs, Cycle latency)
    : engine_(engine), nprocs_(nprocs), latency_(latency)
{
    if (nprocs == 0)
        throw std::invalid_argument("barrier needs participants");
    waiting_.reserve(nprocs);
}

void
HwBarrier::wait(sim::Processor& p)
{
    p.stats().counts().barriers++;
    // Register first, then block: the processor is released by the
    // event the last arrival schedules.
    arrive(p, p.now());
    p.blockFor(sim::CostKind::Barrier);
}

void
HwBarrier::arrive(sim::Processor& p, Cycle arrival)
{
    waiting_.push_back(&p);
    lastArrival_ = std::max(lastArrival_, arrival);

    if (waiting_.size() == nprocs_) {
        // Last arrival: release everyone latency_ cycles from now.
        Cycle release = lastArrival_ + latency_;
        std::vector<sim::Processor*> group;
        group.swap(waiting_);
        lastArrival_ = 0;
        ++episodes_;
        if (trace::Tracer* tr = engine_.tracer()) {
            tr->instant(tr->engineTrack(),
                        trace::InstantKind::BarrierRelease, release,
                        static_cast<std::uint32_t>(episodes_));
        }
        engine_.schedule(
            release,
            [group = std::move(group), release] {
                for (sim::Processor* w : group)
                    w->resume(release);
            },
            prof::Phase::Net);
    }
}

} // namespace wwt::net
