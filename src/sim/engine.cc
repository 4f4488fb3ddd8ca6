#include "sim/engine.hh"

#include "audit/check.hh"
#include "prof/hostprof.hh"

#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace wwt::sim
{

Engine::Engine(std::size_t nprocs, Cycle quantum, std::size_t stack_bytes)
    : quantum_(quantum)
{
    if (nprocs == 0)
        throw std::invalid_argument("Engine needs at least one processor");
    if (quantum == 0)
        throw std::invalid_argument("quantum must be positive");
    procs_.reserve(nprocs);
    for (std::size_t i = 0; i < nprocs; ++i) {
        procs_.push_back(std::make_unique<Processor>(
            *this, static_cast<NodeId>(i), stack_bytes));
    }
}

trace::Tracer&
Engine::enableTracing(std::size_t cap_per_track)
{
    if (!tracer_) {
        tracer_ = std::make_unique<trace::Tracer>(
            procs_.size(), cap_per_track ? cap_per_track
                                         : trace::Tracer::kDefaultCapacity);
        for (auto& p : procs_)
            p->setTracer(tracer_.get());
    }
    return *tracer_;
}

void
Engine::setBody(NodeId id, Processor::Body body)
{
    procs_.at(id)->setBody(std::move(body));
}

void
Engine::addAudit(std::function<void()> fn)
{
    audits_.push_back(std::move(fn));
}

void
Engine::runAudits() const
{
    for (const auto& fn : audits_)
        fn();
}

Cycle
Engine::elapsed() const
{
    Cycle t = 0;
    for (const auto& p : procs_)
        t = std::max(t, p->now());
    return t;
}

void
Engine::runUntilPhased(Processor& p, Cycle quantum_end)
{
    constexpr prof::Phase Phase_Fiber = prof::Phase::Fiber;
    if (!prof::enabled()) {
        p.runUntil(quantum_end);
        return;
    }
    // Swap in the phase the fiber was last running under; on return
    // (any yield) save where the fiber got to, so a scope opened
    // inside the fiber resumes correctly on the next slice.
    //
    // run() executes slices under an enclosing Fiber phase, and a
    // fiber's phase is Fiber unless it yielded mid-scope (rare with
    // duty-sampled memory scopes), so the common case is "nothing to
    // swap": skip the clock reads entirely unless the saved phase
    // differs from Fiber. At ~one slice per processor per quantum
    // this elision, not the scope granularity, is what keeps engine
    // overhead within budget.
    if (p.hostPhase_ != Phase_Fiber)
        prof::exchangePhase(p.hostPhase_);
    p.runUntil(quantum_end);
    p.hostPhase_ = prof::currentPhase();
    if (p.hostPhase_ != Phase_Fiber)
        prof::exchangePhase(Phase_Fiber);
}

void
Engine::idleSkipOrDeadlock()
{
    // Nothing happened in this window: skip ahead to the next
    // interesting time, or report a deadlock if there is none.
    Cycle next = events_.nextTime();
    for (const auto& p : procs_) {
        if (p->ready())
            next = std::min(next, p->now());
    }
    if (next == kCycleMax) {
        std::ostringstream msg;
        msg << "simulation deadlock at cycle " << quantumStart_
            << "; blocked processors:";
        bool any = false;
        for (const auto& p : procs_) {
            if (!p->blocked())
                continue;
            msg << (any ? "," : "") << " proc " << p->id() << " @ "
                << p->now() << " ("
                << (p->blockCause() ? p->blockCause() : "unknown")
                << ")";
            any = true;
        }
        if (!any)
            msg << " none (idle processors never resumed)";
        throw std::runtime_error(msg.str());
    }
    if (tracer_) {
        Cycle skip = next - quantumStart_;
        tracer_->instant(
            tracer_->engineTrack(), trace::InstantKind::IdleSkip,
            quantumStart_,
            static_cast<std::uint32_t>(
                std::min<Cycle>(skip, 0xffffffffu)));
    }
    quantumStart_ = (next / quantum_) * quantum_;
}

void
Engine::run()
{
    // The loop's termination test is a live-processor count, not a
    // per-quantum scan of every processor's state: a processor leaves
    // the live set only inside its own runUntil slice (nothing
    // un-finishes a processor), so decrementing right after the slice
    // is exact and saves one full pass over the processor array per
    // quantum — a measurable slice of host time at ~1 quantum per 100
    // simulated cycles.
    std::size_t live = 0;
    for (const auto& p : procs_) {
        Processor::State s = p->state();
        if (s != Processor::State::Idle && s != Processor::State::Finished)
            ++live;
    }
    // Two phase transitions per quantum, not per scope: the quantum
    // body alternates EventDrain (queue drain + its trace instant)
    // and Fiber (processor slices plus the quantum-boundary audit
    // scan, which is fiber bookkeeping). runUntilPhased sees the
    // enclosing Fiber phase and elides its own swaps in the common
    // case, so this pair of clock reads is the whole per-quantum
    // profiling cost.
    prof::Phase outer0 = prof::currentPhase();
    while (live != 0) {
        Cycle qend = quantumStart_ + quantum_;
        prof::exchangePhase(prof::Phase::EventDrain);
        std::size_t nev = events_.runUntil(qend);
        if (tracer_ && nev != 0) {
            tracer_->instant(tracer_->engineTrack(),
                             trace::InstantKind::QuantumEvents,
                             quantumStart_,
                             static_cast<std::uint32_t>(nev));
        }
        prof::exchangePhase(prof::Phase::Fiber);

        bool ran = false;
        for (auto& p : procs_) {
            if (p->ready() && p->now() < qend) {
                runUntilPhased(*p, qend);
                ran = true;
                if (p->state() == Processor::State::Finished) {
                    --live;
                    // A body that threw finished its fiber there; the
                    // exception continues on this stack.
                    if (std::exception_ptr err = p->fiber_->error()) {
                        prof::exchangePhase(outer0);
                        std::rethrow_exception(err);
                    }
                }
            }
        }

        if (ran) {
            for (auto& p : procs_) {
                WWT_AUDIT(!p->ready() || p->now() >= qend,
                          "quantum boundary: proc "
                              << p->id() << " is ready at cycle "
                              << p->now() << " inside quantum ending at "
                              << qend);
            }
        }

        if (nev != 0 || ran) {
            quantumStart_ = qend;
            continue;
        }
        if (live != 0)
            idleSkipOrDeadlock();
    }
    prof::exchangePhase(outer0);
    {
        prof::ScopedPhase au(prof::Phase::Audit);
        runAudits();
    }
}

} // namespace wwt::sim
