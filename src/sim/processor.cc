#include "sim/processor.hh"

#include <stdexcept>
#include <utility>

#include "sim/engine.hh"

namespace wwt::sim
{

const char*
costKindName(CostKind k)
{
    switch (k) {
      case CostKind::Comp: return "computation";
      case CostKind::PrivMiss: return "private-miss";
      case CostKind::SharedMiss: return "shared-miss";
      case CostKind::WriteFault: return "write-fault";
      case CostKind::Tlb: return "tlb-refill";
      case CostKind::Net: return "network-interface";
      case CostKind::Barrier: return "barrier";
      default: return "?";
    }
}

namespace
{

/** Which latency histogram (if any) a blocking stall feeds. */
const trace::LatencyKind*
stallLatencyKind(CostKind k)
{
    static constexpr trace::LatencyKind miss = trace::LatencyKind::MissStall;
    static constexpr trace::LatencyKind wf = trace::LatencyKind::WriteFault;
    static constexpr trace::LatencyKind bar =
        trace::LatencyKind::BarrierWait;
    switch (k) {
      case CostKind::PrivMiss:
      case CostKind::SharedMiss: return &miss;
      case CostKind::WriteFault: return &wf;
      case CostKind::Barrier: return &bar;
      default: return nullptr;
    }
}

} // namespace

Processor::Processor(Engine& engine, NodeId id, std::size_t stack_bytes)
    : engine_(engine), id_(id), stackBytes_(stack_bytes)
{
}

void
Processor::setBody(Body body)
{
    if (state_ != State::Idle)
        throw std::logic_error("Processor body already set");
    body_ = std::move(body);
    fiber_ = std::make_unique<Fiber>(stackBytes_, [this] { fiberMain(); });
    state_ = State::Ready;
}

void
Processor::fiberMain()
{
    body_();
    // State is set to Finished by runUntil() when the fiber returns.
}

Cycle
Processor::blockFor(CostKind k)
{
    assert(onFiber_ && "blockFor() outside the processor's fiber");
    Cycle t0 = clock_;
    blockCause_ = costKindName(k);
    yieldFiber(State::Blocked);
    // Resumed: resume() advanced our clock to the completion time.
    stats_.addCycles(map(k), clock_ - t0);
    if (tracer_) {
        tracer_->span(id_, map(k), t0, clock_);
        if (const trace::LatencyKind* lk = stallLatencyKind(k))
            tracer_->latency(*lk, clock_ - t0);
    }
    checkInterrupt();
    return clock_;
}

void
Processor::resume(Cycle at)
{
    if (state_ != State::Blocked)
        throw std::logic_error("resume() on a processor that is not "
                               "blocked");
    if (at > clock_)
        clock_ = at;
    state_ = State::Ready;
}

void
Processor::setInterruptHandler(std::function<void()> h)
{
    irqHandler_ = std::move(h);
}

void
Processor::yieldFiber(State new_state)
{
    state_ = new_state;
    onFiber_ = false;
    fiber_->yieldToCaller();
    // Back on the fiber: the engine set state_ = Running. Events may
    // have run while we were off the fiber — invalidate pre-yield
    // machine-state samples.
    ++stallGen_;
    onFiber_ = true;
}

void
Processor::runUntil(Cycle quantum_end)
{
    assert(state_ == State::Ready);
    quantumEnd_ = quantum_end;
    state_ = State::Running;
    onFiber_ = true;
    fiber_->switchTo();
    onFiber_ = false;
    if (fiber_->finished())
        state_ = State::Finished;
    else if (state_ == State::Running)
        state_ = State::Ready; // yielded at the quantum boundary
}

} // namespace wwt::sim
