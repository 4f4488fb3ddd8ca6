#pragma once

/**
 * @file
 * One simulated target processor.
 *
 * A Processor owns a fiber on which the target program runs directly
 * (WWT-style direct execution): the program is real C++ code computing
 * real values, and it accounts for target time by charging cycles as
 * it goes. The memory system and communication layers report costs of
 * different *kinds* (computation, private-miss stall, shared-miss
 * stall, network-interface access, ...) which the active Attribution
 * frame maps onto the report categories of the paper's tables.
 *
 * A processor blocks (yielding its fiber to the engine) when target
 * hardware would stall it: a shared-memory miss held for the protocol
 * round trip, or a hardware barrier. Event handlers resume it with the
 * completion timestamp.
 */

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "prof/hostprof.hh"
#include "sim/fiber.hh"
#include "sim/types.hh"
#include "stats/proc_stats.hh"
#include "trace/tracer.hh"

namespace wwt::sim
{

class Engine;

/** The kind of cost being charged; mapped to a Category by scope. */
enum class CostKind : std::uint8_t {
    Comp,       ///< instruction execution (including cache hits)
    PrivMiss,   ///< stall on a miss to private/local data
    SharedMiss, ///< stall on a miss to shared data
    WriteFault, ///< stall upgrading a read-only block
    Tlb,        ///< TLB refill
    Net,        ///< network-interface loads/stores
    Barrier,    ///< waiting at a hardware barrier
};

/** Human-readable name of a cost kind (diagnostics, trace labels). */
const char* costKindName(CostKind k);

/** One simulated processor: a fiber, a local clock, and statistics. */
class Processor
{
  public:
    using Body = std::function<void()>;

    /** Execution state as seen by the engine. */
    enum class State : std::uint8_t {
        Idle,     ///< no body assigned
        Ready,    ///< runnable in the current or a later quantum
        Running,  ///< currently on its fiber
        Blocked,  ///< waiting for resume()
        Finished, ///< body returned
    };

    Processor(Engine& engine, NodeId id, std::size_t stack_bytes);

    NodeId id() const { return id_; }
    Cycle now() const { return clock_; }
    State state() const { return state_; }
    bool finished() const { return state_ == State::Finished; }
    bool ready() const { return state_ == State::Ready; }
    bool blocked() const { return state_ == State::Blocked; }

    Engine& engine() { return engine_; }
    stats::ProcStats& stats() { return stats_; }
    const stats::ProcStats& stats() const { return stats_; }

    /** Assign the program this processor runs. */
    void setBody(Body body);

    // ------------------------------------------------------------------
    // Called from *inside* the fiber (target program / libraries).
    // ------------------------------------------------------------------

    /** Charge @p n cycles of kind @p k and advance the local clock. */
    void
    advance(CostKind k, Cycle n)
    {
        assert(onFiber_ && "advance() outside the processor's fiber");
        stats::Category c = map(k);
        stats_.addCycles(c, n);
        Cycle t0 = clock_;
        clock_ += n;
        if (tracer_)
            tracer_->span(id_, c, t0, clock_);
        checkInterrupt();
        if (clock_ >= quantumEnd_)
            yieldFiber(State::Ready);
    }

    /** Charge @p n computation cycles. */
    void charge(Cycle n) { advance(CostKind::Comp, n); }

    /**
     * Block until another entity calls resume(). The stall time is
     * charged to kind @p k.
     * @return the local clock after resumption.
     */
    Cycle blockFor(CostKind k);

    /** The currently active attribution frame. */
    const stats::Attribution& attr() const { return attrStack_.back(); }

    void pushAttr(const stats::Attribution& a) { attrStack_.push_back(a); }
    void
    popAttr()
    {
        assert(attrStack_.size() > 1);
        attrStack_.pop_back();
    }

    // ------------------------------------------------------------------
    // Called from the engine / event-handler context.
    // ------------------------------------------------------------------

    /**
     * Make a blocked processor runnable again; its clock becomes
     * max(current clock, @p at).
     */
    void resume(Cycle at);

    /**
     * What the processor is (or was last) blocked on — the cost kind
     * passed to blockFor(). Used by the engine's deadlock diagnostic.
     * @return nullptr if the processor never blocked.
     */
    const char* blockCause() const { return blockCause_; }

    /** Attach (or detach, with nullptr) a flight recorder. */
    void setTracer(trace::Tracer* t) { tracer_ = t; }
    trace::Tracer* tracer() const { return tracer_; }

    // ------------------------------------------------------------------
    // Interrupt support (message-passing network interface).
    // ------------------------------------------------------------------

    /** Install the handler run inside the fiber on an interrupt. */
    void setInterruptHandler(std::function<void()> h);

    /** Globally enable/disable interrupt delivery. */
    void setInterruptsEnabled(bool on) { irqEnabled_ = on; }
    bool interruptsEnabled() const { return irqEnabled_; }

    /** Mark an interrupt pending (delivered at the next advance()). */
    void raiseInterrupt() { irqPending_ = true; }

    /**
     * Monotonic count of the points at which foreign code may have
     * run on behalf of this fiber: every fiber yield and every
     * delivered interrupt bumps it. A memory front end that sampled
     * machine state before a charge may keep trusting that sample
     * exactly when the generation is unchanged afterwards —
     * nothing else can have mutated the model in between (events
     * only run between fiber slices, handlers only at delivery).
     */
    std::uint64_t stallGen() const { return stallGen_; }

  private:
    friend class Engine;

    /** Engine side: run the fiber until it passes @p quantum_end. */
    void runUntil(Cycle quantum_end);

    stats::Category
    map(CostKind k) const
    {
        const stats::Attribution& a = attrStack_.back();
        switch (k) {
          case CostKind::Comp: return a.comp;
          case CostKind::PrivMiss: return a.privMiss;
          case CostKind::SharedMiss: return a.sharedMiss;
          case CostKind::WriteFault: return a.writeFault;
          case CostKind::Tlb: return a.tlb;
          case CostKind::Net: return a.net;
          case CostKind::Barrier: return a.barrier;
        }
        return a.comp;
    }

    void
    checkInterrupt()
    {
        if (irqPending_ && irqEnabled_ && !inIrq_ && irqHandler_) {
            inIrq_ = true;
            irqPending_ = false;
            irqHandler_();
            inIrq_ = false;
            ++stallGen_;
        }
    }

    void yieldFiber(State new_state);
    void fiberMain();

    Engine& engine_;
    NodeId id_;
    std::size_t stackBytes_;
    Body body_;
    std::unique_ptr<Fiber> fiber_;
    State state_ = State::Idle;
    Cycle clock_ = 0;
    Cycle quantumEnd_ = 0;
    bool onFiber_ = false;
    std::uint64_t stallGen_ = 0;
    const char* blockCause_ = nullptr;
    trace::Tracer* tracer_ = nullptr;
    stats::ProcStats stats_;
    std::vector<stats::Attribution> attrStack_{stats::appAttribution()};

    std::function<void()> irqHandler_;
    bool irqEnabled_ = false;
    bool irqPending_ = false;
    bool inIrq_ = false;

    /**
     * Host-profiler phase this fiber last ran under, saved and
     * restored by the engine around each runUntil slice so a
     * prof::ScopedPhase opened inside the fiber (memory-model miss
     * handling, mostly) survives yields without bleeding fiber time
     * into engine-side phases.
     */
    prof::Phase hostPhase_ = prof::Phase::Fiber;
};

/** RAII guard installing an attribution frame on a processor. */
class AttrScope
{
  public:
    AttrScope(Processor& p, const stats::Attribution& a) : p_(p)
    {
        p_.pushAttr(a);
    }
    ~AttrScope() { p_.popAttr(); }
    AttrScope(const AttrScope&) = delete;
    AttrScope& operator=(const AttrScope&) = delete;

  private:
    Processor& p_;
};

} // namespace wwt::sim
