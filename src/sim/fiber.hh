#pragma once

/**
 * @file
 * A cooperatively-scheduled execution context (fiber).
 *
 * Each simulated target processor runs its program on a fiber so the
 * discrete-event engine can suspend it mid-execution (at a cache miss,
 * a barrier, or a quantum boundary) and resume it later, exactly as the
 * Wisconsin Wind Tunnel suspends a target thread at a simulated miss.
 *
 * The implementation uses POSIX ucontext, like gem5's Fiber class.
 * All fibers are entered from the engine's one host thread.
 */

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>

namespace wwt::sim
{

/**
 * One suspendable execution context with its own stack.
 *
 * A fiber is always entered from the engine's (main) context via
 * switchTo() and gives control back via yieldToCaller(). Nested fibers
 * are not supported: control always bounces between the engine and one
 * fiber.
 */
class Fiber
{
  public:
    using Entry = std::function<void()>;

    /**
     * Create a fiber that will run @p entry when first switched to.
     * @param stack_bytes stack size for the fiber's execution.
     * @param entry the function the fiber executes.
     */
    Fiber(std::size_t stack_bytes, Entry entry);

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /**
     * Transfer control from the caller (engine) into the fiber.
     * Returns when the fiber yields or its entry function returns.
     * @pre !finished()
     */
    void switchTo();

    /** Transfer control from inside the fiber back to the caller. */
    void yieldToCaller();

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

  private:
    static void trampoline(unsigned int hi, unsigned int lo);
    void runEntry();

    Entry entry_;
    std::unique_ptr<char[]> stack_;
    std::size_t stackBytes_;
    ucontext_t ctx_{};       ///< first entry only
    ucontext_t callerCtx_{}; ///< first entry only
    jmp_buf callerJb_{};     ///< steady-state switch target (caller)
    jmp_buf fiberJb_{};      ///< steady-state switch target (fiber)
    bool started_ = false;
    bool finished_ = false;
};

} // namespace wwt::sim
