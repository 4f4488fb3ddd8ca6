#pragma once

/**
 * @file
 * A cooperatively-scheduled execution context (fiber).
 *
 * Each simulated target processor runs its program on a fiber so the
 * discrete-event engine can suspend it mid-execution (at a cache miss,
 * a barrier, or a quantum boundary) and resume it later, exactly as the
 * Wisconsin Wind Tunnel suspends a target thread at a simulated miss.
 * All fibers are entered from the engine's one host thread.
 *
 * On x86-64 a switch is one hand-written assembly routine (fiber.cc):
 * it pushes the six callee-saved integer registers (rbx, rbp,
 * r12-r15), the MXCSR and the x87 control word onto the running
 * stack, stores the stack pointer, loads the other side's and pops the
 * same state from there. A new fiber's stack is primed to "return"
 * into a start thunk with a 16-byte-aligned frame, and with the MXCSR
 * and x87 control word its creator had. Under AddressSanitizer every
 * switch is announced with the sanitizer's fiber hooks. Elsewhere the
 * build falls back to POSIX ucontext for the first entry and
 * _setjmp/_longjmp for every later switch.
 *
 * An exception escaping the entry function is caught on the fiber's
 * own stack and the fiber finishes; the caller collects it through
 * error() and rethrows it on its own stack.
 */

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if !defined(__x86_64__)
#include <setjmp.h>
#include <ucontext.h>
#endif

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

    /** True once the entry function has returned or thrown. */
    bool finished() const { return finished_; }

    /** The exception that escaped the entry function, if any. */
    std::exception_ptr error() const { return error_; }

  private:
    /** First frame on the fiber's stack: run the entry, then leave. */
    [[noreturn]] static void start(Fiber* self);

    Entry entry_;
    std::unique_ptr<char[]> stack_;
    std::size_t stackBytes_;
#if defined(__x86_64__)
    void* fiberSp_ = nullptr;  ///< fiber's stack pointer while it is out
    void* callerSp_ = nullptr; ///< caller's stack pointer while it runs
#else
    ucontext_t ctx_{};       ///< first entry only
    ucontext_t callerCtx_{}; ///< first entry only
    jmp_buf callerJb_{};     ///< steady-state switch target (caller)
    jmp_buf fiberJb_{};      ///< steady-state switch target (fiber)
    bool started_ = false;
    static void trampoline(unsigned int hi, unsigned int lo);
#endif
    // AddressSanitizer bookkeeping: the caller's stack bounds, learnt
    // on the first entry, and each side's fake-stack handle.
    const void* callerBottom_ = nullptr;
    std::size_t callerSize_ = 0;
    void* callerFake_ = nullptr;
    void* fiberFake_ = nullptr;
    std::exception_ptr error_;
    bool finished_ = false;
};

} // namespace wwt::sim
