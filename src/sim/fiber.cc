#include "sim/fiber.hh"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define WWT_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WWT_FIBER_ASAN 1
#endif
#endif
#if defined(WWT_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
extern "C" {
/**
 * Save the callee-saved state on the running stack, store the stack
 * pointer to *save_sp, switch to load_sp and restore the state saved
 * there. Returns on the other stack.
 */
void wwt_fiber_switch(void** save_sp, void* load_sp);
/** Entered by wwt_fiber_switch's `ret` on a fresh stack. */
void wwt_fiber_thunk();
}

// Frame layout, from the saved stack pointer upwards: MXCSR (4 bytes)
// and x87 control word (2 bytes) in one 8-byte slot, then r15, r14,
// r13, r12, rbx, rbp and the return address. Both sides of a switch
// use this layout, so the unwind notes below stay true after the stack
// pointer changes hands. The System V ABI makes exactly these
// registers and the two control words callee-saved; the x87 and SSE
// data registers and the status flags are caller-saved, so the call
// into wwt_fiber_switch already spilled whatever the compiler needed.
asm(R"(
    .text
    .p2align 4
    .globl wwt_fiber_switch
    .hidden wwt_fiber_switch
    .type wwt_fiber_switch, @function
wwt_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    pushq %r12
    .cfi_adjust_cfa_offset 8
    pushq %r13
    .cfi_adjust_cfa_offset 8
    pushq %r14
    .cfi_adjust_cfa_offset 8
    pushq %r15
    .cfi_adjust_cfa_offset 8
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size wwt_fiber_switch, .-wwt_fiber_switch

    .p2align 4
    .globl wwt_fiber_thunk
    .hidden wwt_fiber_thunk
    .type wwt_fiber_thunk, @function
wwt_fiber_thunk:
    .cfi_startproc
    .cfi_undefined rip
    xorl %ebp, %ebp
    movq %r12, %rdi
    andq $-16, %rsp
    callq *%rbx
    ud2
    .cfi_endproc
    .size wwt_fiber_thunk, .-wwt_fiber_thunk
)");
#endif

namespace wwt::sim
{

namespace
{

// AddressSanitizer must be told before and after every stack change,
// or it reports the other stack's frames as overflows. The "bottom"
// arguments name the stack being entered.
inline void
asanLeave(void** fake_save, const void* bottom, std::size_t size)
{
#if defined(WWT_FIBER_ASAN)
    __sanitizer_start_switch_fiber(fake_save, bottom, size);
#else
    (void)fake_save;
    (void)bottom;
    (void)size;
#endif
}

inline void
asanArrive(void* fake_save, const void** bottom_old, std::size_t* size_old)
{
#if defined(WWT_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(fake_save, bottom_old, size_old);
#else
    (void)fake_save;
    (void)bottom_old;
    (void)size_old;
#endif
}

} // namespace

Fiber::Fiber(std::size_t stack_bytes, Entry entry)
    : entry_(std::move(entry)),
      stack_(new char[stack_bytes]),
      stackBytes_(stack_bytes)
{
    if (!entry_)
        throw std::invalid_argument("Fiber requires a non-empty entry");
    if (stack_bytes < 4096)
        throw std::invalid_argument("Fiber stack must be at least 4 KB");
#if defined(__x86_64__)
    // Prime the stack as if wwt_fiber_switch had saved it: the first
    // switch pops zeroed registers (r12 = this, rbx = start) and the
    // creator's MXCSR/x87 control word, then "returns" into the thunk
    // with the stack pointer at top - 8, as after a call. The thunk
    // realigns to 16 bytes before calling start().
    std::uintptr_t top =
        (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes) &
        ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<std::uint64_t*>(top) - 9;
    std::uint32_t mxcsr = __builtin_ia32_stmxcsr();
    std::uint16_t fcw = 0;
    asm volatile("fnstcw %0" : "=m"(fcw));
    frame[0] = mxcsr | (std::uint64_t{fcw} << 32);
    frame[1] = 0;                                     // r15
    frame[2] = 0;                                     // r14
    frame[3] = 0;                                     // r13
    frame[4] = reinterpret_cast<std::uintptr_t>(this); // r12
    frame[5] = reinterpret_cast<std::uintptr_t>(&start); // rbx
    frame[6] = 0;                                     // rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&wwt_fiber_thunk);
    frame[8] = 0; // the thunk's return address: end of the call chain
    fiberSp_ = frame;
#endif
}

void
Fiber::start(Fiber* self)
{
    asanArrive(nullptr, &self->callerBottom_, &self->callerSize_);
    // Unwinding must stop here: nothing above this frame knows how
    // to unwind onto the caller's stack. The handler ends before the
    // switch below, so no caught exception stays live across stacks.
    try {
        self->entry_();
    } catch (...) {
        self->error_ = std::current_exception();
    }
    self->finished_ = true;
    // Leave forever (a null save slot frees the fake stack); switching
    // back to a finished fiber is a caller bug caught in switchTo().
    asanLeave(nullptr, self->callerBottom_, self->callerSize_);
#if defined(__x86_64__)
    wwt_fiber_switch(&self->fiberSp_, self->callerSp_);
    __builtin_unreachable();
#else
    _longjmp(self->callerJb_, 1);
#endif
}

#if defined(__x86_64__)

void
Fiber::switchTo()
{
    assert(!finished_ && "switchTo() on a finished fiber");
    asanLeave(&callerFake_, stack_.get(), stackBytes_);
    wwt_fiber_switch(&callerSp_, fiberSp_);
    asanArrive(callerFake_, nullptr, nullptr);
}

void
Fiber::yieldToCaller()
{
    asanLeave(&fiberFake_, callerBottom_, callerSize_);
    wwt_fiber_switch(&fiberSp_, callerSp_);
    asanArrive(fiberFake_, &callerBottom_, &callerSize_);
}

#else // !__x86_64__: ucontext for the first entry, then _setjmp/_longjmp

void
Fiber::trampoline(unsigned int hi, unsigned int lo)
{
    auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
               static_cast<std::uintptr_t>(lo);
    start(reinterpret_cast<Fiber*>(ptr));
}

void
Fiber::switchTo()
{
    assert(!finished_ && "switchTo() on a finished fiber");
    // Steady state uses _setjmp/_longjmp, which (unlike swapcontext)
    // does not issue a sigprocmask system call per switch.
    if (_setjmp(callerJb_) != 0) {
        asanArrive(callerFake_, nullptr, nullptr);
        return; // the fiber yielded or finished
    }
    asanLeave(&callerFake_, stack_.get(), stackBytes_);
    if (!started_) {
        started_ = true;
        if (getcontext(&ctx_) != 0)
            throw std::runtime_error("getcontext failed");
        ctx_.uc_stack.ss_sp = stack_.get();
        ctx_.uc_stack.ss_size = stackBytes_;
        ctx_.uc_link = nullptr;
        auto ptr = reinterpret_cast<std::uintptr_t>(this);
        makecontext(&ctx_, reinterpret_cast<void (*)()>(&trampoline), 2,
                    static_cast<unsigned int>(ptr >> 32),
                    static_cast<unsigned int>(ptr & 0xffffffffu));
        // First entry must build the new stack frame: one-time
        // swapcontext. Control comes back via _longjmp(callerJb_).
        swapcontext(&callerCtx_, &ctx_);
        return; // unreachable in practice (yield uses _longjmp)
    }
    _longjmp(fiberJb_, 1);
}

void
Fiber::yieldToCaller()
{
    if (_setjmp(fiberJb_) == 0) {
        asanLeave(&fiberFake_, callerBottom_, callerSize_);
        _longjmp(callerJb_, 1);
    }
    asanArrive(fiberFake_, &callerBottom_, &callerSize_);
}

#endif

} // namespace wwt::sim
