#include "sim/fiber.hh"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace wwt::sim
{

Fiber::Fiber(std::size_t stack_bytes, Entry entry)
    : entry_(std::move(entry)),
      stack_(new char[stack_bytes]),
      stackBytes_(stack_bytes)
{
    if (!entry_)
        throw std::invalid_argument("Fiber requires a non-empty entry");
}

void
Fiber::trampoline(unsigned int hi, unsigned int lo)
{
    auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
               static_cast<std::uintptr_t>(lo);
    reinterpret_cast<Fiber*>(ptr)->runEntry();
}

void
Fiber::runEntry()
{
    entry_();
    finished_ = true;
    // Return control to the caller forever; switching back to a
    // finished fiber is a caller bug caught in switchTo().
    _longjmp(callerJb_, 1);
}

void
Fiber::switchTo()
{
    assert(!finished_ && "switchTo() on a finished fiber");
    // Steady state uses _setjmp/_longjmp, which (unlike swapcontext)
    // does not issue a sigprocmask system call per switch — switches
    // happen tens of millions of times per simulation.
    if (_setjmp(callerJb_) != 0)
        return; // the fiber yielded or finished
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
        _longjmp(callerJb_, 1);
    }
}

} // namespace wwt::sim
