#pragma once

/**
 * @file
 * Small-buffer callables and the event arena.
 *
 * Every hardware interaction in the simulator is an event: a closure
 * scheduled on the calendar or handed to the network for delivery.
 * std::function heap-allocates any capture larger than its tiny
 * internal buffer, which put one malloc/free pair on the critical path
 * of every protocol message and packet delivery. SmallFn instead stores
 * captures up to its template capacity inside the object itself, so
 * the calendar's backing vector IS the event storage; kEventInlineBytes
 * is sized for the largest hot-path closure (a directory-protocol
 * service request, ~80 bytes of captures). The rare oversized capture
 * is carved from CallbackArena, a recycling slab allocator, instead of
 * the general-purpose heap.
 *
 * SmallFn is move-only and calls are destructive of nothing: a moved-
 * from SmallFn is empty and must not be invoked. Determinism is
 * unaffected by any of this — storage strategy is invisible to the
 * simulated machine.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/check.hh"

namespace wwt::sim
{

/**
 * A recycling allocator for event captures that do not fit inline in
 * a SmallFn. Blocks are carved from large slabs and returned to a
 * free list on destruction, so steady-state simulation performs no
 * heap traffic even for oversized events. The free list is one
 * process-wide list; oversized captures are rare (see
 * docs/performance.md).
 */
class CallbackArena
{
  public:
    /** Fixed block size served by the free list (bytes). Requests
     *  larger than this fall through to the general-purpose heap. */
    static constexpr std::size_t kBlockBytes = 256;

    static void*
    alloc(std::size_t n)
    {
        if (n > kBlockBytes)
            return ::operator new(n);
        State& s = state();
        if (s.freeList != nullptr) {
            Node* b = s.freeList;
            s.freeList = b->next;
            ++s.reused;
            return b;
        }
        if (s.slabs.empty() || s.slabUsed + kBlockBytes > kSlabBytes) {
            s.slabs.push_back(
                std::make_unique<unsigned char[]>(kSlabBytes));
            s.slabUsed = 0;
        }
        void* p = s.slabs.back().get() + s.slabUsed;
        s.slabUsed += kBlockBytes;
        ++s.carved;
        return p;
    }

    static void
    release(void* p, std::size_t n) noexcept
    {
        if (n > kBlockBytes) {
            ::operator delete(p);
            return;
        }
        State& s = state();
        Node* b = static_cast<Node*>(p);
        b->next = s.freeList;
        s.freeList = b;
    }

    /** Blocks ever carved from slabs (monotonic; diagnostics). */
    static std::uint64_t
    blocksCarved()
    {
        return state().carved;
    }

    /** Free-list grants that recycled a previously released block. */
    static std::uint64_t
    blocksReused()
    {
        return state().reused;
    }

  private:
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    struct Node {
        Node* next;
    };
    static_assert(sizeof(Node) <= kBlockBytes);

    struct State {
        std::vector<std::unique_ptr<unsigned char[]>> slabs;
        std::size_t slabUsed = 0;
        Node* freeList = nullptr;
        std::uint64_t carved = 0;
        std::uint64_t reused = 0;
    };

    static State&
    state()
    {
        static State s;
        return s;
    }
};

/**
 * A move-only void() callable with @p Inline bytes of in-object
 * capture storage and a CallbackArena fallback for larger captures.
 */
template <std::size_t Inline>
class SmallFn
{
  public:
    SmallFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    SmallFn(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
        } else {
            void* p = CallbackArena::alloc(sizeof(Fn));
            ::new (p) Fn(std::forward<F>(f));
            heap_ = p;
        }
        ops_ = &opsFor<Fn>;
    }

    SmallFn(SmallFn&& o) noexcept { moveFrom(o); }

    SmallFn&
    operator=(SmallFn&& o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn&) = delete;
    SmallFn& operator=(const SmallFn&) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void
    operator()()
    {
        WWT_AUDIT(ops_ != nullptr, "invoked an empty SmallFn");
        ops_->call(*this);
    }

    /** True when the capture lives inside this object (diagnostics). */
    bool
    inlineStored() const noexcept
    {
        return ops_ != nullptr && ops_->isInline;
    }

  private:
    struct Ops {
        void (*call)(SmallFn&);
        void (*relocate)(SmallFn& from, SmallFn& to) noexcept;
        void (*destroy)(SmallFn&) noexcept;
        bool isInline;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Inline &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static Fn*
    target(SmallFn& s) noexcept
    {
        if constexpr (fitsInline<Fn>())
            return std::launder(reinterpret_cast<Fn*>(s.buf_));
        else
            return static_cast<Fn*>(s.heap_);
    }

    template <typename Fn>
    static void
    doCall(SmallFn& s)
    {
        (*target<Fn>(s))();
    }

    template <typename Fn>
    static void
    doRelocate(SmallFn& from, SmallFn& to) noexcept
    {
        if constexpr (fitsInline<Fn>()) {
            Fn* src = target<Fn>(from);
            ::new (static_cast<void*>(to.buf_)) Fn(std::move(*src));
            src->~Fn();
        } else {
            to.heap_ = from.heap_;
        }
    }

    template <typename Fn>
    static void
    doDestroy(SmallFn& s) noexcept
    {
        if constexpr (fitsInline<Fn>()) {
            target<Fn>(s)->~Fn();
        } else {
            Fn* p = target<Fn>(s);
            p->~Fn();
            CallbackArena::release(p, sizeof(Fn));
        }
    }

    template <typename Fn>
    static constexpr Ops opsFor{&doCall<Fn>, &doRelocate<Fn>,
                                &doDestroy<Fn>, fitsInline<Fn>()};

    void
    moveFrom(SmallFn& o) noexcept
    {
        ops_ = o.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(o, *this);
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

    union {
        alignas(std::max_align_t) unsigned char buf_[Inline];
        void* heap_;
    };
    const Ops* ops_ = nullptr;
};

/** Inline capture capacity of an event callback (bytes). */
inline constexpr std::size_t kEventInlineBytes = 88;

/** The callable type carried by every calendar event. */
using EventFn = SmallFn<kEventInlineBytes>;

} // namespace wwt::sim
