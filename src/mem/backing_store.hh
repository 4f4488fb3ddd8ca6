#pragma once

/**
 * @file
 * The target machine's physical memory contents.
 *
 * Direct execution requires the target program to really compute: the
 * values it loads and stores live here, addressed by 64-bit target
 * addresses. Storage is allocated lazily in 64 KB chunks and zero
 * initialized, so sparse address spaces (per-node private regions plus
 * a global shared region) cost only what they touch.
 *
 * The store is shared by all target processors. Translation goes
 * through a small per-store cache of chunk base pointers (stable for
 * the life of the store) in front of the chunk map.
 */

#include <array>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace wwt::mem
{

/** Lazily-allocated, chunked target memory. */
class BackingStore
{
  public:
    BackingStore() = default;

    // The chunk cache points into chunks_: a move hands both to the
    // new store and empties the old one's cache with its chunk map.
    BackingStore(BackingStore&& o) noexcept
        : cached_(std::exchange(o.cached_, {})),
          chunks_(std::move(o.chunks_))
    {
    }

    BackingStore&
    operator=(BackingStore&& o) noexcept
    {
        cached_ = std::exchange(o.cached_, {});
        chunks_ = std::move(o.chunks_);
        return *this;
    }

    static constexpr unsigned kChunkBits = 16; // 64 KB chunks
    static constexpr Addr kChunkBytes = Addr{1} << kChunkBits;
    static constexpr Addr kChunkMask = kChunkBytes - 1;

    /** Load a trivially-copyable value at naturally-aligned @p a. */
    template <typename T>
    T
    read(Addr a)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        assert((a & (sizeof(T) - 1)) == 0 && "unaligned target access");
        T v;
        std::memcpy(&v, ptr(a), sizeof(T));
        return v;
    }

    /** Store a trivially-copyable value at naturally-aligned @p a. */
    template <typename T>
    void
    write(Addr a, T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        assert((a & (sizeof(T) - 1)) == 0 && "unaligned target access");
        std::memcpy(ptr(a), &v, sizeof(T));
    }

    /** Copy @p n bytes out of target memory into host memory. */
    void readBytes(void* dst, Addr src, std::size_t n);

    /** Copy @p n bytes of host memory into target memory. */
    void writeBytes(Addr dst, const void* src, std::size_t n);

    /** Copy @p n bytes between target addresses. */
    void copy(Addr dst, Addr src, std::size_t n);

  private:
    char* ptr(Addr a);
    /** Find or lazily create @p chunk's storage (slow path). */
    char* chunkPtr(Addr chunk);

    /**
     * Small direct-mapped lookup cache: target code interleaves a few
     * regions (its own arrays, neighbors' arrays, the private heap),
     * so a single memoized chunk thrashes; a few hundred entries cover
     * the working set of every processor at once.
     */
    struct Cached {
        Addr chunk = 0;
        char* base = nullptr;
    };
    static constexpr std::size_t kWays = 256;

    /**
     * Cache slot of @p chunk. Private regions start 1 GB apart
     * (AddressMap::kPrivStride), i.e. 2^14 chunks apart, so the low
     * chunk bits alone put every processor's heap start on one slot;
     * folding in the bits above 14 spreads the processors out.
     */
    static std::size_t
    slotOf(Addr chunk)
    {
        return static_cast<std::size_t>(chunk ^ (chunk >> 14)) &
               (kWays - 1);
    }

    std::array<Cached, kWays> cached_{};
    sim::FlatMap<std::unique_ptr<char[]>> chunks_; // chunk number -> data
};

inline char*
BackingStore::ptr(Addr a)
{
    Addr chunk = a >> kChunkBits;
    Cached& c = cached_[slotOf(chunk)];
    if (c.chunk != chunk || c.base == nullptr) {
        c.chunk = chunk;
        c.base = chunkPtr(chunk);
    }
    return c.base + (a & kChunkMask);
}

} // namespace wwt::mem
