#pragma once

/**
 * @file
 * An open-addressed hash table for the simulator's hot lookups.
 *
 * The backing store's chunk map, the TLB's page set and the
 * directory protocol's in-flight transactions key on a 64-bit address
 * and sit on the per-access path; the per-node channel endpoints key
 * on a channel id. std::unordered_map pays a heap node and a pointer
 * chase per entry; FlatMap keeps keys in one contiguous array
 * (probing touches only the key array, not the values) with linear
 * probing over a power-of-two capacity, so the common hit is one
 * cache line of keys. (The directory itself and the shared
 * allocator's page homes are dense arrays indexed by offset into the
 * shared segment, not hash tables.)
 *
 * Semantics, chosen for the call sites above:
 *  - keys are std::uint64_t; values need only be default-constructible
 *    and movable (move-only values such as unique_ptr are fine);
 *  - erase() uses backward-shift deletion, so there are no tombstones
 *    and lookup cost never degrades with churn (the TLB erases on
 *    every FIFO eviction);
 *  - references returned by operator[]/find() are invalidated by any
 *    later insertion (the table may rehash) — unlike unordered_map.
 *    Callers that hold a value reference must not insert new keys
 *    while it is live.
 *
 * Iteration (forEach) visits entries in table order, which depends on
 * the hash — callers that need deterministic output must sort what
 * they collect, as they would for unordered_map.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wwt::sim
{

template <typename V>
class FlatMap
{
  public:
    /**
     * @param initial_slots capacity to start with, rounded up to a
     * power of two. Tables that usually hold a few keys and exist once
     * per simulated node (channel endpoints) start at 1 so machine
     * construction does not allocate slots nobody uses.
     */
    explicit FlatMap(std::size_t initial_slots = 16)
    {
        std::size_t n = 1;
        while (n < initial_slots)
            n <<= 1;
        rebuild(n);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * The value for @p key, default-constructed if absent. Access to
     * an existing key never rehashes — only inserting a new one can —
     * so re-looking-up a known-present key is reference-safe even
     * with other lookups interleaved.
     */
    V&
    operator[](std::uint64_t key)
    {
        std::size_t i = probe(key);
        if (state_[i] == 0) {
            if ((size_ + 1) * 10 > slots() * 7) {
                rebuild(slots() * 2);
                i = probe(key);
            }
            state_[i] = 1;
            keys_[i] = key;
            ++size_;
        }
        return values_[i];
    }

    V*
    find(std::uint64_t key)
    {
        std::size_t i = probe(key);
        return state_[i] != 0 ? &values_[i] : nullptr;
    }

    const V*
    find(std::uint64_t key) const
    {
        std::size_t i = const_cast<FlatMap*>(this)->probe(key);
        return state_[i] != 0 ? &values_[i] : nullptr;
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = probe(key);
        if (state_[i] == 0)
            return false;
        // Backward-shift deletion: walk the probe cluster after the
        // hole and pull back every entry whose home slot precedes the
        // hole in probe order, so lookups never need tombstones.
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (state_[j] == 0)
                break;
            std::size_t home = indexOf(keys_[j]);
            bool between = (i <= j) ? (home <= i || home > j)
                                    : (home <= i && home > j);
            if (between) {
                keys_[i] = keys_[j];
                values_[i] = std::move(values_[j]);
                i = j;
            }
        }
        state_[i] = 0;
        values_[i] = V{};
        --size_;
        return true;
    }

    void
    clear()
    {
        std::fill(state_.begin(), state_.end(), std::uint8_t{0});
        for (V& v : values_)
            v = V{};
        size_ = 0;
    }

    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (n * 10 > want * 7)
            want <<= 1;
        if (want > slots())
            rebuild(want);
    }

    /** Visit every (key, value) pair in unspecified table order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < slots(); ++i)
            if (state_[i] != 0)
                fn(keys_[i], values_[i]);
    }

  private:
    std::size_t slots() const { return mask_ + 1; }

    static std::size_t
    mix(std::uint64_t x)
    {
        // splitmix64 finalizer: full-avalanche, so block addresses
        // (low bits identical within a page) spread across the table.
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }

    std::size_t indexOf(std::uint64_t key) const { return mix(key) & mask_; }

    /** First slot that is empty or holds @p key. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t i = indexOf(key);
        while (state_[i] != 0 && keys_[i] != key)
            i = (i + 1) & mask_;
        return i;
    }

    void
    rebuild(std::size_t n)
    {
        std::vector<std::uint64_t> oldKeys = std::move(keys_);
        std::vector<V> oldValues = std::move(values_);
        std::vector<std::uint8_t> oldState = std::move(state_);
        keys_.assign(n, 0);
        values_.clear();
        values_.resize(n);
        state_.assign(n, 0);
        mask_ = n - 1;
        for (std::size_t i = 0; i < oldState.size(); ++i) {
            if (oldState[i] == 0)
                continue;
            std::size_t j = probe(oldKeys[i]);
            state_[j] = 1;
            keys_[j] = oldKeys[i];
            values_[j] = std::move(oldValues[i]);
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<V> values_;
    std::vector<std::uint8_t> state_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace wwt::sim
