#pragma once

/**
 * @file
 * The set-associative cache model shared by both simulated machines.
 *
 * Table 1 parameters: 256 KB, 4-way set associative, 32-byte blocks,
 * random replacement. The same structure holds private blocks (both
 * machines) and shared blocks (the Dir_nNB machine), distinguished by
 * line state: private data lives in Exclusive lines, shared data in
 * Shared (read-only) or Exclusive (writable) lines managed by the
 * directory protocol.
 *
 * The cache is a pure state container: costs and counting are applied
 * by the machine models that own it.
 */

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace wwt::mem
{

class FastHitFilter;

/** Coherence/validity state of one cache line. */
enum class LineState : std::uint8_t {
    Invalid,
    Shared,    ///< read-only copy (shared data under the protocol)
    Exclusive, ///< writable; private data always lives here
};

/** One cache line; @c block is the full block number (addr >> 5). */
struct Line {
    Addr block = 0;
    LineState state = LineState::Invalid;
    bool dirty = false;
};

/** Information about a line displaced by insert() or remove(). */
struct Victim {
    bool valid = false; ///< a valid line was displaced
    Addr block = 0;
    LineState state = LineState::Invalid;
    bool dirty = false;
};

/** A set-associative cache with seeded random replacement. */
class Cache
{
  public:
    /**
     * @param bytes total capacity; must be a power-of-two multiple of
     *        @p assoc * @p block_bytes.
     * @param assoc associativity.
     * @param block_bytes line size (32 in the paper).
     * @param seed replacement-PRNG seed (determinism).
     */
    Cache(std::size_t bytes, std::size_t assoc, std::size_t block_bytes,
          std::uint64_t seed);

    /** Block number containing address @p a. */
    Addr blockOf(Addr a) const { return a >> blockBits_; }

    /** First byte address of block number @p block. */
    Addr addrOf(Addr block) const { return block << blockBits_; }

    std::size_t blockBytes() const { return std::size_t{1} << blockBits_; }
    std::size_t numSets() const { return sets_; }
    std::size_t assoc() const { return assoc_; }

    /** Find the line holding @p block, or nullptr. */
    Line* find(Addr block);
    const Line* find(Addr block) const;

    /**
     * Insert @p block (which must not be present), evicting a random
     * way if the set is full. Invalid ways are used first.
     * @return the displaced line, if any.
     */
    Victim insert(Addr block, LineState state, bool dirty);

    /**
     * insert() variant also exposing the installed line so callers
     * can memoize it (the fast-hit filter). The pointer stays valid
     * for the cache's lifetime: the line array never reallocates.
     */
    Line* insert(Addr block, LineState state, bool dirty, Victim* victim);

    /** Remove @p block if present, reporting what it was. */
    Victim remove(Addr block);

    /** Invalidate every line (e.g. between benchmark repetitions). */
    void reset();

    /**
     * Attach the fast-hit filter that memoizes this cache's lines.
     * From then on every line death — an insert's victim, a remove(),
     * a reset() — is reported to it, so the filter never holds a line
     * that no longer holds its block. @p f must outlive the cache's
     * use (nullptr detaches).
     */
    void setFilter(FastHitFilter* f) { filter_ = f; }

    /** Count of currently valid lines (tests/diagnostics). */
    std::size_t validLines() const;

    /** Visit every valid line. */
    template <typename Fn>
    void
    forEachValid(Fn&& fn) const
    {
        for (const auto& line : lines_) {
            if (line.state != LineState::Invalid)
                fn(line);
        }
    }

  private:
    std::size_t setOf(Addr block) const { return block & (sets_ - 1); }
    std::uint64_t nextRand();

    unsigned blockBits_;
    std::size_t sets_;
    std::size_t assoc_;
    std::vector<Line> lines_; // sets_ * assoc_, set-major
    std::uint64_t rng_;
    FastHitFilter* filter_ = nullptr;
};

} // namespace wwt::mem
