#include "mem/cache.hh"

#include <bit>
#include <stdexcept>

#include "mem/fast_hit.hh"

namespace wwt::mem
{

Cache::Cache(std::size_t bytes, std::size_t assoc, std::size_t block_bytes,
             std::uint64_t seed)
    : assoc_(assoc), rng_(seed ? seed : 0x9e3779b97f4a7c15ull)
{
    if (!std::has_single_bit(block_bytes))
        throw std::invalid_argument("block size must be a power of two");
    if (assoc == 0 || bytes % (assoc * block_bytes) != 0)
        throw std::invalid_argument("capacity must divide into ways");
    blockBits_ = static_cast<unsigned>(std::countr_zero(block_bytes));
    sets_ = bytes / (assoc * block_bytes);
    if (!std::has_single_bit(sets_))
        throw std::invalid_argument("set count must be a power of two");
    lines_.resize(sets_ * assoc_);
}

std::uint64_t
Cache::nextRand()
{
    // xorshift64*: deterministic, fast, good enough for replacement.
    rng_ ^= rng_ >> 12;
    rng_ ^= rng_ << 25;
    rng_ ^= rng_ >> 27;
    return rng_ * 0x2545f4914f6cdd1dull;
}

Line*
Cache::find(Addr block)
{
    Line* set = &lines_[setOf(block) * assoc_];
    for (std::size_t w = 0; w < assoc_; ++w) {
        if (set[w].state != LineState::Invalid && set[w].block == block)
            return &set[w];
    }
    return nullptr;
}

const Line*
Cache::find(Addr block) const
{
    return const_cast<Cache*>(this)->find(block);
}

Victim
Cache::insert(Addr block, LineState state, bool dirty)
{
    Victim v;
    insert(block, state, dirty, &v);
    return v;
}

Line*
Cache::insert(Addr block, LineState state, bool dirty, Victim* victim)
{
    Line* set = &lines_[setOf(block) * assoc_];
    Line* slot = nullptr;
    for (std::size_t w = 0; w < assoc_; ++w) {
        if (set[w].state == LineState::Invalid) {
            slot = &set[w];
            break;
        }
    }

    Victim v;
    if (!slot) {
        slot = &set[nextRand() % assoc_];
        v.valid = true;
        v.block = slot->block;
        v.state = slot->state;
        v.dirty = slot->dirty;
        if (filter_)
            filter_->forget(slot->block);
    }
    slot->block = block;
    slot->state = state;
    slot->dirty = dirty;
    if (victim)
        *victim = v;
    return slot;
}

Victim
Cache::remove(Addr block)
{
    Victim v;
    if (Line* line = find(block)) {
        v.valid = true;
        v.block = line->block;
        v.state = line->state;
        v.dirty = line->dirty;
        line->state = LineState::Invalid;
        line->dirty = false;
        if (filter_)
            filter_->forget(block);
    }
    return v;
}

void
Cache::reset()
{
    for (auto& line : lines_) {
        line.state = LineState::Invalid;
        line.dirty = false;
    }
    if (filter_)
        filter_->clear();
}

std::size_t
Cache::validLines() const
{
    std::size_t n = 0;
    forEachValid([&](const Line&) { ++n; });
    return n;
}

} // namespace wwt::mem
