#include "sim/event_queue.hh"

#include "audit/check.hh"

#include <algorithm>
#include <utility>

namespace wwt::sim
{

std::uint32_t
EventQueue::acquireSlot(Callback&& cb)
{
    if (!free_.empty()) {
        std::uint32_t slot = free_.back();
        free_.pop_back();
        pool_[slot] = std::move(cb);
        return slot;
    }
    pool_.push_back(std::move(cb));
    tags_.push_back(
        static_cast<std::uint8_t>(prof::Phase::EventDrain));
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::schedule(Cycle t, Callback&& cb, prof::Phase tag)
{
    std::uint32_t slot = acquireSlot(std::move(cb));
    tags_[slot] = static_cast<std::uint8_t>(tag);
    WWT_AUDIT(slot <= kSlotMask && seq_ >> (64 - kSlotBits) == 0,
              "event calendar exhausted its packed-handle range: slot "
                  << slot << " seq " << seq_);
    pushHeap(Item{t, (seq_++ << kSlotBits) | slot});
}

void
EventQueue::pushHeap(Item it)
{
    // Hole insertion: shift ancestors down and place the new item
    // once, instead of swapping at every level.
    std::size_t i = heap_.size();
    heap_.push_back(it);
    while (i != 0) {
        std::size_t parent = (i - 1) / 4;
        if (!before(it, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = it;
}

void
EventQueue::popHeap()
{
    Item last = heap_.back();
    heap_.pop_back();
    if (heap_.empty())
        return;
    std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

Cycle
EventQueue::nextTime() const
{
    return heap_.empty() ? kCycleMax : heap_.front().time;
}

std::size_t
EventQueue::runUntil(Cycle limit)
{
    std::size_t n = 0;
    // Calendar monotonicity: within one drain, events must come out in
    // strictly increasing (time, seq) order — the total order that
    // makes same-timestamp tie-breaking deterministic. Across drains
    // the clock may step back: an event handler or fiber can legally
    // schedule into the current window (self-latency is below the
    // quantum), and such stragglers execute on the next drain with
    // their original timestamps.
    Cycle lastTime = 0;
    std::uint64_t lastSeq = 0;
    bool first = true;
    while (!heap_.empty() && heap_.front().time < limit) {
        Item top = heap_.front();
        WWT_AUDIT(first || top.time > lastTime ||
                      (top.time == lastTime && top.seq() > lastSeq),
                  "calendar ran backwards: popped event (cycle "
                      << top.time << ", seq " << top.seq()
                      << ") after (cycle " << lastTime << ", seq "
                      << lastSeq << ") in one drain");
        lastTime = top.time;
        lastSeq = top.seq();
        first = false;
        // Move the callback out of its pool slot and release the
        // slot before running, so the event may schedule further
        // events without invalidating itself.
        Callback cb = std::move(pool_[top.slot()]);
        free_.push_back(top.slot());
        popHeap();
        if (!prof::enabled() || --profDuty_ > 0) {
            cb();
        } else {
            // Every samplePeriod-th event is measured exactly under
            // its schedule-site tag; the rest stay in the enclosing
            // EventDrain phase, which the report corrects by the duty
            // period (see prof::snapshot). The tag read is safe here:
            // the freed slot can only be recycled by a schedule made
            // from inside cb itself.
            profDuty_ = static_cast<int>(prof::samplePeriod());
            prof::ForcedSamplePhase sp(
                static_cast<prof::Phase>(tags_[top.slot()]));
            cb();
        }
        ++n;
        ++executed_;
    }
    return n;
}

} // namespace wwt::sim
