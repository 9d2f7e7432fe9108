#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace mgsec
{

void
EventQueue::reserve(std::size_t expected_pending)
{
    heap_.reserve(expected_pending);
    slots_.reserve(expected_pending);
    free_slots_.reserve(expected_pending);
}

EventId
EventQueue::schedule(Tick when, EventPri pri, Callback cb)
{
    MGSEC_ASSERT(when >= now_,
                 "scheduling into the past: when=%llu now=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
    MGSEC_ASSERT(static_cast<bool>(cb), "null event callback");
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        MGSEC_ASSERT(slots_.size() < UINT32_MAX, "event slab overflow");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].seq = seq;
    slots_[slot].cb = std::move(cb);
    heap_.push_back(
        Key{when, static_cast<std::uint64_t>(pri) << 63 | seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventId{seq, slot};
}

EventId
EventQueue::scheduleIn(Cycles delta, Callback cb)
{
    return schedule(now_ + delta, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    // Only the slot is freed; the heap key stays behind and is
    // discarded when it reaches the top. Ids of events that already
    // ran or were cancelled no longer match their slot's seq, even
    // after the slot has been reused.
    if (!id.valid() || id.slot >= slots_.size() ||
        slots_[id.slot].seq != id.seq)
        return false;
    release(id.slot);
    return true;
}

void
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
}

EventQueue::Callback
EventQueue::release(std::uint32_t i)
{
    Slot &s = slots_[i];
    s.seq = 0;
    free_slots_.push_back(i);
    return std::move(s.cb);
}

void
EventQueue::execute(const Key &k)
{
    MGSEC_ASSERT(k.when >= now_, "event queue time went backwards");
    now_ = k.when;
    ++executed_;
    // Moved out first: the callback may schedule, growing the slab.
    Callback cb = release(k.slot);
    cb();
}

bool
EventQueue::runOne()
{
    while (!heap_.empty()) {
        const Key k = heap_.front();
        popTop();
        if (!live(k))
            continue; // lazily-cancelled leftover
        execute(k);
        return true;
    }
    return false;
}

Tick
EventQueue::nextPendingTick()
{
    while (!heap_.empty()) {
        if (live(heap_.front()))
            return heap_.front().when;
        popTop(); // lazily-cancelled leftover
    }
    return MaxTick;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && !heap_.empty()) {
        const Key k = heap_.front();
        const bool is_live = live(k);
        // A live event past the bound stays queued; a cancelled
        // leftover at the head is dropped either way.
        if (is_live && k.when > until)
            break;
        popTop();
        if (!is_live)
            continue;
        execute(k);
        ++n;
    }
    return n;
}

} // namespace mgsec
