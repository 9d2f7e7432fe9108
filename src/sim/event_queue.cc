#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace mgsec
{

void
EventQueue::reserve(std::size_t expected_pending)
{
    slots_.reserve(expected_pending);
    free_slots_.reserve(expected_pending);
    nodes_.reserve(expected_pending);
    // Few events wait past the horizon: a full-size far heap cost
    // 0.7 MB of peak RSS over scale64-hier-t4's 65 queues.
    far_.reserve(expected_pending / 4);
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
    if (when - now_ < kWheelTicks) {
        push(when, pri, seq, slot);
    } else {
        far_.push_back(
            Key{when, static_cast<std::uint64_t>(pri) << 63 | seq, slot});
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
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
    // Only the slot is freed; the wheel node or far key stays behind
    // and is discarded when it surfaces. Ids of events that already
    // ran or were cancelled no longer match their slot's seq, even
    // after the slot has been reused.
    if (!id.valid() || id.slot >= slots_.size() ||
        slots_[id.slot].seq != id.seq)
        return false;
    release(id.slot);
    return true;
}

void
EventQueue::push(Tick when, EventPri pri, std::uint64_t seq,
                 std::uint32_t slot)
{
    std::uint32_t n;
    if (free_node_ != kNil) {
        n = free_node_;
        free_node_ = nodes_[n].next;
    } else {
        MGSEC_ASSERT(nodes_.size() < kNil, "event node pool overflow");
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[n] = Node{seq, slot, kNil};
    const std::size_t b = when & kWheelMask;
    List &l = wheel_[b][pri];
    if (l.head == kNil) {
        l.head = n;
        occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    } else {
        nodes_[l.tail].next = n;
    }
    l.tail = n;
}

void
EventQueue::popHead(List &l)
{
    const std::uint32_t n = l.head;
    l.head = nodes_[n].next;
    nodes_[n].next = free_node_;
    free_node_ = n;
}

bool
EventQueue::liveHead(List &l)
{
    while (l.head != kNil) {
        const Node &n = nodes_[l.head];
        if (live(n.seq, n.slot))
            return true;
        popHead(l); // lazily-cancelled leftover
    }
    return false;
}

std::size_t
EventQueue::nextBucket() const
{
    // Bucket b holds tick now_ + ((b - now_) & kWheelMask), so the
    // scan starts at now_'s bucket and wraps; its last read revisits
    // the first word for the buckets below the start.
    const std::size_t start = now_ & kWheelMask;
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t i = 0; i <= kWords; ++i) {
        if (bits != 0)
            return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        w = (w + 1) % kWords;
        bits = occupied_[w];
    }
    return kWheelTicks;
}

void
EventQueue::clearOccupied(std::size_t b)
{
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

void
EventQueue::popFar()
{
    std::pop_heap(far_.begin(), far_.end(), Later{});
    far_.pop_back();
}

void
EventQueue::migrate()
{
    // Every far key is at least kWheelTicks past the previous now_,
    // so no direct insert has reached the ticks they move into.
    while (!far_.empty() && far_.front().when - now_ < kWheelTicks) {
        const Key k = far_.front();
        popFar();
        if (live(k))
            push(k.when, static_cast<EventPri>(k.order >> 63),
                 k.order & kSeqMask, k.slot);
    }
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
EventQueue::executeAt(Tick when)
{
    MGSEC_ASSERT(when >= now_, "event queue time went backwards");
    if (when != now_) {
        now_ = when;
        migrate();
    }
    // nextPendingTick() left a live head on the first non-empty list;
    // when the event came from the far heap, migrate() put it there.
    const std::size_t b = when & kWheelMask;
    Bucket &bk = wheel_[b];
    List &l = bk[kPriWire].head != kNil ? bk[kPriWire] : bk[kPriNormal];
    const std::uint32_t slot = nodes_[l.head].slot;
    popHead(l);
    if (bk[kPriWire].head == kNil && bk[kPriNormal].head == kNil)
        clearOccupied(b);
    ++executed_;
    // Moved out first: the callback may schedule, growing the slab.
    Callback cb = release(slot);
    cb();
}

bool
EventQueue::runOne()
{
    if (empty())
        return false;
    executeAt(nextPendingTick());
    return true;
}

Tick
EventQueue::nextPendingTick()
{
    for (std::size_t b; (b = nextBucket()) != kWheelTicks;) {
        Bucket &bk = wheel_[b];
        if (liveHead(bk[kPriWire]) || liveHead(bk[kPriNormal]))
            return now_ + ((b - now_) & kWheelMask);
        clearOccupied(b);
    }
    while (!far_.empty()) {
        if (live(far_.front()))
            return far_.front().when;
        popFar(); // lazily-cancelled leftover
    }
    return MaxTick;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && !empty()) {
        // A live event past the bound stays queued; cancelled
        // leftovers ahead of it are dropped either way.
        const Tick when = nextPendingTick();
        if (when > until)
            break;
        executeAt(when);
        ++n;
    }
    return n;
}

} // namespace mgsec
