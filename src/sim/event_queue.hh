/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered queue of (tick, priority, sequence) keyed
 * callbacks. Events scheduled for the same tick and priority execute
 * in scheduling (FIFO) order, which every higher-level component
 * relies on for in-order link delivery and deterministic replays.
 *
 * The queue is split in two so the heap never moves a callback:
 *
 *  - a binary min-heap of 24-byte trivially-copyable keys
 *    (when, pri << 63 | seq, slot), so each sift step copies three
 *    words instead of relocating a callback through its ops table;
 *  - a slab of (seq, callback) slots with a free list, indexed by the
 *    key's slot. A slot is reused as soon as its event runs or is
 *    cancelled.
 *
 * An event is live while its slot still carries its seq. cancel()
 * frees the slot at once and leaves the stale key in the heap, where
 * it is skipped when it surfaces; seqs are never reused, so a key or
 * EventId that outlived its slot can never match the slot's next
 * tenant. There is no separate pending or cancelled set.
 *
 * Steady-state schedule()/runOne() perform no heap allocation:
 * callbacks are InplaceCallbacks (an oversized capture is a compile
 * error, not a malloc), freed slots are recycled, and reserve()
 * pre-sizes the heap and slab from a caller-supplied event ceiling
 * so neither grows mid-run.
 */

#ifndef MGSEC_SIM_EVENT_QUEUE_HH
#define MGSEC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inplace_function.hh"
#include "sim/types.hh"

namespace mgsec
{

class LatencyAttribution;
class Profiler;
class TraceSink;

/**
 * Same-tick ordering class; lower runs first. Almost everything uses
 * kPriNormal, keeping pure-FIFO same-tick order. kPriWire is for wire
 * deliveries (net/network.hh): the network schedules a delivery when
 * it replays the send, at a window barrier or a same-tick flush, so
 * its FIFO position among the arrival tick's events would depend on
 * when that replay ran. Sorting deliveries ahead of local work makes
 * the interleaving a pure function of simulation state.
 */
enum EventPri : std::uint8_t
{
    kPriWire = 0,
    kPriNormal = 1,
};

/**
 * Handle returned by EventQueue::schedule(); lets the creator cancel
 * the event before it fires. A default-constructed id names no event.
 */
struct EventId
{
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;

    bool valid() const { return seq != 0; }
    bool
    operator==(const EventId &o) const
    {
        return seq == o.seq && slot == o.slot;
    }
};

/**
 * The event queue. Owns simulated time: time only advances when
 * events execute.
 */
class EventQueue
{
  public:
    /**
     * Inline callback storage: six words of capture. The largest
     * schedulers (response completions capturing requester, txn and
     * flags) use four; anything bigger fails to compile rather than
     * silently heap-allocating.
     */
    using Callback = InplaceCallback<48>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated tick. */
    Tick now() const { return now_; }

    /**
     * Pre-size the heap and slab for @p expected_pending
     * simultaneously-live events so steady-state scheduling never
     * reallocates. A hint smaller than the real peak only costs the
     * usual amortized growth; it never affects results.
     */
    void reserve(std::size_t expected_pending);

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     * @return a handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb)
    {
        return schedule(when, kPriNormal, std::move(cb));
    }

    /** Schedule with an explicit same-tick ordering class. */
    EventId schedule(Tick when, EventPri pri, Callback cb);

    /** Schedule @p cb to run @p delta ticks from now. */
    EventId scheduleIn(Cycles delta, Callback cb);

    /**
     * Cancel a pending event.
     * @retval true the event existed and will not run.
     * @retval false the event already ran, was cancelled, or never
     *               existed.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending (non-cancelled) events. */
    std::uint64_t
    pending() const
    {
        return slots_.size() - free_slots_.size();
    }

    /**
     * Execute the next event, advancing time to it.
     * @retval false the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains, @p until is passed, or
     * @p max_events have executed.
     * @return number of events executed.
     */
    std::uint64_t run(Tick until = MaxTick,
                      std::uint64_t max_events = UINT64_MAX);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Tick of the earliest live event, or MaxTick when the queue is
     * drained. Pops lazily-cancelled leftovers off the heap top on
     * the way (never a live event), so the amortized cost matches
     * runOne()'s. The parallel kernel uses this to skip idle barrier
     * windows.
     */
    Tick nextPendingTick();

    /**
     * Domain this queue belongs to (sim/domain.hh); 0 — the host
     * domain — for a queue outside any domain.
     */
    DomainId domainId() const { return domain_id_; }
    void setDomainId(DomainId d) { domain_id_ = d; }

    /**
     * Timeline sink shared by every component on this queue, or
     * nullptr when tracing is off. Living on the queue keeps the
     * sink per-system (parallel sweep jobs never share one) and
     * makes the disabled case a single pointer test at each hook.
     */
    TraceSink *traceSink() const { return trace_sink_; }
    /** Attach/detach the sink; the caller retains ownership. */
    void setTraceSink(TraceSink *sink) { trace_sink_ = sink; }

    /**
     * Latency-attribution collector shared by every component on
     * this queue, or nullptr when attribution is off — same
     * single-pointer-test contract as traceSink().
     */
    LatencyAttribution *attribution() const { return attr_; }
    /** Attach/detach the collector; the caller retains ownership. */
    void setAttribution(LatencyAttribution *attr) { attr_ = attr; }

    /**
     * Host-side self-profiler shared by every component on this
     * queue, or nullptr when profiling is off — same
     * single-pointer-test contract as traceSink(). Instrumented
     * components pass domainId() so their spans land on the lane of
     * the worker that owns this queue.
     */
    Profiler *profiler() const { return profiler_; }
    /** Attach/detach the profiler; the caller retains ownership. */
    void setProfiler(Profiler *prof) { profiler_ = prof; }

  private:
    /** Heap key; the callback stays put in slots_[slot]. */
    struct Key
    {
        Tick when;
        std::uint64_t order; ///< pri << 63 | seq
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    /** A slab cell; seq is 0 while the slot is on the free list. */
    struct Slot
    {
        std::uint64_t seq = 0;
        Callback cb;
    };

    static constexpr std::uint64_t kSeqMask = ~std::uint64_t{0} >> 1;

    /** True when @p k's event was neither run nor cancelled. */
    bool
    live(const Key &k) const
    {
        return slots_[k.slot].seq == (k.order & kSeqMask);
    }

    /** Drop the heap's least key. */
    void popTop();
    /**
     * Empty slot @p i onto the free list and hand back its callback,
     * which the caller runs or discards once the slab may grow again.
     */
    Callback release(std::uint32_t i);
    /** Advance time to @p k (already popped) and run its callback. */
    void execute(const Key &k);

    /** Min-heap on (when, order), kept with std::push/pop_heap. */
    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    Tick now_ = 0;
    DomainId domain_id_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    TraceSink *trace_sink_ = nullptr;
    LatencyAttribution *attr_ = nullptr;
    Profiler *profiler_ = nullptr;
};

} // namespace mgsec

#endif // MGSEC_SIM_EVENT_QUEUE_HH
