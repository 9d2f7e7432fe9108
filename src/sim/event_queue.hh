/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered queue of (tick, priority, sequence) keyed
 * callbacks. Events scheduled for the same tick and priority execute
 * in scheduling (FIFO) order, which every higher-level component
 * relies on for in-order link delivery and deterministic replays.
 *
 * Events are almost never scheduled far ahead: in the benchmark
 * workloads at most 0.27% land 2048 or more ticks after now(). The
 * queue is therefore a timing wheel backed by a far heap, with every
 * callback in a slab that neither structure moves:
 *
 *  - a slab of (seq, callback) slots with a free list. A slot is
 *    reused as soon as its event runs or is cancelled;
 *  - the wheel: kWheelTicks buckets, one per tick of
 *    [now(), now() + kWheelTicks), each holding one FIFO list per
 *    EventPri. A list links 16-byte (seq, slot, next) nodes from a
 *    pool of their own, and a bitmap of occupied buckets finds the
 *    next tick with countr_zero, one 64-bit word at a time;
 *  - the far heap: a binary min-heap of 24-byte keys
 *    (when, pri << 63 | seq, slot) for events at or past the wheel's
 *    horizon.
 *
 * Whenever now() advances, and before the event there runs, every far
 * key now inside the horizon moves into the wheel in heap order. All
 * far keys for a tick are scheduled before any direct insert into it
 * (one is only possible once the tick is within the horizon), so each
 * (tick, pri) list stays FIFO in seq and events run in exactly
 * (when, pri, seq) order.
 *
 * An event is live while its slot still carries its seq. cancel()
 * frees the slot at once and leaves the stale node or key, which is
 * skipped when it surfaces; seqs are never reused, so a node, key or
 * EventId that outlived its slot can never match the slot's next
 * tenant. There is no separate pending or cancelled set.
 *
 * Steady-state schedule()/runOne() perform no heap allocation:
 * callbacks are InplaceCallbacks (an oversized capture is a compile
 * error, not a malloc), freed slots and nodes are recycled, the wheel
 * is a fixed array, and reserve() pre-sizes the slab, node pool and
 * far heap from a caller-supplied event ceiling so none grows mid-run.
 */

#ifndef MGSEC_SIM_EVENT_QUEUE_HH
#define MGSEC_SIM_EVENT_QUEUE_HH

#include <array>
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

    /**
     * Ticks the wheel spans; an event this far ahead or further
     * waits in the far heap. At 2048 that is at most 0.27% of the
     * benchmark workloads' events, at 1024 up to 7.4% (docs/PERF.md).
     */
    static constexpr std::size_t kWheelTicks = 2048;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated tick. */
    Tick now() const { return now_; }

    /**
     * Pre-size the slab and node pool for @p expected_pending
     * simultaneously-live events, and the far heap for a quarter of
     * them, so steady-state scheduling never reallocates. A hint
     * smaller than the real peak only costs the usual amortized
     * growth; it never affects results.
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
     * drained. Drops lazily-cancelled leftovers ahead of it on the
     * way (never a live event), so the amortized cost matches
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
     * Whether packets carry lifecycle stamps (sim/lifecycle.hh):
     * attribution folds them and the trace writes them as the
     * stages of each "packet" event.
     */
    bool stampsLife() const { return attr_ || trace_sink_; }

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
    /** Far-heap key; the callback stays put in slots_[slot]. */
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

    static constexpr std::uint32_t kNil = UINT32_MAX;

    /** A wheel-list link; next threads the free list when unused. */
    struct Node
    {
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t next;
    };

    /** FIFO of node indices; empty while head is kNil. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** One wheel tick: a list per EventPri, kPriWire first. */
    using Bucket = std::array<List, 2>;

    static constexpr std::size_t kWheelMask = kWheelTicks - 1;
    static constexpr std::size_t kWords = kWheelTicks / 64;
    static_assert((kWheelTicks & kWheelMask) == 0 && kWords > 0,
                  "the wheel spans a power of two of at least 64 ticks");
    static constexpr std::uint64_t kSeqMask = ~std::uint64_t{0} >> 1;

    /** True when the event (@p seq, @p slot) neither ran nor was cancelled. */
    bool
    live(std::uint64_t seq, std::uint32_t slot) const
    {
        return slots_[slot].seq == seq;
    }
    bool
    live(const Key &k) const
    {
        return live(k.order & kSeqMask, k.slot);
    }

    /** Append (@p seq, @p slot) to the @p pri list of @p when's tick. */
    void push(Tick when, EventPri pri, std::uint64_t seq,
              std::uint32_t slot);
    /** Unlink @p l's head node and return it to the pool. */
    void popHead(List &l);
    /** Drop @p l's stale head nodes; true if a live one remains. */
    bool liveHead(List &l);
    /** First occupied bucket at or after now()'s, or kWheelTicks. */
    std::size_t nextBucket() const;
    /** Clear bucket @p b's bit once both its lists are empty. */
    void clearOccupied(std::size_t b);
    /** Drop the far heap's least key. */
    void popFar();
    /** Move every far key inside the horizon into the wheel. */
    void migrate();
    /**
     * Empty slot @p i onto the free list and hand back its callback,
     * which the caller runs or discards once the slab may grow again.
     */
    Callback release(std::uint32_t i);
    /**
     * Advance time to @p when, the tick nextPendingTick() just
     * returned, and run the first event there.
     */
    void executeAt(Tick when);

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::array<Bucket, kWheelTicks> wheel_{};
    std::array<std::uint64_t, kWords> occupied_{}; ///< bucket bitmap
    std::vector<Node> nodes_;
    std::uint32_t free_node_ = kNil;
    /** Min-heap on (when, order), kept with std::push/pop_heap. */
    std::vector<Key> far_;
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
