/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace mgsec;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunOneAdvancesTime)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(42, [&]() { ran = true; });
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 42u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(5, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleAtCurrentTick)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(7, [&]() {
        eq.schedule(7, [&]() { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    EventId id = eq.schedule(10, []() {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(EventId{}));
    EXPECT_FALSE(eq.cancel(EventId{999}));
    // Forged ids naming a real slot with the wrong seq, or a slot
    // past the slab, are rejected too.
    const EventId a = eq.schedule(5, []() {});
    EXPECT_FALSE(eq.cancel(EventId{999}));
    EXPECT_FALSE(eq.cancel(EventId{a.seq + 1, a.slot}));
    EXPECT_FALSE(eq.cancel(EventId{a.seq, a.slot + 1}));
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, CancelledSlotReuseRejectsStaleId)
{
    // A's slot is freed by cancel() and handed to B; A's id must not
    // reach B through the reused slot.
    EventQueue eq;
    bool a_ran = false;
    bool b_ran = false;
    const EventId a = eq.schedule(10, [&]() { a_ran = true; });
    EXPECT_TRUE(eq.cancel(a));
    const EventId b = eq.schedule(10, [&]() { b_ran = true; });
    ASSERT_EQ(b.slot, a.slot);
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_FALSE(a_ran);
    EXPECT_TRUE(b_ran);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, ExecutedSlotReuseRejectsStaleId)
{
    // Same as above, but A's slot is freed by running it.
    EventQueue eq;
    bool b_ran = false;
    const EventId a = eq.schedule(10, []() {});
    EXPECT_TRUE(eq.runOne());
    const EventId b = eq.schedule(20, [&]() { b_ran = true; });
    ASSERT_EQ(b.slot, a.slot);
    EXPECT_FALSE(eq.cancel(a));
    eq.run();
    EXPECT_TRUE(b_ran);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, CallbackGrowingTheSlabKeepsRunning)
{
    // The running callback schedules far more events than the slab
    // holds, forcing it to reallocate mid-invoke; the callback's own
    // captures must survive and every new event must run.
    EventQueue eq;
    auto owned = std::make_unique<int>(7);
    std::vector<int> order;
    eq.schedule(1, [&eq, &order, p = std::move(owned)]() {
        for (int i = 0; i < 4096; ++i)
            eq.schedule(2, [&order, i]() { order.push_back(i); });
        order.push_back(-*p); // captures still intact after growth
    });
    eq.run();
    ASSERT_EQ(order.size(), 4097u);
    EXPECT_EQ(order[0], -7);
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, MatchesMultisetOracleWithPriorities)
{
    // Seeded schedule/cancel/run mix with kPriWire and kPriNormal
    // events crowded onto a few ticks; the execution order must equal
    // a std::multiset reference ordered by (when, pri, seq).
    using Ref = std::tuple<Tick, int, std::uint64_t, int>;
    std::mt19937 rng(2024);
    EventQueue eq;
    std::multiset<Ref> ref;
    std::vector<std::pair<EventId, Ref>> handles;
    std::vector<int> got;
    std::vector<int> want;
    std::uint64_t order = 0;
    int next_tag = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 30; ++i) {
            const Tick when = eq.now() + rng() % 4;
            const EventPri pri = rng() % 3 == 0 ? kPriWire : kPriNormal;
            const int tag = next_tag++;
            const EventId id = eq.schedule(
                when, pri, [&got, tag]() { got.push_back(tag); });
            const Ref r{when, pri, order++, tag};
            ref.insert(r);
            handles.emplace_back(id, r);
        }
        for (int i = 0; i < 8 && !handles.empty(); ++i) {
            const std::size_t k = rng() % handles.size();
            const bool was_pending = ref.count(handles[k].second) != 0;
            EXPECT_EQ(eq.cancel(handles[k].first), was_pending);
            ref.erase(handles[k].second);
            handles[k] = handles.back();
            handles.pop_back();
        }
        const std::uint64_t steps = rng() % 40;
        for (std::uint64_t s = 0; s < steps && !ref.empty(); ++s) {
            want.push_back(std::get<3>(*ref.begin()));
            ref.erase(ref.begin());
            ASSERT_TRUE(eq.runOne());
        }
        EXPECT_EQ(eq.pending(), ref.size());
    }
    for (const Ref &r : ref)
        want.push_back(std::get<3>(r));
    eq.run();
    EXPECT_EQ(got, want);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MatchesMultisetOracleAcrossTheHorizon)
{
    // Deltas span three wheel turns, so events go both into the wheel
    // and the far heap, cancels hit both, and run(until) advances in
    // the kernel's 100- and 160-tick windows, so far keys migrate
    // while direct inserts land on the same ticks (rounding to
    // multiples of 8 crowds them together). Every 50 rounds the queue
    // drains and only far events are scheduled, which nextPendingTick()
    // must find in the far heap.
    using Ref = std::tuple<Tick, int, std::uint64_t, int>;
    constexpr Tick kSpan = 3 * EventQueue::kWheelTicks;
    std::mt19937 rng(19);
    EventQueue eq;
    std::multiset<Ref> ref;
    std::vector<std::pair<EventId, Ref>> handles;
    std::vector<int> got;
    std::vector<int> want;
    std::uint64_t order = 0;
    int next_tag = 0;
    std::uint64_t far = 0;
    Tick window_end = 0;
    auto add = [&](Tick delta) {
        const Tick when = (eq.now() + delta + 7) / 8 * 8;
        far += when - eq.now() >= EventQueue::kWheelTicks;
        const EventPri pri = rng() % 3 == 0 ? kPriWire : kPriNormal;
        const int tag = next_tag++;
        const EventId id =
            eq.schedule(when, pri, [&got, tag]() { got.push_back(tag); });
        const Ref r{when, pri, order++, tag};
        ref.insert(r);
        handles.emplace_back(id, r);
    };
    auto expectNextTick = [&] {
        EXPECT_EQ(eq.nextPendingTick(),
                  ref.empty() ? MaxTick : std::get<0>(*ref.begin()));
    };
    auto cancelSome = [&](int n) {
        for (int i = 0; i < n && !handles.empty(); ++i) {
            const std::size_t k = rng() % handles.size();
            const bool was_pending = ref.count(handles[k].second) != 0;
            EXPECT_EQ(eq.cancel(handles[k].first), was_pending);
            ref.erase(handles[k].second);
            handles[k] = handles.back();
            handles.pop_back();
        }
    };
    for (int round = 1; round <= 600; ++round) {
        for (int i = 0; i < 12; ++i)
            add(rng() % 2 == 0 ? rng() % 64 : rng() % kSpan);
        cancelSome(3);
        expectNextTick();
        window_end += round % 2 == 0 ? 100 : 160;
        while (!ref.empty() && std::get<0>(*ref.begin()) <= window_end) {
            want.push_back(std::get<3>(*ref.begin()));
            ref.erase(ref.begin());
        }
        eq.run(window_end);
        ASSERT_EQ(got, want);
        EXPECT_EQ(eq.pending(), ref.size());
        if (round % 50 == 0) {
            for (const Ref &r : ref)
                want.push_back(std::get<3>(r));
            ref.clear();
            handles.clear();
            eq.run();
            ASSERT_EQ(got, want);
            const Tick idle = eq.now();
            for (int i = 0; i < 6; ++i)
                add(EventQueue::kWheelTicks + rng() % (2 * kSpan));
            cancelSome(2);
            expectNextTick();
            EXPECT_EQ(eq.now(), idle);
            window_end = std::max(window_end, idle);
        }
    }
    for (const Ref &r : ref)
        want.push_back(std::get<3>(r));
    eq.run();
    EXPECT_EQ(got, want);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextPendingTick(), MaxTick);
    // Both paths carried a real share of the events.
    EXPECT_GT(far, order / 4);
    EXPECT_LT(far, order * 3 / 4);
}

TEST(EventQueue, FarEventRunsBeforeLaterNearEventOnItsTick)
{
    // Events for tick W are scheduled at tick 0 (delta W: the far
    // heap) and again at tick 1 (delta W - 1: straight into the
    // wheel). Per priority the far ones carry the smaller seq, so
    // they must run first: far wire, near wire, far normal, near
    // normal.
    constexpr Tick kW = EventQueue::kWheelTicks;
    EventQueue eq;
    std::vector<int> order;
    auto rec = [&order](int v) {
        return [&order, v]() { order.push_back(v); };
    };
    eq.schedule(kW, kPriNormal, rec(3));
    eq.schedule(kW, kPriWire, rec(1));
    eq.schedule(1, [&]() {
        eq.schedule(kW, kPriNormal, rec(4));
        eq.schedule(kW, kPriWire, rec(2));
    });
    EXPECT_EQ(eq.nextPendingTick(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), kW);
}

TEST(EventQueue, LoneEventIsFoundAtEveryWheelOffset)
{
    // One pending event at a time, at every delta across the wheel
    // and just past it, from a bucket that moves with now(): the scan
    // must wrap through the words below now()'s bucket, and a lone
    // far event must be found in the far heap.
    constexpr Tick kW = EventQueue::kWheelTicks;
    EventQueue eq;
    eq.schedule(37, []() {});
    eq.run();
    for (Tick delta = 0; delta <= kW + 64; ++delta) {
        const Tick when = eq.now() + delta;
        eq.schedule(when, []() {});
        ASSERT_EQ(eq.nextPendingTick(), when) << "delta " << delta;
        ASSERT_TRUE(eq.runOne());
        ASSERT_EQ(eq.now(), when);
    }
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue eq;
    EventId id = eq.schedule(1, []() {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilBound)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.schedule(t, [&]() { ++count; });
    const std::uint64_t n = eq.run(50);
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunMaxEventsBound)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Tick>(i + 1), [&]() { ++count; });
    eq.run(MaxTick, 3);
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, PendingTracksCancellations)
{
    EventQueue eq;
    EventId a = eq.schedule(5, []() {});
    eq.schedule(6, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i + 1), []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, CascadedEventsDrain)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunUntilSkipsCancelledHead)
{
    EventQueue eq;
    bool ran = false;
    EventId a = eq.schedule(10, []() {});
    eq.schedule(20, [&]() { ran = true; });
    eq.cancel(a);
    eq.run(15);
    EXPECT_FALSE(ran);
    eq.run(25);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelFromSameTickEvent)
{
    // An event cancelling a later same-tick sibling: with lazy
    // cancellation the sibling's heap entry is already ordered, so
    // this exercises the pop-time liveness check.
    EventQueue eq;
    bool ran = false;
    EventId victim{};
    eq.schedule(5, [&]() { EXPECT_TRUE(eq.cancel(victim)); });
    victim = eq.schedule(5, [&]() { ran = true; });
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, CancelAfterLazyPopFails)
{
    // run(until) peeks past a cancelled head without executing it;
    // cancelling that id again must still fail and must not corrupt
    // the live-event counter.
    EventQueue eq;
    EventId a = eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    eq.cancel(a);
    eq.run(15); // pops a's stale heap entry while skipping it
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunOneSkipsLeadingCancellations)
{
    EventQueue eq;
    std::vector<EventId> ids;
    bool ran = false;
    for (Tick t = 1; t <= 4; ++t)
        ids.push_back(eq.schedule(t, []() {}));
    eq.schedule(5, [&]() { ran = true; });
    for (EventId id : ids)
        eq.cancel(id);
    // One runOne() must chew through all four stale entries and
    // execute the live event behind them.
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, FifoOrderSurvivesInterleavedCancelsAtScale)
{
    // Scheduling micro-benchmark shaped like the simulator's hot
    // path: tens of thousands of events across a few ticks, every
    // third one cancelled. Guards the same-tick FIFO contract the
    // pipelined secure channel depends on.
    constexpr int kEvents = 30000;
    EventQueue eq;
    std::vector<int> order;
    order.reserve(kEvents);
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        const Tick t = static_cast<Tick>(i / 1000); // 1000 per tick
        ids.push_back(
            eq.schedule(t, [&order, i]() { order.push_back(i); }));
    }
    std::uint64_t cancelled = 0;
    for (int i = 0; i < kEvents; i += 3) {
        EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
        ++cancelled;
    }
    EXPECT_EQ(eq.pending(), kEvents - cancelled);
    eq.run();

    ASSERT_EQ(order.size(), kEvents - cancelled);
    int prev = -1;
    for (int got : order) {
        EXPECT_GT(got, prev); // submission order within & across ticks
        EXPECT_NE(got % 3, 0); // no cancelled event executed
        prev = got;
    }
    EXPECT_EQ(eq.executed(), kEvents - cancelled);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported)
{
    // Callbacks live in inline storage (InplaceCallback), which —
    // unlike std::function — accepts move-only captures, so owners
    // can hand resources to their completion events.
    EventQueue eq;
    auto owned = std::make_unique<int>(41);
    int seen = 0;
    eq.schedule(1, [&seen, p = std::move(owned)]() {
        seen = *p + 1;
    });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ReservePreservesSemantics)
{
    // reserve() is a pure capacity hint: scheduling, cancellation,
    // and ordering behave identically with or without it, including
    // when the population overflows the hint.
    EventQueue eq;
    eq.reserve(8);
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(eq.schedule(static_cast<Tick>(i % 10 + 1),
                                  [&order, i]() {
                                      order.push_back(i);
                                  }));
    }
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
    eq.run();
    ASSERT_EQ(order.size(), 50u);
    for (int got : order)
        EXPECT_EQ(got % 2, 1);
}

TEST(EventQueue, RandomizedScheduleCancelStress)
{
    // Hammers the callback slab (slot allocation, free-list reuse,
    // seq-based liveness of stale heap keys) with a deterministic
    // random schedule/cancel mix and checks exactly the surviving
    // events fire.
    constexpr int kEvents = 20000;
    std::mt19937 rng(12345);
    EventQueue eq;
    std::vector<EventId> ids;
    std::set<int> expected;
    std::set<int> fired;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        const Tick t = rng() % 512 + 1;
        ids.push_back(eq.schedule(t, [&fired, i]() {
            fired.insert(i);
        }));
        expected.insert(i);
    }
    // Cancel a random ~40%, with some double-cancels mixed in.
    for (int i = 0; i < kEvents; ++i) {
        if (rng() % 5 < 2) {
            EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
            EXPECT_FALSE(eq.cancel(ids[static_cast<std::size_t>(i)]));
            expected.erase(i);
        }
    }
    eq.run();
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), expected.size());
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, []() {}), "past");
}
