/**
 * @file
 * The memory model's host structures and the event queue allocate
 * nothing after construction: TLB lookups and shootdowns, cache
 * accesses and invalidations, the node's transaction table once it
 * covers the issue window, and event scheduling, execution and
 * cancellation once the queue is reserved and warm. This binary
 * replaces the global operator new with a counting one, so it is its
 * own test executable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "gpu/txn_table.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"

namespace
{

std::uint64_t g_news = 0;

} // anonymous namespace

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace mgsec;

namespace
{

constexpr int kOps = 100000;

} // anonymous namespace

TEST(MemAlloc, CountingNewSeesAllocations)
{
    const std::uint64_t before = g_news;
    auto *v = new std::vector<int>(8);
    delete v;
    EXPECT_GE(g_news - before, 2u);
}

TEST(MemAlloc, TlbLookupsAndShootdownsAllocateNothing)
{
    for (const std::uint32_t entries : {1u, 64u, 1024u}) {
        EventQueue eq;
        Tlb tlb("tlb", eq, TlbParams{entries, 1});
        std::mt19937_64 rng(entries);
        const std::uint64_t pool = 2ull * entries + 3;
        const std::uint64_t before = g_news;
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t page = rng() % pool;
            if (rng() % 4 == 0)
                tlb.invalidate(page);
            else
                tlb.lookup(page);
        }
        tlb.flush();
        tlb.lookup(1);
        EXPECT_EQ(g_news - before, 0u) << entries << " entries";
        EXPECT_GT(tlb.hits(), 0u);
        EXPECT_GT(tlb.misses(), 0u);
    }
}

TEST(MemAlloc, CacheAccessesAndInvalidatesAllocateNothing)
{
    EventQueue eq;
    // The CU L1 geometry of Table III.
    Cache cache("l1", eq, CacheParams{16 * 1024, 4, kBlockBytes, 1});
    std::mt19937_64 rng(7);
    const std::uint64_t before = g_news;
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t addr = rng() % (64 * 1024);
        if (rng() % 4 == 0)
            cache.invalidate(addr);
        else
            cache.access(addr, rng() % 2 == 0);
    }
    EXPECT_EQ(g_news - before, 0u);
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), 0u);
}

TEST(MemAlloc, TxnTableStopsAllocatingOnceItCoversTheWindow)
{
    // A 64-op window: completions come in random order, but no op is
    // outstanding longer than two windows' worth of issues.
    constexpr std::uint64_t kWindow = 64;
    TxnTable table(kWindow);
    std::vector<std::uint64_t> live;
    live.reserve(kWindow);
    std::uint64_t next_id = 1;
    std::mt19937_64 rng(3);
    auto step = [&] {
        std::size_t victim = rng() % live.size();
        for (std::size_t i = 0; i < live.size(); ++i)
            if (live[i] + 2 * kWindow <= next_id)
                victim = i;
        Txn *txn = table.find(live[victim]);
        table.erase(*txn);
        live[victim] = next_id;
        table.insert(next_id++);
    };
    for (std::uint64_t i = 0; i < kWindow; ++i) {
        live.push_back(next_id);
        table.insert(next_id++);
    }
    for (int i = 0; i < 10000; ++i)
        step();
    const std::size_t grown = table.capacity();
    const std::uint64_t before = g_news;
    for (int i = 0; i < kOps; ++i)
        step();
    EXPECT_EQ(g_news - before, 0u);
    EXPECT_EQ(table.capacity(), grown);
    EXPECT_LE(grown, 4 * kWindow);
    EXPECT_EQ(table.size(), kWindow);
    for (const std::uint64_t id : live)
        EXPECT_NE(table.find(id), nullptr);
}

TEST(MemAlloc, EventQueueStepsAllocateNothing)
{
    // A constant population churns: each step schedules one event and
    // then runs one or cancels a random earlier one. About 1% of the
    // schedules land past the wheel, in the far heap.
    constexpr std::size_t kPopulation = 512;
    EventQueue eq;
    eq.reserve(4 * kPopulation);
    std::mt19937_64 rng(19);
    std::vector<EventId> ids(kPopulation);
    std::uint64_t far_sched = 0;
    std::uint64_t far_ran = 0;
    auto schedule = [&](std::size_t k) {
        const bool far = rng() % 100 == 0;
        const Tick delta =
            far ? EventQueue::kWheelTicks +
                      rng() % (2 * EventQueue::kWheelTicks)
                : rng() % 32 + 1;
        far_sched += far;
        ids[k] = eq.schedule(eq.now() + delta, [&far_ran, far]() {
            far_ran += far;
        });
    };
    auto step = [&] {
        const std::size_t k = rng() % kPopulation;
        const EventId victim = ids[k];
        schedule(k);
        if (rng() % 8 != 0 || !eq.cancel(victim)) {
            ASSERT_TRUE(eq.runOne());
        }
    };
    for (std::size_t k = 0; k < kPopulation; ++k)
        schedule(k);
    for (int i = 0; i < 20000; ++i)
        step();
    const std::uint64_t far_before = far_sched;
    const std::uint64_t ran_before = far_ran;
    const std::uint64_t before = g_news;
    for (int i = 0; i < kOps; ++i)
        step();
    EXPECT_EQ(g_news - before, 0u);
    EXPECT_EQ(eq.pending(), kPopulation);
    EXPECT_GT(far_sched - far_before, kOps / 200u);
    EXPECT_LT(far_sched - far_before, kOps / 50u);
    EXPECT_GT(far_ran, ran_before);
}
