/**
 * @file
 * The memory model's host structures and the event queue allocate
 * nothing after construction: TLB lookups and shootdowns, cache
 * accesses and invalidations, the node's transaction table once it
 * covers the issue window, event scheduling, execution and
 * cancellation once the queue is reserved and warm, the packet pool
 * handing packets from one thread to another, and the secure channel
 * sealing and opening functional-crypto messages. Observability
 * state costs what a run records: a histogram that was only built,
 * and a wire observer before its first packet, hold O(1) and O(n)
 * bytes. A cache line costs 9 bytes and a TLB entry 16. This binary
 * replaces the global operator new with a counting one, so it is its
 * own test executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <random>
#include <semaphore>
#include <thread>
#include <vector>

#include "gpu/txn_table.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "net/network.hh"
#include "net/packet_pool.hh"
#include "secure/secure_channel.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"
#include "sim/wire_observer.hh"

namespace
{

/** Counted from every thread: the hand-off case runs two. */
std::atomic<std::uint64_t> g_news{0};
/** Bytes requested, summed over every allocation. */
std::atomic<std::uint64_t> g_bytes{0};

} // anonymous namespace

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
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

TEST(MemAlloc, CacheLinesAndTlbEntriesFitTheirBytes)
{
    // Names and stats cost the same at any size, so a one-set
    // cache and a one-entry TLB measure that fixed part.
    EventQueue eq;
    const auto cacheBytes = [&eq](Bytes size) {
        const std::uint64_t before = g_bytes;
        Cache c("l2", eq, CacheParams{size, 16, kBlockBytes, 1});
        return g_bytes - before;
    };
    const auto tlbBytes = [&eq](std::uint32_t entries) {
        const std::uint64_t before = g_bytes;
        Tlb t("tlb", eq, TlbParams{entries, 1});
        return g_bytes - before;
    };
    // A 2 MB 16-way L2: a tag word and a recency rank per line.
    const std::uint64_t lines = 2 * 1024 * 1024 / kBlockBytes;
    const std::uint64_t fixed_lines = 16;
    EXPECT_LE(cacheBytes(2 * 1024 * 1024) -
                  cacheBytes(fixed_lines * kBlockBytes),
              9 * (lines - fixed_lines));
    // A 64-entry L1 TLB: a page, two 16-bit links and two 16-bit
    // index buckets per entry.
    EXPECT_LE(tlbBytes(64) - tlbBytes(1), 16u * 63);
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

TEST(RingQueue, MatchesDequeReference)
{
    // Random pushes and pops at both ends, with the depth wandering
    // across several growths and back, plus the occasional clear().
    RingQueue<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    std::mt19937_64 rng(23);
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t r = rng() % 100;
        const bool grow = (i / 5000) % 2 == 0;
        if (r < (grow ? 60u : 40u)) {
            const std::uint64_t v = rng();
            ring.push_back(v);
            ref.push_back(v);
        } else if (r < 90 && !ref.empty()) {
            ring.pop_front();
            ref.pop_front();
        } else if (r < 99 && !ref.empty()) {
            ring.pop_back();
            ref.pop_back();
        } else if (r == 99 && rng() % 16 == 0) {
            ring.clear();
            ref.clear();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring[ref.size() - 1], ref.back());
            const std::size_t k = rng() % ref.size();
            ASSERT_EQ(ring[k], ref[k]);
        }
    }
    std::size_t k = 0;
    for (const std::uint64_t v : ring)
        EXPECT_EQ(v, ref[k++]);
    EXPECT_EQ(k, ref.size());
}

TEST(MemAlloc, RingQueueAtSteadyDepthAllocatesNothing)
{
    RingQueue<std::uint64_t> ring;
    for (std::uint64_t i = 0; i < 100; ++i)
        ring.push_back(i);
    const std::size_t cap = ring.capacity();
    const std::uint64_t before = g_news;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        ring.push_back(i);
        ring.pop_front();
    }
    ring.clear();
    ring.push_back(1);
    EXPECT_EQ(g_news - before, 0u);
    EXPECT_EQ(ring.capacity(), cap);
}

TEST(MemAlloc, FunctionalMessagesAllocateNothing)
{
    // Three nodes exchange real-crypto messages: data responses with
    // a 64 B payload and payload-free requests, in both directions
    // of two pairs. Batched, members and trailers (full batches and
    // idle flushes) come and go; every step runs the queue dry, so
    // each message is sealed, opened and verified in the measured
    // window.
    for (const bool batching : {false, true}) {
        SCOPED_TRACE(batching ? "batched" : "unbatched");
        EventQueue eq;
        Network net("net", eq, 3, LinkParams{16.0, 50},
                    LinkParams{25.0, 10});
        SecurityConfig cfg;
        cfg.scheme = OtpScheme::Private;
        cfg.batching = batching;
        cfg.batchSize = 16;
        cfg.functionalCrypto = true;
        std::vector<std::unique_ptr<SecureChannel>> ch;
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < 3; ++n) {
            ch.push_back(std::make_unique<SecureChannel>(
                strformat("ch%u", n), eq, net, n, cfg));
            ch.back()->setDeliver([&delivered](PacketPtr) {
                ++delivered;
            });
        }
        std::mt19937_64 rng(batching ? 5 : 4);
        std::uint64_t sent = 0;
        auto step = [&] {
            const NodeId src = static_cast<NodeId>(1 + rng() % 2);
            const NodeId dst = rng() % 2 == 0 ? 0 : 3 - src;
            const int burst = 1 + static_cast<int>(rng() % 24);
            for (int i = 0; i < burst; ++i) {
                auto p = makePacket();
                const bool data = rng() % 4 != 0;
                p->type = data ? PacketType::ReadResp
                               : PacketType::ReadReq;
                p->src = src;
                p->dst = dst;
                p->payloadBytes = data ? kBlockBytes : 0;
                ch[src]->send(std::move(p));
            }
            sent += static_cast<std::uint64_t>(burst);
            eq.run();
        };
        while (sent < 20000)
            step();
        const std::uint64_t sent_before = sent;
        const std::uint64_t before = g_news;
        while (sent - sent_before < kOps)
            step();
        EXPECT_EQ(g_news - before, 0u);
        for (const auto &c : ch)
            EXPECT_EQ(c->macsFailed(), 0u);
        std::uint64_t verified = 0, ok = 0;
        for (const auto &c : ch) {
            verified += c->macsVerified();
            ok += c->decryptsOk();
        }
        EXPECT_EQ(delivered, sent);
        EXPECT_GT(ok, sent / 2);
        if (batching)
            EXPECT_LT(verified, sent / 4);
        else
            EXPECT_EQ(verified, sent);
    }
}

TEST(MemAlloc, WarmCrossThreadHandOffAllocatesNothing)
{
    // One thread acquires packets with payloads, another releases
    // them: once the depot has absorbed the releaser's surplus, every
    // acquire is served from it and neither thread calls new. Each
    // round shifts both threads' list sizes by kInFlight modulo
    // kBatch, so kBatch warm rounds visit every state the cycle has.
    constexpr std::size_t kInFlight = 500;
    constexpr int kWarmRounds = static_cast<int>(PacketPool::kBatch);
    constexpr int kRounds = 40;
    std::vector<PacketPtr> handed;
    handed.reserve(kInFlight);
    std::binary_semaphore full(0), drained(0);
    std::thread releaser([&] {
        for (int r = 0; r < kWarmRounds + kRounds; ++r) {
            full.acquire();
            handed.clear();
            drained.release();
        }
    });
    std::uint64_t before = 0;
    for (int r = 0; r < kWarmRounds + kRounds; ++r) {
        if (r == kWarmRounds)
            before = g_news.load();
        for (std::size_t i = 0; i < kInFlight; ++i) {
            handed.push_back(makePacket());
            handed.back()->func = makeFunctionalPayload();
        }
        full.release();
        drained.acquire();
    }
    EXPECT_EQ(g_news.load() - before, 0u);
    releaser.join();
}

TEST(MemAlloc, HistogramConstructionAllocatesNothing)
{
    // Short names stay in the strings' inline buffers, so building
    // one is free; the first sample stores one tier of buckets, not
    // all numBuckets().
    const std::uint64_t before = g_news;
    stats::Histogram h("lat", "cycles");
    EXPECT_EQ(g_news - before, 0u);
    EXPECT_EQ(h.storedBuckets(), 0u);
    EXPECT_EQ(h.bucket(stats::Histogram::numBuckets() - 1), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
    h.reset();
    stats::Histogram copy = h;
    EXPECT_EQ(g_news - before, 0u);

    h.record(1000);
    EXPECT_EQ(g_news - before, 1u);
    EXPECT_LT(h.storedBuckets(), stats::Histogram::numBuckets() / 4);
    // Recording inside the stored prefix, and resetting, reuse it.
    const std::uint64_t warm = g_news;
    for (std::uint64_t v = 0; v <= 1000; ++v)
        h.record(v);
    h.reset();
    h.record(999);
    EXPECT_EQ(g_news - warm, 0u);
}

TEST(MemAlloc, WireObserverStartsLinearInNodes)
{
    // 257 nodes: 66,049 directed flows, each with four histograms
    // once it opens. Building the observer makes the same few
    // allocations (O(n) bytes: one index-row slot per source) at 17
    // nodes as at 257, and a packet adds its source's index row and
    // the one flow it opens, not a histogram per pair.
    const auto build = [](std::uint32_t nodes, std::uint64_t &calls) {
        const std::uint64_t before = g_news;
        auto obs = std::make_unique<WireObserver>(
            nodes, std::vector<std::string>{"pcie", "nvlink"},
            [&calls](NodeId src, NodeId) {
                ++calls;
                return src == 0 ? std::size_t{0} : std::size_t{1};
            });
        return std::make_pair(std::move(obs), g_news - before);
    };
    std::uint64_t small_calls = 0, calls = 0;
    const auto [small, small_news] = build(17, small_calls);
    const auto [obs, news] = build(257, calls);
    EXPECT_EQ(news, small_news);
    EXPECT_LE(news, 8u);

    const std::uint64_t before = g_news;
    for (Tick t = 0; t < 100; ++t)
        obs->onWirePacket(3, 200, 64, 10 * t, 10 * t + 5);
    EXPECT_LE(g_news - before, 16u);
    // The flow's link class is looked up once, when it opens.
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(obs->packets(), 100u);
}
