/**
 * @file
 * Cache, HBM, and page-table tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/hbm.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

namespace
{

CacheParams
smallCache(Bytes size = 1024, std::uint32_t assoc = 2)
{
    CacheParams p;
    p.size = size;
    p.assoc = assoc;
    p.blockSize = 64;
    p.hitLatency = 1;
    return p;
}

} // anonymous namespace

// ----------------------------------------------------------------- Cache

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameBlockDifferentBytesHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    EventQueue eq;
    // 1 KB, 2-way, 64 B blocks => 8 sets. Set 0 holds addresses that
    // are multiples of 512.
    Cache c("c", eq, smallCache());
    c.access(0 * 512, false);
    c.access(1 * 512, false);
    c.access(0 * 512, false); // touch A: B is now LRU
    const auto res = c.access(2 * 512, false);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.victimAddr, 1u * 512);
    EXPECT_TRUE(c.contains(0 * 512));
    EXPECT_FALSE(c.contains(1 * 512));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0 * 512, true);
    c.access(1 * 512, false);
    c.access(2 * 512, false); // evicts dirty A
    // A was LRU after B and the new fill.
    EXPECT_FALSE(c.contains(0 * 512));
}

TEST(Cache, WriteMarksDirtyOnHit)
{
    EventQueue eq;
    Cache c("c", eq, smallCache(128, 2)); // 1 set, 2 ways
    c.access(0, false);
    c.access(0, true); // dirty now
    c.access(64, false);
    const auto res = c.access(128, false); // evicts LRU = addr 0
    EXPECT_TRUE(res.evicted);
    EXPECT_TRUE(res.victimDirty);
}

TEST(Cache, InvalidateRemovesBlock)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x2000, false);
    EXPECT_TRUE(c.contains(0x2000));
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000));
}

/**
 * Reference tag array with separate valid/dirty flags and the
 * original victim scan (first invalid way, else the oldest stamp),
 * against which the tag words and recency ranks are checked.
 */
class RefCache
{
  public:
    RefCache(std::uint32_t sets, std::uint32_t assoc)
        : sets_(sets), assoc_(assoc), lines_(sets * assoc)
    {
    }

    Cache::AccessResult access(std::uint64_t addr, bool write)
    {
        Cache::AccessResult res;
        const std::uint64_t block = addr / 64;
        const std::uint32_t set = static_cast<std::uint32_t>(block % sets_);
        const std::uint64_t tag = block / sets_;
        Line *base = &lines_[set * assoc_];
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.stamp = ++clock_;
                line.dirty = line.dirty || write;
                ++hits;
                res.hit = true;
                return res;
            }
            if (victim == nullptr || !line.valid ||
                (victim->valid && line.stamp < victim->stamp)) {
                if (victim == nullptr || victim->valid)
                    victim = &line;
            }
        }
        ++misses;
        if (victim->valid) {
            ++evictions;
            res.evicted = true;
            res.victimAddr = (victim->tag * sets_ + set) * 64;
            res.victimDirty = victim->dirty;
            writebacks += victim->dirty;
        }
        *victim = Line{true, write, tag, ++clock_};
        return res;
    }

    bool invalidate(std::uint64_t addr)
    {
        Line *line = find(addr);
        if (line == nullptr)
            return false;
        line->valid = line->dirty = false;
        return true;
    }

    bool contains(std::uint64_t addr) { return find(addr) != nullptr; }

    std::uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *find(std::uint64_t addr)
    {
        const std::uint64_t block = addr / 64;
        Line *base = &lines_[(block % sets_) * assoc_];
        for (std::uint32_t w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == block / sets_)
                return &base[w];
        return nullptr;
    }

    std::uint32_t sets_, assoc_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

TEST(Cache, MatchesReferenceLruModel)
{
    // Invalidations leave holes that the victim scan must prefer,
    // and addresses wrap the sets several times, so every branch of
    // the scan (hole, oldest, dirty victim) is exercised. The last
    // two geometries are an 8-way cache and the CPU L2 of Table III.
    for (const auto &[size, assoc] :
         {std::pair<Bytes, std::uint32_t>{64, 1}, {512, 1}, {1024, 2},
          {4096, 4}, {16 * 1024, 4}, {64 * 1024, 16}, {32 * 1024, 8},
          {8 * 1024 * 1024, 16}}) {
        EventQueue eq;
        Cache c("c", eq, smallCache(size, assoc));
        RefCache ref(c.numSets(), assoc);
        std::mt19937_64 rng(size + assoc);
        // A cache with more than 256 sets sees four times its ways in
        // tags on 256 sets spread over its index, or the steps would
        // never fill a set.
        const std::uint64_t sets = c.numSets();
        const std::uint64_t hot = std::min<std::uint64_t>(sets, 256);
        auto draw = [&]() -> std::uint64_t {
            if (hot == sets)
                return rng() % (4 * size);
            const std::uint64_t set = (rng() % hot) * (sets / hot);
            const std::uint64_t tag = rng() % (4 * assoc);
            return (tag * sets + set) * 64 + rng() % 64;
        };
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t addr = draw();
            const unsigned kind = static_cast<unsigned>(rng() % 8);
            if (kind == 0) {
                ASSERT_EQ(c.invalidate(addr), ref.invalidate(addr));
            } else {
                const bool write = kind < 3;
                const auto got = c.access(addr, write);
                const auto want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "step " << step;
                ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
                ASSERT_EQ(got.victimAddr, want.victimAddr);
                ASSERT_EQ(got.victimDirty, want.victimDirty);
            }
            ASSERT_EQ(c.contains(addr), ref.contains(addr))
                << "step " << step;
        }
        EXPECT_EQ(c.hits(), ref.hits);
        EXPECT_EQ(c.misses(), ref.misses);
        EXPECT_EQ(c.evictions(), ref.evictions);
        EXPECT_EQ(c.writebacks(), ref.writebacks);
        EXPECT_GT(c.evictions(), 0u) << size << " B " << assoc << "-way";
    }
}

TEST(Cache, BanksMatchIndependentCaches)
{
    // A B-bank cache is B caches that share storage and counters:
    // every step on bank b must see what a cache of its own sees.
    // Addresses are drawn independently of the bank, so one block
    // lives in several banks at once. The geometries are the CU L1
    // of Table III and a 2-way one that evicts on most misses.
    for (const auto &[size, assoc] :
         {std::pair<Bytes, std::uint32_t>{16 * 1024, 4}, {1024, 2}}) {
        for (const std::uint32_t banks : {1u, 48u, 64u}) {
            SCOPED_TRACE(std::to_string(banks) + " banks of " +
                         std::to_string(size) + " B");
            EventQueue eq;
            Cache banked("l1", eq, smallCache(size, assoc), banks);
            ASSERT_EQ(banked.numBanks(), banks);
            std::vector<std::unique_ptr<Cache>> own;
            for (std::uint32_t b = 0; b < banks; ++b)
                own.push_back(std::make_unique<Cache>(
                    "own", eq, smallCache(size, assoc)));
            std::mt19937_64 rng(size + banks);
            for (int step = 0; step < 100000; ++step) {
                const std::uint32_t b =
                    static_cast<std::uint32_t>(rng() % banks);
                const std::uint64_t addr = rng() % (4 * size);
                const unsigned kind = static_cast<unsigned>(rng() % 8);
                if (kind == 0) {
                    ASSERT_EQ(banked.invalidate(addr, b),
                              own[b]->invalidate(addr))
                        << "step " << step;
                } else {
                    const bool write = kind < 3;
                    const auto got = banked.access(addr, write, b);
                    const auto want = own[b]->access(addr, write);
                    ASSERT_EQ(got.hit, want.hit) << "step " << step;
                    ASSERT_EQ(got.evicted, want.evicted)
                        << "step " << step;
                    ASSERT_EQ(got.victimAddr, want.victimAddr)
                        << "step " << step;
                    ASSERT_EQ(got.victimDirty, want.victimDirty)
                        << "step " << step;
                }
                ASSERT_EQ(banked.contains(addr, b), own[b]->contains(addr))
                    << "step " << step;
            }
            std::uint64_t hits = 0, misses = 0, evictions = 0,
                          writebacks = 0;
            for (const auto &c : own) {
                hits += c->hits();
                misses += c->misses();
                evictions += c->evictions();
                writebacks += c->writebacks();
            }
            EXPECT_EQ(banked.hits(), hits);
            EXPECT_EQ(banked.misses(), misses);
            EXPECT_EQ(banked.evictions(), evictions);
            EXPECT_EQ(banked.writebacks(), writebacks);
            EXPECT_GT(writebacks, 0u);
        }
    }
}

TEST(Cache, ContainsHasNoSideEffects)
{
    EventQueue eq;
    Cache c("c", eq, smallCache());
    c.access(0x3000, false);
    const std::uint64_t hits = c.hits();
    EXPECT_TRUE(c.contains(0x3000));
    EXPECT_EQ(c.hits(), hits);
}

TEST(CacheDeath, NonPowerOfTwoBlockRejected)
{
    EventQueue eq;
    CacheParams p = smallCache();
    p.blockSize = 48;
    EXPECT_DEATH(Cache("c", eq, p), "power of two");
}

/** Geometry sweep: fills never exceed capacity; hit rate on a
 *  repeated scan of a fitting working set is eventually 100 %. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<Bytes, std::uint32_t>>
{};

TEST_P(CacheGeometry, FittingWorkingSetFullyHitsOnSecondPass)
{
    EventQueue eq;
    const auto [size, assoc] = GetParam();
    Cache c("c", eq, smallCache(size, assoc));
    const Bytes blocks = size / 64;
    for (Bytes i = 0; i < blocks; ++i)
        c.access(i * 64, false);
    for (Bytes i = 0; i < blocks; ++i)
        EXPECT_TRUE(c.access(i * 64, false).hit);
    EXPECT_EQ(c.misses(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair<Bytes, std::uint32_t>(512, 1),
                      std::make_pair<Bytes, std::uint32_t>(1024, 2),
                      std::make_pair<Bytes, std::uint32_t>(4096, 4),
                      std::make_pair<Bytes, std::uint32_t>(8192, 8),
                      std::make_pair<Bytes, std::uint32_t>(
                          2 * 1024 * 1024, 16)));

// ------------------------------------------------------------------- HBM

TEST(Hbm, AccessLatencyApplied)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 100});
    EXPECT_EQ(m.access(64), 101u); // 1 cycle transfer + 100
}

TEST(Hbm, BandwidthSerializes)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 100});
    EXPECT_EQ(m.access(640), 110u);
    EXPECT_EQ(m.access(64), 111u); // queued behind the first
}

TEST(Hbm, IdleGapsDoNotAccumulateCredit)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 10});
    m.access(64);
    eq.schedule(1000, []() {});
    eq.run();
    EXPECT_EQ(m.access(64), 1011u);
}

TEST(Hbm, StatsTrackBytes)
{
    EventQueue eq;
    Hbm m("m", eq, HbmParams{64.0, 10});
    m.access(64);
    m.access(4096);
    EXPECT_EQ(m.accesses(), 2u);
    EXPECT_EQ(m.bytesServed(), 4160u);
}

// ------------------------------------------------------------ Page table

TEST(PageTable, FirstTouchMapsToToucher)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    EXPECT_EQ(pt.home(100, 3), 3u);
    EXPECT_TRUE(pt.mapped(100));
    EXPECT_FALSE(pt.mapped(101));
    // Later touchers see the existing mapping.
    EXPECT_EQ(pt.home(100, 1), 3u);
}

TEST(PageTable, PlacePins)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    pt.place(7, 2);
    EXPECT_EQ(pt.homeOf(7), 2u);
}

TEST(PageTable, MigrationTriggersAtThreshold)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 4;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
}

TEST(PageTable, CountersArePerAccessor)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 3;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 3));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
    EXPECT_FALSE(pt.recordRemoteAccess(9, 3));
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
}

TEST(PageTable, FinishMigrationMovesHomeAndResets)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 2;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    pt.recordRemoteAccess(9, 2);
    EXPECT_TRUE(pt.recordRemoteAccess(9, 2));
    pt.finishMigration(9, 2);
    EXPECT_EQ(pt.homeOf(9), 2u);
    EXPECT_EQ(pt.migrations(), 1u);
    // Counters reset: the old home needs a fresh threshold run.
    EXPECT_FALSE(pt.recordRemoteAccess(9, 1));
}

TEST(PageTable, MigrationCanBeDisabled)
{
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = 1;
    params.migrationEnabled = false;
    PageTable pt("pt", eq, params, 5);
    pt.place(9, 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(pt.recordRemoteAccess(9, 2));
}

namespace
{

/**
 * The page table as the Volta-style policy states it: one counter per
 * (page, accessor), all of a page's counters zeroed by a placement, a
 * migration commit or a counter reaching the threshold.
 */
struct PageTableModel
{
    std::uint32_t threshold;
    std::map<std::uint64_t, NodeId> home;
    std::map<std::pair<std::uint64_t, NodeId>, std::uint32_t> counts;
    std::uint64_t migrations = 0;

    void
    reset(std::uint64_t page)
    {
        counts.erase(counts.lower_bound({page, 0}),
                     counts.lower_bound({page + 1, 0}));
    }

    NodeId
    touch(std::uint64_t page, NodeId toucher)
    {
        return home.try_emplace(page, toucher).first->second;
    }

    bool
    recordRemoteAccess(std::uint64_t page, NodeId accessor)
    {
        if (++counts[{page, accessor}] < threshold)
            return false;
        reset(page);
        return true;
    }

    /** Accessors of @p page with a live count. */
    std::size_t
    liveAccessors(std::uint64_t page) const
    {
        return static_cast<std::size_t>(
            std::distance(counts.lower_bound({page, 0}),
                          counts.lower_bound({page + 1, 0})));
    }
};

/**
 * Drive PageTable and the model with the same random calls and compare
 * every answer. Two thirds of the accesses go to a few hot pages that
 * many nodes share (their counts spill past the inline slot); the rest
 * walk a pool large enough to double the table many times.
 */
void
checkAgainstModel(std::uint32_t num_nodes, std::uint64_t seed)
{
    SCOPED_TRACE("nodes " + std::to_string(num_nodes));
    constexpr std::uint32_t kThreshold = 4;
    constexpr int kCalls = 120000;
    EventQueue eq;
    PageTableParams params;
    params.migrationThreshold = kThreshold;
    PageTable pt("pt", eq, params, num_nodes);
    PageTableModel model{kThreshold, {}, {}, 0};

    std::mt19937_64 rng(seed);
    auto node = [&] { return static_cast<NodeId>(rng() % num_nodes); };
    std::vector<std::uint64_t> pool(20000);
    for (std::size_t i = 0; i < pool.size(); ++i)
        pool[i] = i < 10000 ? 0x100000 + i : rng() >> 20;
    auto page = [&] {
        return rng() % 3 != 0 ? pool[rng() % 8] : pool[rng() % pool.size()];
    };

    std::size_t most_live = 0;
    std::uint64_t fired = 0;
    for (int call = 0; call < kCalls; ++call) {
        const std::uint64_t p = page();
        const std::uint32_t kind = rng() % 100;
        if (kind < 25) {
            const NodeId t = node();
            ASSERT_EQ(pt.home(p, t), model.touch(p, t)) << "call " << call;
        } else if (kind < 96) {
            const NodeId h = model.touch(p, node());
            pt.home(p, h);
            // Any node but the home: half the time one of three
            // frequent accessors (their counts reach the threshold),
            // else any.
            const std::uint32_t others =
                rng() % 2 ? std::min(num_nodes - 1, 3u) : num_nodes - 1;
            NodeId a = static_cast<NodeId>(rng() % others);
            a += a >= h;
            const bool want = model.recordRemoteAccess(p, a);
            ASSERT_EQ(pt.recordRemoteAccess(p, a), want)
                << "call " << call << " page " << p << " accessor " << a;
            fired += want;
            most_live = std::max(most_live, model.liveAccessors(p));
        } else if (kind < 98) {
            const NodeId n = node();
            pt.place(p, n);
            model.home[p] = n;
            model.reset(p);
        } else if (model.home.count(p)) {
            const NodeId n = node();
            pt.finishMigration(p, n);
            model.home[p] = n;
            model.reset(p);
            ++model.migrations;
        }
        const std::uint64_t q = pool[rng() % pool.size()];
        ASSERT_EQ(pt.mapped(q), model.home.count(q) != 0);
        if (model.home.count(q)) {
            ASSERT_EQ(pt.homeOf(q), model.home.at(q));
        }
    }
    EXPECT_EQ(pt.migrations(), model.migrations);
    for (const auto &[p, h] : model.home) {
        ASSERT_EQ(pt.homeOf(p), h);
    }
    EXPECT_GT(model.home.size(), 5000u); // the table doubled many times
    EXPECT_GT(fired, 1000u);
    // Beyond two nodes, several accessors held live counts on one page
    // at once: the spill path ran.
    if (num_nodes > 2) {
        EXPECT_GE(most_live, 4u);
    }
}

} // anonymous namespace

TEST(PageTable, MatchesPerAccessorCounterModel)
{
    checkAgainstModel(2, 11);
    checkAgainstModel(65, 12);
    checkAgainstModel(257, 13);
}

TEST(PageTable, OneAccessorPerPageCostsAtMost64Bytes)
{
    // The synthetic workloads' shape at 256 GPUs: every page has one
    // remote accessor, so no count spills and a page costs its record
    // in a table kept at most half full.
    constexpr std::uint32_t kNodes = 257;
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, kNodes);
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const std::uint64_t page = (i % 256 + 1) * 0x10000000 + i;
        const NodeId home = static_cast<NodeId>(i % 256 + 1);
        ASSERT_EQ(pt.home(page, home), home);
        const NodeId accessor = home % 256 + 1;
        for (int k = 0; k < 3; ++k) {
            ASSERT_FALSE(pt.recordRemoteAccess(page, accessor));
        }
        if (i >= 1000) {
            ASSERT_LE(pt.footprintBytes(), 64 * (i + 1)) << i + 1;
        }
    }
}

TEST(PageTableDeath, HomeOfUnmappedPanics)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    EXPECT_DEATH(pt.homeOf(424242), "unmapped");
}
