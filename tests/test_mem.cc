/**
 * @file
 * Cache, HBM, and page-table tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
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

TEST(PageTableDeath, HomeOfUnmappedPanics)
{
    EventQueue eq;
    PageTable pt("pt", eq, PageTableParams{}, 5);
    EXPECT_DEATH(pt.homeOf(424242), "unmapped");
}
