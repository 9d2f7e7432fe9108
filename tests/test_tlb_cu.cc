/**
 * @file
 * TLB, compute-unit (banked L1 and L1 TLB), and node-level
 * translation-path tests.
 */

#include <gtest/gtest.h>

#include <array>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>

#include "core/experiment.hh"
#include "core/system.hh"
#include "gpu/node.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

// -------------------------------------------------------------------- TLB

TEST(Tlb, MissThenHit)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    EXPECT_FALSE(t.lookup(10));
    EXPECT_TRUE(t.lookup(10));
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{2, 1});
    t.lookup(1);
    t.lookup(2);
    t.lookup(1);      // 2 becomes LRU
    t.lookup(3);      // evicts 2
    EXPECT_TRUE(t.resident(1));
    EXPECT_FALSE(t.resident(2));
    EXPECT_TRUE(t.resident(3));
    EXPECT_EQ(t.occupancy(), 2u);
}

TEST(Tlb, InvalidateRemovesMapping)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    t.lookup(5);
    EXPECT_TRUE(t.invalidate(5));
    EXPECT_FALSE(t.resident(5));
    EXPECT_FALSE(t.invalidate(5));
}

TEST(Tlb, FlushClearsEverything)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{8, 1});
    for (std::uint64_t p = 0; p < 8; ++p)
        t.lookup(p);
    t.flush();
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_FALSE(t.resident(0));
}

TEST(Tlb, ResidentHasNoSideEffects)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{4, 1});
    t.lookup(9);
    const std::uint64_t hits = t.hits();
    EXPECT_TRUE(t.resident(9));
    EXPECT_EQ(t.hits(), hits);
}

TEST(Tlb, CapacityWorkloadFullyHitsOnSecondPass)
{
    EventQueue eq;
    Tlb t("t", eq, TlbParams{64, 1});
    for (std::uint64_t p = 0; p < 64; ++p)
        t.lookup(p);
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(t.lookup(p));
}

namespace
{

/** The list + hash-map exact LRU that the flat Tlb must reproduce. */
class RefTlb
{
  public:
    explicit RefTlb(std::uint32_t entries) : entries_(entries) {}

    bool lookup(std::uint64_t page)
    {
        auto it = map_.find(page);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits;
            return true;
        }
        ++misses;
        if (lru_.size() >= entries_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions;
        }
        lru_.push_front(page);
        map_[page] = lru_.begin();
        return false;
    }

    bool resident(std::uint64_t page) const
    {
        return map_.count(page) != 0;
    }

    bool invalidate(std::uint64_t page)
    {
        auto it = map_.find(page);
        if (it == map_.end())
            return false;
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    void flush()
    {
        lru_.clear();
        map_.clear();
    }

    std::uint32_t occupancy() const
    {
        return static_cast<std::uint32_t>(lru_.size());
    }

    std::uint64_t hits = 0, misses = 0, evictions = 0;

  private:
    std::uint32_t entries_;
    std::list<std::uint64_t> lru_; ///< MRU at front
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map_;
};

} // anonymous namespace

TEST(Tlb, MatchesReferenceListLru)
{
    for (const std::uint32_t entries : {1u, 2u, 64u, 1024u, 4096u}) {
        EventQueue eq;
        Tlb t("t", eq, TlbParams{entries, 1});
        RefTlb ref(entries);
        std::mt19937_64 rng(entries);
        // Pages from a pool ~1.5x the capacity, so hits, evictions
        // and misses all stay common; every 8th is far away so the
        // index sees scattered hashes and long probe runs too.
        const std::uint64_t pool = entries + entries / 2 + 2;
        // A flush comes every ~1,000 steps, too soon for 4,096
        // entries to fill, so the largest TLB invalidates instead.
        const bool flushes = entries <= 1024;
        for (int step = 0; step < 60000; ++step) {
            std::uint64_t page = rng() % pool;
            if (rng() % 8 == 0)
                page = page * 0x10001ull + (1ull << 40);
            const unsigned op = static_cast<unsigned>(rng() % 1000);
            if (op < 700) {
                ASSERT_EQ(t.lookup(page), ref.lookup(page))
                    << entries << " entries, step " << step;
            } else if (op < 850) {
                ASSERT_EQ(t.resident(page), ref.resident(page))
                    << entries << " entries, step " << step;
            } else if (op < 999 || !flushes) {
                ASSERT_EQ(t.invalidate(page), ref.invalidate(page))
                    << entries << " entries, step " << step;
            } else {
                t.flush();
                ref.flush();
            }
            ASSERT_EQ(t.occupancy(), ref.occupancy());
            ASSERT_EQ(t.hits(), ref.hits);
            ASSERT_EQ(t.misses(), ref.misses);
            ASSERT_EQ(t.evictions(), ref.evictions);
        }
        EXPECT_GT(ref.evictions, 0u);
    }
}

TEST(Tlb, BanksMatchIndependentTlbs)
{
    // A B-bank TLB is B TLBs that share storage and counters: every
    // step on bank b must see what a TLB of its own sees, LRU order,
    // occupancy and all. Pages are drawn independently of the bank,
    // so one page is resident in several banks at once; a flush
    // clears every bank.
    for (const std::uint32_t entries : {2u, 64u}) {
        for (const std::uint32_t banks : {1u, 48u, 64u}) {
            SCOPED_TRACE(std::to_string(banks) + " banks of " +
                         std::to_string(entries));
            EventQueue eq;
            Tlb banked("l1tlb", eq, TlbParams{entries, 1}, banks);
            ASSERT_EQ(banked.numBanks(), banks);
            std::vector<std::unique_ptr<Tlb>> own;
            for (std::uint32_t b = 0; b < banks; ++b)
                own.push_back(std::make_unique<Tlb>(
                    "own", eq, TlbParams{entries, 1}));
            std::mt19937_64 rng(entries * 100 + banks);
            const std::uint64_t pool = 2ull * entries + 3;
            for (int step = 0; step < 100000; ++step) {
                const std::uint32_t b =
                    static_cast<std::uint32_t>(rng() % banks);
                std::uint64_t page = rng() % pool;
                if (rng() % 8 == 0)
                    page = page * 0x10001ull + (1ull << 40);
                const unsigned op = static_cast<unsigned>(rng() % 20000);
                if (op < 14000) {
                    ASSERT_EQ(banked.lookup(page, b), own[b]->lookup(page))
                        << "step " << step;
                } else if (op < 17000) {
                    ASSERT_EQ(banked.resident(page, b),
                              own[b]->resident(page))
                        << "step " << step;
                } else if (op < 19999) {
                    ASSERT_EQ(banked.invalidate(page, b),
                              own[b]->invalidate(page))
                        << "step " << step;
                } else {
                    banked.flush();
                    for (const auto &t : own)
                        t->flush();
                }
                ASSERT_EQ(banked.occupancy(b), own[b]->occupancy())
                    << "step " << step;
            }
            std::uint64_t hits = 0, misses = 0, evictions = 0;
            for (std::uint32_t b = 0; b < banks; ++b) {
                EXPECT_EQ(banked.occupancy(b), own[b]->occupancy());
                hits += own[b]->hits();
                misses += own[b]->misses();
                evictions += own[b]->evictions();
            }
            EXPECT_EQ(banked.hits(), hits);
            EXPECT_EQ(banked.misses(), misses);
            EXPECT_EQ(banked.evictions(), evictions);
            EXPECT_GT(evictions, 0u);
        }
    }
}

TEST(TlbDeath, SixteenBitSlotNumbersCapTheEntries)
{
    EventQueue eq;
    EXPECT_DEATH(Tlb("t", eq, TlbParams{65535, 1}), "16-bit");
    EXPECT_DEATH(Tlb("t", eq, TlbParams{1u << 20, 1}), "16-bit");
}

// ---------------------------------------------------------- compute units

// CU c's L1 TLB and L1 are bank c of the node's banked TLB and cache,
// in the geometry of Table III.

TEST(ComputeUnit, TranslateFillsPrivateTlb)
{
    EventQueue eq;
    Tlb tlbs("l1tlb", eq, CuParams{}.l1Tlb, 64);
    EXPECT_FALSE(tlbs.lookup(0x4000 / kPageBytes, 7));
    EXPECT_TRUE(tlbs.lookup(0x4000 / kPageBytes, 7));
    EXPECT_TRUE(tlbs.lookup(0x4fff / kPageBytes, 7)); // same page
    EXPECT_FALSE(tlbs.lookup(0x5000 / kPageBytes, 7)); // next page
    // Private: the other CUs' TLBs stay empty.
    EXPECT_FALSE(tlbs.resident(0x4000 / kPageBytes, 8));
    EXPECT_EQ(tlbs.occupancy(7), 2u);
    EXPECT_EQ(tlbs.occupancy(0), 0u);
}

TEST(ComputeUnit, L1AccessCachesBlocks)
{
    EventQueue eq;
    Cache l1s("l1", eq, CuParams{}.l1, 64);
    EXPECT_FALSE(l1s.access(0x100, false, 7).hit);
    EXPECT_TRUE(l1s.access(0x100, false, 7).hit);
    // Private: the block is in CU 7's L1 only.
    EXPECT_FALSE(l1s.contains(0x100, 8));
    EXPECT_FALSE(l1s.access(0x100, false, 8).hit);
}

// --------------------------------------------------------- node-level path

TEST(TranslationPath, GpuNodesHaveCusAndCpuDoesNot)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.05;
    SystemConfig sc = makeSystemConfig(e);
    MultiGpuSystem sys(sc, makeProfile("mm", e.scale));
    EXPECT_EQ(sys.node(0).numCus(), 0u);
    EXPECT_EQ(sys.node(1).numCus(), 64u);
}

TEST(TranslationPath, IommuWalksAppearAsCpuTraffic)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.1;
    SystemConfig sc = makeSystemConfig(e);
    // Tiny TLBs so walks are common.
    sc.gpu.cu.l1Tlb.entries = 2;
    sc.gpu.l2Tlb.entries = 4;
    MultiGpuSystem sys(sc, makeProfile("pr", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    // The walks show up as GPU->CPU packets even though pr itself
    // sends little to the host.
    EXPECT_GT(sys.network().pairBytes(1, 0), 0u);
    EXPECT_GT(sys.node(1).l2Tlb().misses(), 0u);
}

TEST(TranslationPath, LargerTlbMeansFewerWalks)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.1;

    e.scale = 0.5;
    auto walks = [&](std::uint32_t l2_entries) {
        SystemConfig sc = makeSystemConfig(e);
        sc.gpu.l2Tlb.entries = l2_entries;
        // st has a small, heavily revisited working set, so TLB
        // capacity actually matters.
        MultiGpuSystem sys(sc, makeProfile("st", e.scale));
        sys.run();
        std::uint64_t misses = 0;
        for (NodeId g = 1; g < sys.numNodes(); ++g)
            misses += sys.node(g).l2Tlb().misses();
        return misses;
    };
    EXPECT_LT(walks(4096), walks(2));
}

TEST(TranslationPath, L1FiltersLocalAccesses)
{
    // aes migrates pages local and then re-reads them: the CU L1s
    // and L2 should absorb most of that.
    ExperimentConfig e;
    e.scheme = OtpScheme::Unsecure;
    e.scale = 0.2;
    SystemConfig sc = makeSystemConfig(e);
    MultiGpuSystem sys(sc, makeProfile("aes", e.scale));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    // Every L1 hit is a local op the node counted as filtered: the
    // node only fills L1s through its block interleave.
    for (NodeId g = 1; g < sys.numNodes(); ++g) {
        Node &node = sys.node(g);
        EXPECT_EQ(node.l1().hits(), node.l1Hits()) << "GPU " << g;
        EXPECT_GT(node.l1().hits(), 0u) << "GPU " << g;
    }
}

// ------------------------------------------------------- pinned counters

namespace
{

/**
 * Memory-model counters of one node, in the order of kPinned below:
 * L2 hits/misses/evictions/writebacks, L2 TLB hits/misses/evictions,
 * iommuWalks, l1Hits, migrationsStarted, then the sums over its CUs
 * (the banked counters) of L1 hits/misses and L1 TLB hits/misses.
 */
using NodeCounters = std::array<std::uint64_t, 14>;

NodeCounters
countersOf(Node &n)
{
    return {n.l2().hits(),         n.l2().misses(),
            n.l2().evictions(),    n.l2().writebacks(),
            n.l2Tlb().hits(),      n.l2Tlb().misses(),
            n.l2Tlb().evictions(), n.iommuWalks(),
            n.l1Hits(),            n.migrationsStarted(),
            n.l1().hits(),         n.l1().misses(),
            n.l1Tlb().hits(),      n.l1Tlb().misses()};
}

struct PinnedRun
{
    const char *app;
    /** Shrunk L2 / TLBs / L1 and 48 CUs, so evictions and
     *  writebacks happen and the interleave is not a divisor of 64. */
    bool small;
    Tick cycles;
    std::array<NodeCounters, 5> nodes; ///< CPU, then GPUs 1-4
};

/**
 * Recorded from the std::list TLB and 24-byte cache lines this model
 * replaced (4-GPU p2p, Dynamic + batching, scale 0.2, seed 1). The
 * host data structures may change; these simulated counts may not.
 */
const PinnedRun kPinned[] = {
    {"aes", false, 125165,
     {{{22, 1621, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {4, 345, 0, 0, 657, 115, 0, 115, 20, 31, 20, 336, 28, 772},
       {0, 356, 0, 0, 649, 110, 0, 110, 34, 37, 34, 337, 41, 759},
       {9, 347, 0, 0, 656, 108, 0, 108, 40, 35, 40, 336, 36, 764},
       {3, 356, 0, 0, 681, 99, 0, 99, 43, 26, 43, 336, 20, 780}}}},
    {"aes", true, 125426,
     {{{22, 1621, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {6, 345, 89, 11, 652, 143, 96, 143, 18, 31, 18, 338, 5, 795},
       {7, 356, 100, 15, 661, 130, 77, 130, 27, 37, 27, 344, 9, 791},
       {12, 350, 94, 7, 637, 142, 91, 142, 34, 35, 34, 342, 21, 779},
       {2, 356, 100, 10, 647, 124, 82, 124, 44, 26, 44, 335, 29, 771}}}},
    {"mm", false, 70149,
     {{{2, 676, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {51, 1740, 0, 0, 1608, 191, 0, 191, 3, 34, 3, 519, 1, 1799},
       {54, 1516, 0, 0, 1589, 183, 0, 183, 0, 30, 0, 426, 28, 1772},
       {63, 1337, 0, 0, 1564, 177, 0, 177, 4, 29, 4, 310, 59, 1741},
       {51, 1668, 0, 0, 1572, 176, 0, 176, 35, 28, 35, 511, 52, 1748}}}},
    {"mm", true, 70066,
     {{{2, 676, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {10, 1781, 1525, 212, 1562, 198, 148, 198, 3, 34, 3, 519, 40,
        1760},
       {28, 1542, 1286, 192, 1582, 189, 143, 189, 0, 30, 0, 426, 29,
        1771},
       {45, 1355, 1099, 144, 1512, 185, 140, 185, 4, 29, 4, 310, 103,
        1697},
       {45, 1678, 1422, 217, 1525, 184, 140, 184, 31, 28, 31, 515, 91,
        1709}}}},
};

} // anonymous namespace

TEST(MemoryModel, CountersMatchThePinnedReference)
{
    for (const PinnedRun &pin : kPinned) {
        ExperimentConfig e;
        e.numGpus = 4;
        e.scheme = OtpScheme::Dynamic;
        e.batching = true;
        e.scale = 0.2;
        SystemConfig sc = makeSystemConfig(e);
        if (pin.small) {
            sc.gpu.l2.size = 16 * 1024;
            sc.gpu.l2Tlb.entries = 16;
            sc.gpu.cu.l1Tlb.entries = 2;
            sc.gpu.cu.l1.size = 1024;
            sc.gpu.numCus = 48;
        }
        MultiGpuSystem sys(sc, makeProfile(pin.app, e.scale));
        const RunResult r = sys.run();
        ASSERT_TRUE(r.completed);
        const std::string what =
            std::string(pin.app) + (pin.small ? " (small)" : "");
        EXPECT_EQ(r.cycles, pin.cycles) << what;
        ASSERT_EQ(sys.numNodes(), pin.nodes.size());
        for (NodeId n = 0; n < sys.numNodes(); ++n)
            EXPECT_EQ(countersOf(sys.node(n)), pin.nodes[n])
                << what << ", node " << n;
    }
}
