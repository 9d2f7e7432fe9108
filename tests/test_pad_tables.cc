/**
 * @file
 * Tests of the four OTP buffer-management schemes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "secure/pad_table.hh"
#include "sim/event_queue.hh"
#include "sim/trace_sink.hh"

using namespace mgsec;

namespace
{

constexpr std::uint32_t kNodes = 5; // CPU + 4 GPUs
constexpr Cycles kLat = 40;

void
advance(EventQueue &eq, Cycles dt)
{
    eq.schedule(eq.now() + dt, []() {});
    eq.run(eq.now() + dt);
}

} // anonymous namespace

// ---------------------------------------------------------------- Private

TEST(PrivateTable, QuotaSplitsEvenly)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    EXPECT_EQ(t.quotaPerPair(), 4u); // 32 / (4 peers * 2 dirs)
}

TEST(PrivateTable, SendCountersArePerPair)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    EXPECT_EQ(t.acquireSend(2).ctr, 0u);
    EXPECT_EQ(t.acquireSend(3).ctr, 0u);
    EXPECT_EQ(t.acquireSend(2).ctr, 1u);
    EXPECT_EQ(t.acquireSend(3).ctr, 1u);
}

TEST(PrivateTable, WarmSendHits)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    const auto g = t.acquireSend(2);
    EXPECT_EQ(g.outcome, OtpOutcome::Hit);
}

TEST(PrivateTable, BurstOverQuotaMisses)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    for (int i = 0; i < 4; ++i)
        t.acquireSend(2);
    const auto g = t.acquireSend(2);
    EXPECT_NE(g.outcome, OtpOutcome::Hit);
    EXPECT_EQ(t.otpStats().counts[0][0], 4u); // 4 send hits
}

TEST(PrivateTable, InOrderRecvHits)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    for (std::uint64_t c = 0; c < 4; ++c) {
        const auto g = t.acquireRecv(2, c);
        EXPECT_EQ(g.outcome, OtpOutcome::Hit) << c;
        advance(eq, 50);
    }
}

TEST(PrivateTable, CounterJumpResyncsAsMiss)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    EXPECT_EQ(t.acquireRecv(2, 0).outcome, OtpOutcome::Hit);
    const auto g = t.acquireRecv(2, 10); // jumped over 1..9
    EXPECT_EQ(g.outcome, OtpOutcome::Miss);
    advance(eq, 50);
    EXPECT_EQ(t.acquireRecv(2, 11).outcome, OtpOutcome::Hit);
}

TEST(PrivateTable, StatsAccumulatePerDirection)
{
    EventQueue eq;
    PrivatePadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireSend(2);
    t.acquireRecv(3, 0);
    const OtpStats &s = t.otpStats();
    EXPECT_EQ(s.total(Direction::Send), 1u);
    EXPECT_EQ(s.total(Direction::Recv), 1u);
    EXPECT_DOUBLE_EQ(s.frac(Direction::Send, OtpOutcome::Hit), 1.0);
}

// ----------------------------------------------------------------- Shared

TEST(SharedTable, GlobalSendCounter)
{
    EventQueue eq;
    SharedPadTable t("t", eq, 1, kNodes, 32, kLat);
    EXPECT_EQ(t.acquireSend(2).ctr, 0u);
    EXPECT_EQ(t.acquireSend(3).ctr, 1u);
    EXPECT_EQ(t.acquireSend(2).ctr, 2u);
}

TEST(SharedTable, BackToBackSameDestinationCanHit)
{
    EventQueue eq;
    SharedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireSend(2); // miss: slot was never primed for dst 2
    advance(eq, 100); // slot re-arms for (ctr+1, 2)
    EXPECT_EQ(t.acquireSend(2).outcome, OtpOutcome::Hit);
}

TEST(SharedTable, DestinationSwitchAlwaysMisses)
{
    EventQueue eq;
    SharedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireSend(2);
    advance(eq, 100);
    EXPECT_EQ(t.acquireSend(3).outcome, OtpOutcome::Miss);
    advance(eq, 100);
    EXPECT_EQ(t.acquireSend(2).outcome, OtpOutcome::Miss);
}

TEST(SharedTable, RecvHitsOnlyOnConsecutiveCounters)
{
    EventQueue eq;
    SharedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    EXPECT_EQ(t.acquireRecv(2, 5).outcome, OtpOutcome::Miss);
    advance(eq, 100);
    // Back-to-back: sender sent ctr 6 to us right after 5.
    EXPECT_EQ(t.acquireRecv(2, 6).outcome, OtpOutcome::Hit);
    advance(eq, 100);
    // Sender talked to someone else in between: counter jumped.
    EXPECT_EQ(t.acquireRecv(2, 9).outcome, OtpOutcome::Miss);
}

TEST(SharedTable, RecvSlotsArePerSender)
{
    EventQueue eq;
    SharedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireRecv(2, 0);
    t.acquireRecv(3, 0);
    advance(eq, 100);
    EXPECT_EQ(t.acquireRecv(2, 1).outcome, OtpOutcome::Hit);
    EXPECT_EQ(t.acquireRecv(3, 1).outcome, OtpOutcome::Hit);
}

// ----------------------------------------------------------------- Cached

TEST(CachedTable, ColdMissThenWarmHit)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    EXPECT_EQ(t.acquireSend(2).outcome, OtpOutcome::Miss);
    advance(eq, 200);
    EXPECT_EQ(t.acquireSend(2).outcome, OtpOutcome::Hit);
}

TEST(CachedTable, EntriesAccumulateOnHotPair)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireSend(2);
    EXPECT_EQ(t.owned(2, Direction::Send), 1u);
    // Overrunning demand grows the pair (rate-limited).
    for (int i = 0; i < 6; ++i) {
        t.acquireSend(2);
        advance(eq, 100);
    }
    EXPECT_GT(t.owned(2, Direction::Send), 1u);
}

TEST(CachedTable, SendCountersPerPairDespitePool)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    EXPECT_EQ(t.acquireSend(2).ctr, 0u);
    EXPECT_EQ(t.acquireSend(3).ctr, 0u);
    EXPECT_EQ(t.acquireSend(2).ctr, 1u);
}

TEST(CachedTable, LruVictimLosesItsSlot)
{
    EventQueue eq;
    // Tiny pool: 2 entries total.
    CachedPadTable t("t", eq, 1, kNodes, 2, kLat);
    advance(eq, 100);
    t.acquireSend(2); // entry 1 -> (2, send)
    advance(eq, 10);
    t.acquireSend(3); // entry 2 -> (3, send)
    advance(eq, 10);
    t.acquireRecv(4, 0); // must steal the LRU pair: (2, send)
    EXPECT_EQ(t.owned(2, Direction::Send), 0u);
    EXPECT_EQ(t.owned(4, Direction::Recv), 1u);
}

TEST(CachedTable, RecvInOrderWarmsUp)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    EXPECT_EQ(t.acquireRecv(2, 0).outcome, OtpOutcome::Miss);
    advance(eq, 200);
    EXPECT_EQ(t.acquireRecv(2, 1).outcome, OtpOutcome::Hit);
}

TEST(CachedTable, SenderFallbackForcesRecvMiss)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    advance(eq, 100);
    t.acquireRecv(2, 0);
    advance(eq, 200);
    // Even though the staged pad matches ctr 1, the sender signalled
    // it fell back to the shared max-counter stream.
    EXPECT_EQ(t.acquireRecv(2, 1, true).outcome, OtpOutcome::Miss);
}

TEST(CachedTable, PairCapBoundsHoarding)
{
    EventQueue eq;
    CachedPadTable t("t", eq, 1, kNodes, 32, kLat);
    // Hammer one pair for a long time.
    for (int i = 0; i < 200; ++i) {
        t.acquireSend(2);
        advance(eq, 90);
    }
    EXPECT_LE(t.owned(2, Direction::Send), 6u); // 3*32/(4*4) = 6
}

// ---------------------------------------------------------------- Dynamic

TEST(DynamicTable, StartsLikePrivate)
{
    EventQueue eq;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, {});
    for (NodeId p = 0; p < kNodes; ++p) {
        if (p == 1)
            continue;
        EXPECT_EQ(t.quota(p, Direction::Send), 4u);
        EXPECT_EQ(t.quota(p, Direction::Recv), 4u);
    }
}

TEST(DynamicTable, QuotasAlwaysSumToTotalAndStayPositive)
{
    EventQueue eq;
    DynamicPadTable::Params params;
    params.confidenceDir = 1; // react fast for the test
    params.confidencePeer = 1;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, params);
    // Heavy one-sided traffic toward node 2.
    for (int round = 0; round < 30; ++round) {
        for (int i = 0; i < 50; ++i)
            t.acquireSend(2);
        t.adjust();
        std::uint32_t total = 0;
        for (NodeId p = 0; p < kNodes; ++p) {
            if (p == 1)
                continue;
            const auto s = t.quota(p, Direction::Send);
            const auto r = t.quota(p, Direction::Recv);
            EXPECT_GE(s, 1u);
            EXPECT_GE(r, 1u);
            total += s + r;
        }
        EXPECT_EQ(total, 32u);
    }
    // The hot pair ends up with the lion's share of send entries.
    EXPECT_GT(t.quota(2, Direction::Send), 8u);
    EXPECT_GT(t.sendWeight(), 0.8);
}

TEST(DynamicTable, RecvHeavyTrafficShiftsDirectionSplit)
{
    EventQueue eq;
    DynamicPadTable::Params params;
    params.confidenceDir = 1;
    params.confidencePeer = 1;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, params);
    for (int round = 0; round < 30; ++round) {
        for (std::uint64_t i = 0; i < 50; ++i)
            t.acquireRecv(3, round * 50 + i);
        t.adjust();
    }
    EXPECT_LT(t.sendWeight(), 0.2);
    EXPECT_GT(t.quota(3, Direction::Recv), 8u);
}

TEST(DynamicTable, EmptyIntervalKeepsWeights)
{
    EventQueue eq;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, {});
    const double before = t.sendWeight();
    t.adjust();
    EXPECT_DOUBLE_EQ(t.sendWeight(), before);
}

TEST(DynamicTable, IdleIntervalsTraceNoFurtherS)
{
    // A counter track holds its value between events, so S is traced
    // only when an interval moves it.
    std::ostringstream os;
    {
        TraceSink sink(os);
        EventQueue eq;
        eq.setTraceSink(&sink);
        DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, {});
        for (int i = 0; i < 50; ++i)
            t.acquireSend(2);
        t.adjust();
        t.adjust();
        t.adjust();
        for (std::uint64_t i = 0; i < 50; ++i)
            t.acquireRecv(3, i);
        t.adjust();
        t.adjust();
    }
    const std::string trace = os.str();
    std::size_t events = 0;
    for (std::size_t at = 0;
         (at = trace.find("\"name\":\"S\"", at)) != std::string::npos;
         ++at)
        ++events;
    EXPECT_EQ(events, 2u) << trace;
}

TEST(DynamicTable, ConfidenceDampsSparseIntervals)
{
    EventQueue eq;
    DynamicPadTable::Params params;
    params.confidenceDir = 4096;
    params.confidencePeer = 4096;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, params);
    // One lonely send: a 100 % send ratio, but only one message.
    t.acquireSend(2);
    t.adjust();
    EXPECT_LT(t.sendWeight(), 0.51);
}

TEST(DynamicTable, AdjustmentEventFiresPeriodically)
{
    EventQueue eq;
    DynamicPadTable::Params params;
    params.interval = 100;
    DynamicPadTable t("t", eq, 1, kNodes, 32, kLat, params);
    eq.run(1050);
    EXPECT_GE(t.adjustments(), 10u);
}

// ---------------------------------------------------------------- factory

TEST(PadTableFactory, BuildsEveryScheme)
{
    EventQueue eq;
    for (OtpScheme s : {OtpScheme::Private, OtpScheme::Shared,
                        OtpScheme::Cached, OtpScheme::Dynamic}) {
        auto t = makePadTable(s, "t", eq, 1, kNodes, 32, kLat);
        ASSERT_NE(t, nullptr) << otpSchemeName(s);
        EXPECT_EQ(t->totalEntries(), 32u);
    }
}

TEST(PadTableFactory, SchemeNames)
{
    EXPECT_STREQ(otpSchemeName(OtpScheme::Unsecure), "Unsecure");
    EXPECT_STREQ(otpSchemeName(OtpScheme::Private), "Private");
    EXPECT_STREQ(otpSchemeName(OtpScheme::Shared), "Shared");
    EXPECT_STREQ(otpSchemeName(OtpScheme::Cached), "Cached");
    EXPECT_STREQ(otpSchemeName(OtpScheme::Dynamic), "Dynamic");
}

TEST(OtpStatsStruct, AccumulateAndFractions)
{
    OtpStats a, b;
    a.counts[0][0] = 3;
    b.counts[0][2] = 1;
    a += b;
    EXPECT_EQ(a.total(Direction::Send), 4u);
    EXPECT_DOUBLE_EQ(a.frac(Direction::Send, OtpOutcome::Hit), 0.75);
    EXPECT_DOUBLE_EQ(a.frac(Direction::Recv, OtpOutcome::Hit), 0.0);
}

TEST(OtpEntryCost, MatchesTableIStorageArithmetic)
{
    // Table I: 4 GPUs, OTP 1x => 32 OTPs, 2.75 KB system-wide.
    const double total = 32 * kOtpEntryBytes;
    EXPECT_NEAR(total / 1024.0, 2.75, 0.01);
    // 32 GPUs, OTP 16x => 32768 OTPs, 2820 KB.
    EXPECT_NEAR(32768 * kOtpEntryBytes / 1024.0, 2820.0, 1.0);
}

/** Every scheme must satisfy basic protocol invariants. */
class AnyScheme : public ::testing::TestWithParam<OtpScheme>
{};

TEST_P(AnyScheme, SendCountersPerPairNeverRepeat)
{
    EventQueue eq;
    auto t = makePadTable(GetParam(), "t", eq, 1, kNodes, 32, kLat);
    std::uint64_t last2 = 0, last3 = 0;
    bool first2 = true, first3 = true;
    for (int i = 0; i < 100; ++i) {
        const auto g2 = t->acquireSend(2);
        const auto g3 = t->acquireSend(3);
        if (!first2) {
            EXPECT_GT(g2.ctr, last2);
        }
        if (!first3) {
            EXPECT_GT(g3.ctr, last3);
        }
        last2 = g2.ctr;
        last3 = g3.ctr;
        first2 = first3 = false;
        advance(eq, 3);
    }
}

TEST_P(AnyScheme, PadReadyNeverBeforeRequestWhenCold)
{
    EventQueue eq;
    auto t = makePadTable(GetParam(), "t", eq, 1, kNodes, 32, kLat);
    // The very first acquire can at best be ready after the initial
    // fill latency.
    const auto g = t->acquireSend(2);
    EXPECT_GE(g.padReady, kLat);
}

TEST_P(AnyScheme, ExposedLatencyTracksMisses)
{
    EventQueue eq;
    auto t = makePadTable(GetParam(), "t", eq, 1, kNodes, 32, kLat);
    for (int i = 0; i < 50; ++i)
        t->acquireSend(2); // all at tick 0: most must wait
    const OtpStats &s = t->otpStats();
    EXPECT_GT(s.exposedCycles[0], 0.0);
    EXPECT_EQ(s.total(Direction::Send), 50u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, AnyScheme,
                         ::testing::Values(OtpScheme::Private,
                                           OtpScheme::Shared,
                                           OtpScheme::Cached,
                                           OtpScheme::Dynamic),
                         [](const auto &info) {
                             return otpSchemeName(info.param);
                         });
