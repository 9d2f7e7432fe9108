/**
 * @file
 * BatchAssembler, MsgMacStorage, and ReplayWindow tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "secure/batching.hh"
#include "secure/replay_window.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

// --------------------------------------------------------- BatchAssembler

namespace
{

struct FlushLog
{
    struct Rec
    {
        NodeId dst;
        std::uint64_t id;
        std::uint8_t count;
    };
    std::vector<Rec> recs;

    BatchAssembler::FlushFn
    fn()
    {
        return [this](NodeId d, std::uint64_t i, std::uint8_t c) {
            recs.push_back({d, i, c});
        };
    }
};

} // anonymous namespace

TEST(BatchAssembler, FirstMessageOpensAndDeclaresLength)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    const BatchTag t = a.onSend(2);
    EXPECT_TRUE(t.first);
    EXPECT_FALSE(t.last);
    EXPECT_EQ(t.declaredLen, 16u);
    EXPECT_NE(t.batchId, 0u);
}

TEST(BatchAssembler, ClosesAtFullSize)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 4, 400, log.fn());
    BatchTag last;
    std::uint64_t id = 0;
    for (int i = 0; i < 4; ++i) {
        last = a.onSend(2);
        if (i == 0)
            id = last.batchId;
        EXPECT_EQ(last.batchId, id);
    }
    EXPECT_TRUE(last.last);
    EXPECT_EQ(a.batchesClosedFull(), 1u);
    // The next send opens a fresh batch.
    const BatchTag next = a.onSend(2);
    EXPECT_TRUE(next.first);
    EXPECT_NE(next.batchId, id);
}

TEST(BatchAssembler, BatchesArePerDestination)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    const BatchTag t2 = a.onSend(2);
    const BatchTag t3 = a.onSend(3);
    EXPECT_NE(t2.batchId, t3.batchId);
    EXPECT_TRUE(t3.first);
}

TEST(BatchAssembler, IdleBatchFlushesWithActualCount)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    a.onSend(2);
    a.onSend(2);
    a.onSend(2);
    eq.run(); // idle timeout fires
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].dst, 2u);
    EXPECT_EQ(log.recs[0].count, 3u);
    EXPECT_EQ(a.batchesFlushed(), 1u);
}

TEST(BatchAssembler, ActivityPushesTimeoutBack)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    a.onSend(2);
    eq.schedule(300, [&]() {
        EXPECT_TRUE(log.recs.empty());
        a.onSend(2); // re-arms at 300 + 400
    });
    eq.run(500);
    EXPECT_TRUE(log.recs.empty());
    eq.run();
    EXPECT_EQ(eq.now(), 700u);
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].count, 2u);
}

TEST(BatchAssembler, FullCloseCancelsTimeout)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 2, 400, log.fn());
    a.onSend(2);
    a.onSend(2); // closes full
    eq.run();
    EXPECT_TRUE(log.recs.empty());
}

TEST(BatchAssembler, DrainFlushesEverything)
{
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    a.onSend(1);
    a.onSend(2);
    a.onSend(2);
    a.drain();
    EXPECT_EQ(log.recs.size(), 2u);
    eq.run(); // timeouts were cancelled; no double flush
    EXPECT_EQ(log.recs.size(), 2u);
}

TEST(BatchAssemblerDeath, RejectsBatchSizeOne)
{
    EventQueue eq;
    EXPECT_DEATH(BatchAssembler("a", eq, 4, 1, 400, nullptr),
                 "batch size");
}

// ---------------------------------------------------------- MsgMacStorage

namespace
{

struct CompleteLog
{
    std::vector<std::pair<NodeId, std::uint64_t>> recs;

    MsgMacStorage::CompleteFn
    fn()
    {
        return [this](NodeId s, std::uint64_t id) {
            recs.emplace_back(s, id);
        };
    }
};

} // anonymous namespace

TEST(MsgMacStorage, InOrderBatchCompletesOnInBandTrailer)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 7, 4, false); // first declares len 4
    st.onData(2, 7, 0, false);
    st.onData(2, 7, 0, false);
    EXPECT_TRUE(log.recs.empty());
    st.onData(2, 7, 0, true); // last carries the batched MAC
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].first, 2u);
    EXPECT_EQ(log.recs[0].second, 7u);
}

TEST(MsgMacStorage, StandaloneTrailerCompletesShortBatch)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 9, 16, false);
    st.onData(2, 9, 0, false);
    st.onTrailer(2, 9, 2); // flush said: only 2 members
    ASSERT_EQ(log.recs.size(), 1u);
}

TEST(MsgMacStorage, TrailerBeforeAllDataWaits)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 9, 3, false);
    st.onTrailer(2, 9, 3);
    EXPECT_TRUE(log.recs.empty()); // only 1 of 3 received
    st.onData(2, 9, 0, false);
    st.onData(2, 9, 0, false);
    EXPECT_EQ(log.recs.size(), 1u);
}

TEST(MsgMacStorage, BatchesTrackedPerSource)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 5, 2, false);
    st.onData(3, 5, 2, false); // same id, different source
    st.onData(2, 5, 0, true);
    EXPECT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].first, 2u);
}

TEST(MsgMacStorage, OccupancyAndOverflowAccounting)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 2, log.fn());
    st.onData(2, 1, 16, false);
    st.onData(2, 1, 0, false);
    EXPECT_EQ(st.occupancy(2), 2u);
    EXPECT_EQ(st.overflows(), 0u);
    st.onData(2, 1, 0, false);
    EXPECT_EQ(st.overflows(), 1u);
}

TEST(MsgMacStorage, CompletionFreesOccupancy)
{
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 1, 2, false);
    st.onData(2, 1, 0, true);
    EXPECT_EQ(st.occupancy(2), 0u);
    EXPECT_EQ(st.completions(), 1u);
}

// ------------------------------------------------------------ ReplayWindow

TEST(ReplayWindow, TracksOutstandingPerPeer)
{
    ReplayWindow w(4, 100);
    w.add(1, 0);
    w.add(1, 1);
    w.add(2, 0);
    EXPECT_EQ(w.outstanding(1), 2u);
    EXPECT_EQ(w.outstanding(2), 1u);
    EXPECT_EQ(w.outstandingTotal(), 3u);
}

TEST(ReplayWindow, CumulativeAckClears)
{
    ReplayWindow w(4, 100);
    for (std::uint64_t c = 0; c < 5; ++c)
        w.add(1, c);
    EXPECT_EQ(w.ackUpTo(1, 2), 3u);
    EXPECT_EQ(w.outstanding(1), 2u);
    EXPECT_EQ(w.ackUpTo(1, 10), 2u);
    EXPECT_EQ(w.outstanding(1), 0u);
}

TEST(ReplayWindow, AckForOtherPeerDoesNothing)
{
    ReplayWindow w(4, 100);
    w.add(1, 0);
    EXPECT_EQ(w.ackUpTo(2, 10), 0u);
    EXPECT_EQ(w.outstanding(1), 1u);
}

TEST(ReplayWindow, PeakAndOverflowStats)
{
    ReplayWindow w(4, 2);
    w.add(1, 0);
    w.add(1, 1);
    EXPECT_EQ(w.overflows(), 0u);
    w.add(1, 2);
    EXPECT_EQ(w.overflows(), 1u);
    EXPECT_EQ(w.peak(), 3u);
    w.ackUpTo(1, 2);
    EXPECT_EQ(w.peak(), 3u); // peak is sticky
}

TEST(ReplayWindow, RunningTotalMatchesWalkedSum)
{
    // The window keeps its total as a running count; walking every
    // destination's ring must give the same number after any mix of
    // adds and cumulative ACKs, and peak/overflows must follow it.
    constexpr std::uint32_t kNodes = 65;
    constexpr std::uint32_t kCapacity = 40;
    ReplayWindow w(kNodes, kCapacity);
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> next_ctr(kNodes, 0);
    std::size_t peak = 0;
    std::uint64_t overflows = 0;
    for (int step = 0; step < 100000; ++step) {
        const NodeId dst = static_cast<NodeId>(rng() % kNodes);
        if (rng() % 100 < 55) {
            const bool over = w.add(dst, next_ctr[dst]++);
            std::size_t walked = 0;
            for (NodeId d = 0; d < kNodes; ++d)
                walked += w.outstanding(d);
            overflows += walked > kCapacity;
            EXPECT_EQ(over, walked > kCapacity);
            peak = std::max(peak, walked);
        } else {
            // ACK a random prefix, sometimes past the last counter.
            w.ackUpTo(dst, rng() % (next_ctr[dst] + 2));
        }
        std::size_t walked = 0;
        for (NodeId d = 0; d < kNodes; ++d)
            walked += w.outstanding(d);
        ASSERT_EQ(w.outstandingTotal(), walked) << "step " << step;
    }
    EXPECT_EQ(w.peak(), peak);
    EXPECT_EQ(w.overflows(), overflows);
    EXPECT_GT(overflows, 0u);
}

// -------------------------------------------- batching edge cases

TEST(MsgMacStorage, TrailerArrivingBeforeAnyDataStillCompletes)
{
    // Out-of-order delivery can hand the receiver the standalone
    // trailer before a single group member: the declared count must
    // be parked and the batch must close exactly when the last
    // member lands, not before.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onTrailer(2, 11, 3);
    EXPECT_TRUE(log.recs.empty());
    st.onData(2, 11, 3, false);
    st.onData(2, 11, 0, false);
    EXPECT_TRUE(log.recs.empty()) << "completed one member short";
    st.onData(2, 11, 0, false);
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].second, 11u);
    EXPECT_EQ(st.occupancy(2), 0u);
}

TEST(MsgMacStorage, GroupOfSizeOneCompletesOnStandaloneTrailer)
{
    // An idle flush right after the opening message produces the
    // smallest legal group: one member, one trailer.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 21, 16, false);
    EXPECT_TRUE(log.recs.empty());
    st.onTrailer(2, 21, 1);
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(st.occupancy(2), 0u);
}

TEST(MsgMacStorage, GroupOfSizeOneTrailerFirst)
{
    // Same group, opposite arrival order.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onTrailer(2, 22, 1);
    EXPECT_TRUE(log.recs.empty());
    st.onData(2, 22, 16, false);
    EXPECT_EQ(log.recs.size(), 1u);
}

TEST(BatchAssembler, TimeoutRightAfterOpeningFlushesGroupOfOne)
{
    // Sender side of the same edge: a batch that never got a second
    // member flushes with count 1 and the length byte the first
    // message already declared stays an over-estimate the trailer
    // corrects.
    EventQueue eq;
    FlushLog log;
    BatchAssembler a("a", eq, 4, 16, 400, log.fn());
    const BatchTag t = a.onSend(2);
    EXPECT_EQ(t.declaredLen, 16u);
    eq.run();
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(log.recs[0].id, t.batchId);
    EXPECT_EQ(log.recs[0].count, 1u);
}

TEST(MsgMacStorage, InflatedLengthFieldStrandsTheBatch)
{
    // A corrupted 1 B length field claiming more members than the
    // batch has must never let verification complete: the parked
    // MACs stay stranded (the run-end sweep reports them) instead of
    // releasing data whose batched MAC covered fewer messages.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 31, 7, false); // corrupt: batch really has 3
    st.onData(2, 31, 0, false);
    st.onData(2, 31, 0, true);  // in-band trailer, expected stays 7
    EXPECT_TRUE(log.recs.empty());
    EXPECT_EQ(st.completions(), 0u);
    EXPECT_EQ(st.occupancy(2), 3u) << "stranded MACs must stay parked";
}

TEST(MsgMacStorage, DeflatedLengthFieldIsCorrectedByTrailer)
{
    // Corruption the other way: the length byte under-counts. The
    // standalone trailer carries the authoritative count, so the
    // batch still waits for every member.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 32, 1, false); // corrupt: batch really has 3
    st.onData(2, 32, 0, false);
    st.onTrailer(2, 32, 3);
    EXPECT_TRUE(log.recs.empty()) << "trailer count must win";
    st.onData(2, 32, 0, false);
    EXPECT_EQ(log.recs.size(), 1u);
}

TEST(MsgMacStorage, ZeroedLengthFieldFallsBackToReceivedCount)
{
    // A zeroed length byte is indistinguishable from "not the first
    // message": the in-band trailer then trusts what actually
    // arrived. Document that fallback — the verify layer's oracle is
    // what catches a member lost under a zeroed length.
    EventQueue eq;
    CompleteLog log;
    MsgMacStorage st("st", eq, 4, 64, log.fn());
    st.onData(2, 33, 0, false); // length byte wiped to 0
    st.onData(2, 33, 0, false);
    st.onData(2, 33, 0, true);
    ASSERT_EQ(log.recs.size(), 1u);
    EXPECT_EQ(st.completions(), 1u);
}
