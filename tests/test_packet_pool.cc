/**
 * @file
 * Packet/payload pooling: recycling really happens, a warm pool
 * serves a whole run without touching the allocator, packets handed
 * from one thread to another come back through the depot, and
 * pooling is invisible to results — a full simulation is
 * bit-identical with the pool on or off.
 */

#include <gtest/gtest.h>

#include <semaphore>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"

using namespace mgsec;

namespace
{

/** Fresh pool state for every test (thread-local, shared binary). */
class PacketPoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PacketPool::setEnabled(true);
        PacketPool::trim();
        PacketPool::resetStats();
    }

    void
    TearDown() override
    {
        PacketPool::setEnabled(true);
        PacketPool::trim();
        PacketPool::resetStats();
    }
};

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.scale = 0.05;
    return cfg;
}

} // anonymous namespace

TEST_F(PacketPoolTest, ReleaseRecyclesAndResets)
{
    Packet *first_addr = nullptr;
    {
        PacketPtr p = makePacket();
        first_addr = p.get();
        p->src = 3;
        p->dst = 1;
        p->payloadBytes = 128;
        p->acks.push_back({1, 42, 0});
        p->func = makeFunctionalPayload();
    }
    EXPECT_EQ(PacketPool::stats().freshPackets, 1u);
    EXPECT_EQ(PacketPool::cachedPackets(), 1u);

    PacketPtr q = makePacket();
    EXPECT_EQ(q.get(), first_addr) << "free list should LIFO-recycle";
    EXPECT_EQ(PacketPool::stats().reusedPackets, 1u);

    // The recycled packet must be indistinguishable from a fresh one.
    EXPECT_EQ(q->src, InvalidNode);
    EXPECT_EQ(q->dst, InvalidNode);
    EXPECT_EQ(q->payloadBytes, 0u);
    EXPECT_TRUE(q->acks.empty());
    EXPECT_EQ(q->func, nullptr);
}

TEST_F(PacketPoolTest, DisabledPoolBypassesFreeList)
{
    PacketPool::setEnabled(false);
    { PacketPtr p = makePacket(); }
    { PacketPtr p = makePacket(); }
    EXPECT_EQ(PacketPool::cachedPackets(), 0u);
    EXPECT_EQ(PacketPool::stats().freshPackets, 2u);
    EXPECT_EQ(PacketPool::stats().reusedPackets, 0u);
}

TEST_F(PacketPoolTest, AckListSpillsBeyondInlineCapacity)
{
    // The inline capacity matches maxPiggybackAcks (2); more must
    // transparently spill to the heap and survive recycling.
    PacketPtr p = makePacket();
    for (std::uint64_t i = 0; i < 5; ++i)
        p->acks.push_back({static_cast<NodeId>(i), i * 10, 0});
    ASSERT_EQ(p->acks.size(), 5u);
    EXPECT_TRUE(p->acks.spilled());
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(p->acks[i].upToCtr, i * 10);

    p.reset();
    PacketPtr q = makePacket();
    EXPECT_TRUE(q->acks.empty());
    q->acks.push_back({7, 7, 0});
    EXPECT_EQ(q->acks.size(), 1u);
    EXPECT_EQ(q->acks[0].upToCtr, 7u);
}

TEST_F(PacketPoolTest, WholeRunIsBitIdenticalWithPoolingOnAndOff)
{
    const ExperimentConfig cfg = smallConfig();

    PacketPool::setEnabled(false);
    const RunResult off = runWorkload("mm", cfg);

    PacketPool::setEnabled(true);
    const RunResult on = runWorkload("mm", cfg);

    ASSERT_TRUE(off.completed);
    ASSERT_TRUE(on.completed);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.totalBytes, off.totalBytes);
    EXPECT_EQ(on.classBytes, off.classBytes);
    EXPECT_EQ(on.packets, off.packets);
    EXPECT_EQ(on.remoteOps, off.remoteOps);
    EXPECT_EQ(on.localOps, off.localOps);
    EXPECT_EQ(on.migrations, off.migrations);
    EXPECT_EQ(on.standaloneAcks, off.standaloneAcks);
    EXPECT_DOUBLE_EQ(on.avgRemoteLatency, off.avgRemoteLatency);
}

TEST_F(PacketPoolTest, SteadyStateRunAllocatesNoPackets)
{
    // Pinned to one kernel worker: every counter here is the calling
    // thread's, so the measured run must acquire and release all its
    // packets on this thread. resetStats() zeroes them all, the live
    // count included, whatever earlier tests left. Multi-worker drift
    // is bounded by the depot (CrossThreadHandOffStaysBounded), and a
    // run's summed fresh allocations are RunResult::poolFreshPackets.
    ExperimentConfig cfg = smallConfig();
    cfg.simThreads = 1;

    // Warm-up run populates the free lists with the run's peak
    // packet population...
    runWorkload("mm", cfg);
    ASSERT_GT(PacketPool::cachedPackets(), 0u);

    // ...so an identical second run must be served entirely from the
    // pool: zero allocator traffic on the packet path.
    PacketPool::resetStats();
    runWorkload("mm", cfg);
    EXPECT_EQ(PacketPool::stats().freshPackets, 0u)
        << "warm steady state must not allocate packets";
    EXPECT_EQ(PacketPool::stats().freshPayloads, 0u)
        << "warm steady state must not allocate payloads";
    EXPECT_GT(PacketPool::stats().reusedPackets, 0u);
    EXPECT_EQ(PacketPool::stats().livePackets, 0)
        << "every packet must return to the pool after the run";
}

TEST_F(PacketPoolTest, TrimFreesCacheButKeepsCounters)
{
    { PacketPtr p = makePacket(); }
    { FunctionalPayloadPtr f = makeFunctionalPayload(); }
    EXPECT_EQ(PacketPool::cachedPackets(), 1u);
    EXPECT_EQ(PacketPool::cachedPayloads(), 1u);
    PacketPool::trim();
    EXPECT_EQ(PacketPool::cachedPackets(), 0u);
    EXPECT_EQ(PacketPool::cachedPayloads(), 0u);
    EXPECT_EQ(PacketPool::stats().freshPackets, 1u);
    EXPECT_EQ(PacketPool::stats().freshPayloads, 1u);
}

TEST_F(PacketPoolTest, CrossThreadHandOffStaysBounded)
{
    // This thread acquires every packet (each with a payload) and a
    // second thread releases them, round after round — the drift of
    // a packet from its source domain's worker to its destination's.
    // The releaser's surplus must come back through the depot, so
    // fresh allocations stay at the in-flight count plus the
    // releaser's parked maximum, however many rounds run.
    constexpr std::size_t kInFlight = 1000;
    constexpr int kRounds = 20;
    std::vector<PacketPtr> handed;
    handed.reserve(kInFlight);
    std::binary_semaphore full(0), drained(0);
    std::thread releaser([&] {
        for (int r = 0; r < kRounds; ++r) {
            full.acquire();
            handed.clear();
            drained.release();
        }
    });
    for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < kInFlight; ++i) {
            handed.push_back(makePacket());
            handed.back()->func = makeFunctionalPayload();
        }
        full.release();
        drained.acquire();
    }
    releaser.join();

    const std::uint64_t bound = kInFlight + 2 * PacketPool::kBatch;
    EXPECT_LE(PacketPool::stats().freshPackets, bound);
    EXPECT_LE(PacketPool::stats().freshPayloads, bound);
    EXPECT_EQ(PacketPool::stats().totalPackets(), kInFlight * kRounds);
}
