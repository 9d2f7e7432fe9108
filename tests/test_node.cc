/**
 * @file
 * Node-level tests: issue engine, request serving, migration
 * trains, window behaviour — exercised through small two/three-node
 * systems with hand-built workloads.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/system.hh"
#include "workload/trace_io.hh"

using namespace mgsec;

namespace
{

/** Build a trace stream from explicit ops. */
std::unique_ptr<TraceFileSource>
opsSource(const std::vector<RemoteOp> &ops)
{
    std::stringstream ss;
    ss << "mgsec-trace v1 " << ops.size() << "\n";
    for (const auto &op : ops) {
        ss << op.gap << " " << op.dst << " " << (op.write ? 1 : 0)
           << " " << op.addr << " " << (op.migratable ? 1 : 0)
           << "\n";
    }
    return std::make_unique<TraceFileSource>(ss);
}

RemoteOp
makeOp(Cycles gap, NodeId dst, std::uint64_t addr, bool write = false,
       bool migratable = false)
{
    RemoteOp op;
    op.gap = gap;
    op.dst = dst;
    op.addr = addr;
    op.write = write;
    op.migratable = migratable;
    return op;
}

SystemConfig
smallSystem(OtpScheme scheme = OtpScheme::Unsecure)
{
    ExperimentConfig e;
    e.numGpus = 2;
    e.scheme = scheme;
    SystemConfig sc = makeSystemConfig(e);
    return sc;
}

} // anonymous namespace

TEST(NodeModel, SingleRemoteReadRoundTrip)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    std::vector<RemoteOp> ops = {
        makeOp(1, 2, regionBase(2)),
    };
    sys.replaceWorkload(1, opsSource(ops));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.remoteOps, 2u);
    // One request and one response per op.
    EXPECT_GE(r.packets, 4u);
}

TEST(NodeModel, WriteRequestsCarryPayload)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    sys.replaceWorkload(
        1, opsSource({makeOp(1, 2, regionBase(2), true)}));
    sys.replaceWorkload(
        2, opsSource({makeOp(1, 1, regionBase(1), true)}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    // Two 64 B write payloads crossed the wire (plus two 8 B IOMMU
    // translation replies for the first-touch pages).
    EXPECT_EQ(r.classBytes[1], 2u * kBlockBytes + 2u * 8u);
}

TEST(NodeModel, LocalAccessesNeverTouchTheNetwork)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    // GPU 1 touches its own region only.
    std::vector<RemoteOp> ops;
    for (int i = 0; i < 10; ++i) {
        // dst is a hint; the page table maps the address home.
        ops.push_back(makeOp(1, 2, regionBase(1) + i * 64ull));
    }
    sys.replaceWorkload(1, opsSource(ops));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(sys.node(1).localOps(), 10u);
    EXPECT_EQ(sys.node(1).remoteOps(), 0u);
}

TEST(NodeModel, MigrationMovesPageHome)
{
    SystemConfig sc = smallSystem();
    sc.pageTable.migrationThreshold = 4;
    MultiGpuSystem sys(sc, makeProfile("mm", 0.01));
    // Eight migratable accesses to one remote page: the fourth
    // triggers the move, later ones run locally.
    std::vector<RemoteOp> ops;
    const std::uint64_t base = regionBase(2);
    for (int i = 0; i < 8; ++i)
        ops.push_back(makeOp(5, 2, base + i * 64ull, false, true));
    sys.replaceWorkload(1, opsSource(ops));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_EQ(sys.pageTable().homeOf(base / kPageBytes), 1u);
    EXPECT_GT(sys.node(1).localOps(), 0u);
}

TEST(NodeModel, MigrationStreamsWholePage)
{
    SystemConfig sc = smallSystem();
    sc.pageTable.migrationThreshold = 1;
    MultiGpuSystem sys(sc, makeProfile("mm", 0.01));
    sys.replaceWorkload(
        1, opsSource({makeOp(1, 2, regionBase(2), false, true)}));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.migrations, 1u);
    // 64 block payloads (the page) + the original data response +
    // GPU2's own op.
    EXPECT_GE(r.classBytes[1],
              (kBlocksPerPage + 1) * kBlockBytes);
}

TEST(NodeModel, MigrationBlocksIssueUntilDone)
{
    SystemConfig sc = smallSystem();
    sc.pageTable.migrationThreshold = 1;
    MultiGpuSystem sys(sc, makeProfile("mm", 0.01));
    // Op 1 triggers a migration; op 2 wants to issue 1 cycle later
    // but must wait for the fault to resolve (plus shootdown).
    sys.replaceWorkload(
        1, opsSource({makeOp(1, 2, regionBase(2), false, true),
                      makeOp(1, 2, regionBase(2) + kPageBytes)}));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    // The run is far longer than two pipelined accesses would be:
    // request + 4 KB train over PCIe-class latency + shootdown.
    EXPECT_GT(r.cycles, 1500u);
}

TEST(NodeModel, ServerCachesServeRepeatedReads)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    std::vector<RemoteOp> ops;
    for (int i = 0; i < 20; ++i)
        ops.push_back(makeOp(50, 2, regionBase(2))); // same block
    sys.replaceWorkload(1, opsSource(ops));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    sys.run();
    // GPU 2's L2 served 19 of the 20 requests from the tags.
    EXPECT_GE(sys.node(2).l2().hits(), 19u);
}

TEST(NodeModel, DoneCallbackFiresExactlyOnce)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    sys.replaceWorkload(1, opsSource({makeOp(1, 2, regionBase(2))}));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(sys.node(1).done());
    EXPECT_TRUE(sys.node(2).done());
    EXPECT_GT(sys.node(1).finishTick(), 0u);
}

TEST(NodeModel, RemoteLatencyIsMeasured)
{
    MultiGpuSystem sys(smallSystem(), makeProfile("mm", 0.01));
    sys.replaceWorkload(1, opsSource({makeOp(1, 2, regionBase(2))}));
    sys.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    sys.run();
    EXPECT_EQ(sys.node(1).latency().count(), 1u);
    // NVLink there and back plus service: a few hundred cycles.
    EXPECT_GT(sys.node(1).latency().mean(), 200.0);
    EXPECT_LT(sys.node(1).latency().mean(), 2000.0);
}

TEST(NodeModel, SecureRunDelaysFirstMessageByPadLatency)
{
    MultiGpuSystem unsec(smallSystem(OtpScheme::Unsecure),
                         makeProfile("mm", 0.01));
    unsec.replaceWorkload(1,
                          opsSource({makeOp(1, 2, regionBase(2))}));
    unsec.replaceWorkload(2,
                          opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult a = unsec.run();

    MultiGpuSystem sec(smallSystem(OtpScheme::Shared),
                       makeProfile("mm", 0.01));
    sec.replaceWorkload(1, opsSource({makeOp(1, 2, regionBase(2))}));
    sec.replaceWorkload(2, opsSource({makeOp(1, 1, regionBase(1))}));
    const RunResult b = sec.run();

    // Shared misses on both sides of both hops: >= ~160 extra.
    EXPECT_GT(b.cycles, a.cycles + 100);
}

TEST(NodeModel, TransactionConservation)
{
    // Every issued remote op produces exactly one completed
    // transaction; nothing leaks.
    const RunResult r = [] {
        ExperimentConfig e;
        e.scheme = OtpScheme::Dynamic;
        e.batching = true;
        e.scale = 0.05;
        return runWorkload("bicg", e);
    }();
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.remoteOps, 0u);
}

/**
 * Migration shootdown at node level. GPU 1 reads every block of a
 * page of its own region (filling its CU L1s through the block
 * interleave and its TLBs through round-robin translation); GPU 2
 * then pulls the page away, leaving those copies stale; finally GPU 1
 * touches the page again. When that touch pulls the page back, the
 * commit must leave no block of it in any CU L1 and no translation
 * in any CU TLB or the L2 TLB. The control run (no pull back) shows
 * the copies were there to shoot down.
 */
class MigrationShootdown : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(MigrationShootdown, ClearsThePageFromEveryL1AndTlb)
{
    const std::uint32_t num_cus = GetParam();
    for (const bool pull_back : {false, true}) {
        SystemConfig sc = smallSystem();
        sc.pageTable.migrationThreshold = 1;
        sc.gpu.numCus = num_cus;
        MultiGpuSystem sys(sc, makeProfile("mm", 0.01));
        const std::uint64_t base = regionBase(1);
        const std::uint64_t page = base / kPageBytes;
        std::vector<RemoteOp> ops;
        for (std::uint32_t b = 0; b < kBlocksPerPage; ++b)
            ops.push_back(makeOp(1, 1, base + b * kBlockBytes));
        ops.push_back(makeOp(20000, 2, base, false, pull_back));
        sys.replaceWorkload(1, opsSource(ops));
        sys.replaceWorkload(2,
                            opsSource({makeOp(5000, 1, base, false, true)}));
        const RunResult r = sys.run();
        ASSERT_TRUE(r.completed);
        ASSERT_EQ(r.migrations, pull_back ? 2u : 1u);
        ASSERT_EQ(sys.pageTable().homeOf(page), pull_back ? 1u : 2u);

        Node &gpu = sys.node(1);
        ASSERT_EQ(gpu.numCus(), num_cus);
        std::uint32_t blocks_held = 0, in_home_cu = 0;
        for (std::uint32_t b = 0; b < kBlocksPerPage; ++b) {
            const std::uint64_t addr = base + b * kBlockBytes;
            for (std::uint32_t c = 0; c < num_cus; ++c)
                blocks_held += gpu.cu(c).l1().contains(addr);
            in_home_cu += gpu.l1Cu(addr).l1().contains(addr);
        }
        std::uint32_t translations = gpu.l2Tlb().resident(page);
        for (std::uint32_t c = 0; c < num_cus; ++c)
            translations += gpu.cu(c).l1Tlb().resident(page);

        if (pull_back) {
            EXPECT_EQ(blocks_held, 0u);
            EXPECT_EQ(translations, 0u);
        } else {
            // Each block sits once, in its interleave CU; all 65
            // translations of the page round-robined over the CUs.
            EXPECT_EQ(blocks_held, kBlocksPerPage);
            EXPECT_EQ(in_home_cu, kBlocksPerPage);
            EXPECT_EQ(translations, num_cus + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CuCounts, MigrationShootdown, ::testing::Values(64u, 48u, 1u),
    [](const ::testing::TestParamInfo<std::uint32_t> &info) {
        return "cus" + std::to_string(info.param);
    });
