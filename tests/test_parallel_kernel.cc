/**
 * @file
 * Tests for the conservative-PDES event kernel: raw barrier-window
 * mechanics (lookahead horizons, same-window chains, crossing
 * accounting), byte equality of the published artifacts across
 * worker counts (schemes x batching x workloads, every fabric at 4,
 * 16 and 64 GPUs), event order pinned to recorded absolute values on
 * every fabric, run-to-run determinism, attribution conservation on
 * multi-worker runs, and verdict equality on the verify testbed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/json_out.hh"
#include "core/system.hh"
#include "sim/domain.hh"
#include "sim/latency_attr.hh"
#include "sim/parallel_kernel.hh"
#include "verify/fuzz.hh"
#include "workload/profile.hh"

using namespace mgsec;

namespace
{

/** A captured cross-domain message for the raw-kernel tests. */
struct Mail
{
    Tick sendTick = 0;
    DomainId dst = 0;
    int payload = 0;
};

/**
 * Minimal two-domain rig: domains post Mail into a shared outbox
 * (only ever touched inside windows by the posting domain and at
 * barriers by the coordinator — the same single-writer discipline the
 * Network's capture lanes use) and the exchange hook replays each
 * mail into its destination queue at sendTick + lookahead.
 */
struct Rig
{
    explicit Rig(std::size_t ndomains)
    {
        domains.push_back(std::make_unique<Domain>(0, host));
        for (DomainId d = 1; d < ndomains; ++d)
            domains.push_back(std::make_unique<Domain>(d));
    }

    ParallelKernelConfig
    kernelConfig(unsigned threads, Tick lookahead)
    {
        ParallelKernelConfig k;
        for (auto &d : domains)
            k.domains.push_back(d.get());
        k.threads = threads;
        k.lookahead = lookahead;
        k.exchange = [this, lookahead]() {
            std::uint64_t n = 0;
            for (const Mail &m : outbox) {
                delivered.push_back(m);
                domains[m.dst]->eq().schedule(
                    m.sendTick + lookahead, [] {});
                ++n;
            }
            outbox.clear();
            return n;
        };
        return k;
    }

    EventQueue host;
    std::vector<std::unique_ptr<Domain>> domains;
    std::vector<Mail> outbox;
    std::vector<Mail> delivered;
};

} // anonymous namespace

TEST(ParallelKernelRaw, DeliveryAtExactLookaheadHorizon)
{
    // A message sent at the very first tick of a window arrives at
    // sendTick + L — exactly the first tick of the *next* window, the
    // tightest landing the conservative contract allows. It must be
    // schedulable (not "into the past") and must execute.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    std::vector<Tick> arrivals;
    rig.domains[1]->eq().schedule(
        0, [&] { rig.outbox.push_back(Mail{0, 0, 1}); });
    // Observe domain 0 executing the replayed event.
    ParallelKernelConfig k = rig.kernelConfig(2, kLookahead);
    auto exchange = k.exchange;
    k.exchange = [&, exchange]() {
        const std::uint64_t n = exchange();
        return n;
    };
    ParallelKernel kernel(std::move(k));
    kernel.run(0);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.delivered[0].sendTick, 0u);
    EXPECT_EQ(rig.domains[0]->eq().now(), kLookahead);
    EXPECT_EQ(kernel.domainCrossings(), 1u);
}

TEST(ParallelKernelRaw, WindowEdgeEventsSplitAtTheBarrier)
{
    // Events at ticks L-1 and L sit on opposite sides of the first
    // barrier: with one worker thread the interleaving of event
    // bodies and barrier hooks is observable and must put exactly one
    // barrier between them.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    std::vector<std::string> log;
    rig.domains[1]->eq().schedule(kLookahead - 1,
                                  [&] { log.push_back("edge"); });
    rig.domains[1]->eq().schedule(kLookahead,
                                  [&] { log.push_back("next"); });
    ParallelKernelConfig k = rig.kernelConfig(1, kLookahead);
    k.atBarrier = [&](Tick) { log.push_back("barrier"); };
    ParallelKernel kernel(std::move(k));
    kernel.run(0);
    ASSERT_GE(log.size(), 3u);
    EXPECT_EQ(log[0], "edge");
    EXPECT_EQ(log[1], "barrier");
    EXPECT_EQ(log[2], "next");
}

TEST(ParallelKernelRaw, SameTickChainRunsInsideOneWindow)
{
    // Zero-latency same-domain work (an event scheduling more work at
    // its own tick) completes within the window — sharding must not
    // defer intra-domain causality to a barrier.
    constexpr Tick kLookahead = 100;
    Rig rig(2);
    int steps = 0;
    rig.domains[0]->eq().schedule(5, [&] {
        ++steps;
        rig.domains[0]->eq().schedule(5, [&] { ++steps; });
    });
    ParallelKernel kernel(rig.kernelConfig(2, kLookahead));
    kernel.run(0);
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(kernel.windows(), 1u);
}

TEST(ParallelKernelRaw, ResumesAcrossKernelLegs)
{
    // The testbed runs one kernel per leg, resuming at the returned
    // window start; a second leg must see events scheduled after the
    // first leg's horizon.
    constexpr Tick kLookahead = 10;
    Rig rig(2);
    int ran = 0;
    rig.domains[1]->eq().schedule(7, [&] { ++ran; });
    ParallelKernel first(rig.kernelConfig(2, kLookahead));
    const Tick next = first.run(0);
    EXPECT_EQ(ran, 1);
    EXPECT_GT(next, 7u);

    rig.domains[1]->eq().schedule(next + 3, [&] { ++ran; });
    ParallelKernel second(rig.kernelConfig(2, kLookahead));
    second.run(next);
    EXPECT_EQ(ran, 2);
}

namespace
{

ExperimentConfig
quickConfig(OtpScheme scheme, bool batching,
            std::uint32_t threads)
{
    ExperimentConfig e;
    e.numGpus = 4;
    e.scheme = scheme;
    e.batching = batching;
    e.scale = 0.05;
    e.simThreads = threads;
    return e;
}

/** What a run publishes: --json-out and --stats-json, as bytes. */
struct Artifacts
{
    RunResult result;
    std::string json;
    std::string stats;
    std::uint64_t events = 0; ///< executed across every domain
};

Artifacts
runArtifacts(const std::string &wl, const ExperimentConfig &cfg)
{
    double scale = cfg.scale;
    if (cfg.strongScaling)
        scale *= static_cast<double>(kScalingBaselineGpus) /
                 static_cast<double>(cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg),
                       makeProfile(wl, scale, cfg.numGpus));
    Artifacts a;
    a.result = sys.run();
    a.events = sys.executedEvents();
    a.json = resultToJson(a.result);
    std::ostringstream stats;
    sys.dumpStatsJson(stats);
    a.stats = stats.str();
    return a;
}

/**
 * The kernel contract: the worker count is a host-side speed knob,
 * so both published artifacts are byte-identical across it.
 */
void
expectIdentical(const Artifacts &a, const Artifacts &b)
{
    ASSERT_TRUE(a.result.completed);
    ASSERT_TRUE(b.result.completed);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.result.burst16, b.result.burst16);
    EXPECT_EQ(a.result.pdesWindows, b.result.pdesWindows);
    EXPECT_EQ(a.result.domainCrossings, b.result.domainCrossings);
    EXPECT_EQ(a.result.windowStalls, b.result.windowStalls);
}

} // anonymous namespace

class SerialParallelEquality
    : public ::testing::TestWithParam<std::tuple<OtpScheme, bool>>
{};

TEST_P(SerialParallelEquality, ShardedRunMatchesSerial)
{
    const auto [scheme, batching] = GetParam();
    expectIdentical(runArtifacts("mm", quickConfig(scheme, batching, 1)),
                    runArtifacts("mm", quickConfig(scheme, batching, 2)));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndBatching, SerialParallelEquality,
    ::testing::Combine(::testing::Values(OtpScheme::Unsecure,
                                         OtpScheme::Private,
                                         OtpScheme::Shared,
                                         OtpScheme::Cached,
                                         OtpScheme::Dynamic),
                       ::testing::Bool()));

TEST(ParallelKernel, EquivalentAcrossWorkloads)
{
    for (const char *wl : {"mm", "atax", "spmv"}) {
        SCOPED_TRACE(wl);
        expectIdentical(
            runArtifacts(wl, quickConfig(OtpScheme::Dynamic, true, 1)),
            runArtifacts(wl, quickConfig(OtpScheme::Dynamic, true, 2)));
    }
}

/** (fabric, GPU count): one worker vs two vs four. */
class FabricThreadInvariance
    : public ::testing::TestWithParam<
          std::tuple<TopologyKind, std::uint32_t>>
{};

TEST_P(FabricThreadInvariance, OneTwoFourWorkersAreByteIdentical)
{
    const auto [kind, gpus] = GetParam();
    ExperimentConfig cfg = quickConfig(OtpScheme::Dynamic, true, 1);
    cfg.numGpus = gpus;
    cfg.topology.kind = kind;
    if (kind == TopologyKind::Hier)
        cfg.topology.gpusPerNode = 4;
    const Artifacts t1 = runArtifacts("mm", cfg);
    cfg.simThreads = 2;
    const Artifacts t2 = runArtifacts("mm", cfg);
    cfg.simThreads = 4;
    const Artifacts t4 = runArtifacts("mm", cfg);
    expectIdentical(t1, t2);
    expectIdentical(t1, t4);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, FabricThreadInvariance,
    ::testing::Combine(::testing::Values(TopologyKind::P2p,
                                         TopologyKind::NvSwitch,
                                         TopologyKind::Hier),
                       ::testing::Values(4u, 16u)),
    [](const auto &info) {
        return std::string(topologyKindName(std::get<0>(info.param))) +
               "_g" + std::to_string(std::get<1>(info.param));
    });

TEST(ParallelKernel, SixtyFourGpusOneWorkerMatchesFour)
{
    for (TopologyKind kind : {TopologyKind::P2p, TopologyKind::Hier}) {
        SCOPED_TRACE(topologyKindName(kind));
        ExperimentConfig cfg = quickConfig(OtpScheme::Dynamic, true, 1);
        cfg.numGpus = 64;
        cfg.topology.kind = kind;
        const Artifacts t1 = runArtifacts("mm", cfg);
        cfg.simThreads = 4;
        expectIdentical(t1, runArtifacts("mm", cfg));
    }
}

TEST(ParallelKernel, ObservedArtifactsAreThreadCountInvariant)
{
    // Trace, metrics, latency histograms and the wire dump are
    // merged or sampled at barriers; one worker writes the trace
    // directly while several splice per-domain buffers, and both
    // must produce the same bytes.
    std::vector<std::string> outs;
    for (std::uint32_t t : {1u, 2u, 4u}) {
        ExperimentConfig cfg = quickConfig(OtpScheme::Dynamic, true, t);
        cfg.numGpus = 16;
        cfg.topology.kind = TopologyKind::NvSwitch;
        cfg.commSampleInterval = 500;
        MultiGpuSystem sys(makeSystemConfig(cfg),
                           makeProfile("mm", cfg.scale, cfg.numGpus));
        std::ostringstream trace, metrics, hist, wire;
        sys.enableTrace(trace);
        sys.enableAttribution();
        sys.enableMetrics(500, 1024);
        sys.enableWireObserver();
        const RunResult r = sys.run();
        ASSERT_TRUE(r.completed);
        ASSERT_FALSE(r.commSeries.empty());
        sys.writeMetricsJson(metrics);
        sys.attribution()->writeJson(hist);
        sys.wireObserver()->writeJson(wire);
        std::string comm;
        for (const CommSample &c : r.commSeries)
            comm += std::to_string(c.tick) + ":" +
                    std::to_string(c.sends) + "/" +
                    std::to_string(c.recvs) + ";";
        outs.push_back(trace.str() + metrics.str() + hist.str() +
                       wire.str() + comm);
    }
    EXPECT_EQ(outs[0], outs[1]);
    EXPECT_EQ(outs[0], outs[2]);
}

namespace
{

/** One pinned run of Ours (Dynamic + batching) at scale 0.1. */
struct PinnedOrder
{
    TopologyKind kind;
    std::uint32_t gpus;
    const char *app;
    std::uint64_t events;
    Tick cycles;
    Bytes wireBytes;
    std::uint64_t statsHash; ///< FNV-1a 64 of the stats JSON
};

/**
 * Recorded from the binary-heap event queue. The tests above compare
 * worker counts with each other, so a change to the event order that
 * hits every worker count alike passes them; these absolute values
 * do not move unless the simulation itself changes.
 */
const PinnedOrder kPinnedOrder[] = {
    {TopologyKind::P2p, 4, "mm", 46190, 45688, 755594,
     16282237847289240334ull},
    {TopologyKind::P2p, 4, "fir", 16584, 105059, 229824,
     14434736795151492535ull},
    {TopologyKind::NvSwitch, 16, "mm", 48755, 12970, 787455,
     7094489129252529026ull},
    {TopologyKind::NvSwitch, 16, "fir", 14744, 17673, 194211,
     1924809888295248096ull},
    {TopologyKind::Hier, 8, "mm", 48989, 34013, 795846,
     3903335992268583741ull},
    {TopologyKind::Hier, 8, "fir", 15377, 36312, 208436,
     13949244346558314913ull},
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // anonymous namespace

TEST(ParallelKernel, EventOrderMatchesThePinnedReference)
{
    for (const PinnedOrder &pin : kPinnedOrder) {
        for (const std::uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(topologyKindName(pin.kind)) + " " +
                         std::to_string(pin.gpus) + " GPUs, " + pin.app +
                         ", " + std::to_string(threads) + " worker(s)");
            ExperimentConfig cfg =
                quickConfig(OtpScheme::Dynamic, true, threads);
            cfg.scale = 0.1;
            cfg.numGpus = pin.gpus;
            cfg.topology.kind = pin.kind;
            if (pin.kind == TopologyKind::Hier)
                cfg.topology.gpusPerNode = 4;
            const Artifacts a = runArtifacts(pin.app, cfg);
            ASSERT_TRUE(a.result.completed);
            EXPECT_EQ(a.events, pin.events);
            EXPECT_EQ(a.result.cycles, pin.cycles);
            EXPECT_EQ(a.result.totalBytes, pin.wireBytes);
            EXPECT_EQ(fnv1a(a.stats), pin.statsHash);
        }
    }
}

TEST(ParallelKernel, ParallelRunsAreDeterministic)
{
    const ExperimentConfig cfg =
        quickConfig(OtpScheme::Dynamic, true, 2);
    expectIdentical(runArtifacts("mm", cfg), runArtifacts("mm", cfg));
}

TEST(ParallelKernel, ResultsAreThreadCountInvariant)
{
    // 2 vs 4 worker threads: identical domain partition, identical
    // barrier merge order, so byte-identical results.
    expectIdentical(
        runArtifacts("mm", quickConfig(OtpScheme::Private, false, 2)),
        runArtifacts("mm", quickConfig(OtpScheme::Private, false, 4)));
}

TEST(ParallelKernel, ShardedAccountingIsReported)
{
    // One worker runs the same windowed kernel, so it reports the
    // same windows and crossings as two; only the worker count
    // differs.
    const RunResult parallel =
        runWorkload("mm", quickConfig(OtpScheme::Dynamic, true, 2));
    EXPECT_EQ(parallel.simThreads, 2u);
    EXPECT_GT(parallel.pdesWindows, 0u);
    EXPECT_GT(parallel.domainCrossings, 0u);

    const RunResult serial =
        runWorkload("mm", quickConfig(OtpScheme::Dynamic, true, 1));
    EXPECT_EQ(serial.simThreads, 1u);
    EXPECT_EQ(serial.pdesWindows, parallel.pdesWindows);
    EXPECT_EQ(serial.domainCrossings, parallel.domainCrossings);
    EXPECT_EQ(serial.windowStalls, parallel.windowStalls);
}

TEST(ParallelKernel, AttributionConservesOnShardedRun)
{
    // The telescoping invariant must survive sharding: stage
    // histograms still sum to end-to-end tick for tick even when
    // folds happen concurrently on domain threads.
    ExperimentConfig cfg = quickConfig(OtpScheme::Dynamic, true, 2);
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableAttribution();
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.pdesWindows, 0u);

    const LatencyAttribution *attr = sys.attribution();
    ASSERT_NE(attr, nullptr);
    EXPECT_GT(attr->folds(), 0u);
    std::uint64_t e2e_count = 0;
    for (std::size_t l = 0; l < attr->numLinks(); ++l) {
        const LinkType link = static_cast<LinkType>(l);
        const stats::Histogram &e2e = attr->e2e(link);
        e2e_count += e2e.count();
        std::uint64_t stage_sum = 0;
        for (std::size_t s = 0; s < kNumLifeStages; ++s) {
            const stats::Histogram &st = attr->stage(link, s);
            EXPECT_EQ(st.count(), e2e.count())
                << linkTypeName(link) << "." << lifeStageName(s);
            stage_sum += st.sum();
        }
        EXPECT_EQ(stage_sum, e2e.sum()) << linkTypeName(link);
    }
    EXPECT_EQ(e2e_count, attr->folds());
}

TEST(ParallelKernel, ShardedTestbedVerdictMatchesSerial)
{
    // The verify testbed under attack: every verdict, detection
    // counter and attack must be identical between one worker and
    // two — only the append order of findings that concurrent
    // domains report may differ.
    using namespace mgsec::verify;
    TestbedConfig cfg;
    cfg.numNodes = 4;
    cfg.scheme = OtpScheme::Private;
    cfg.messages = 60;
    cfg.seed = 11;
    cfg.script.push_back(AttackStep{AttackClass::PayloadFlip, 2, 0});
    cfg.script.push_back(AttackStep{AttackClass::Replay, 1, 0});

    cfg.simThreads = 1;
    const CaseOutcome serial = runCase(cfg);
    cfg.simThreads = 2;
    const CaseOutcome sharded = runCase(cfg);

    EXPECT_EQ(serial.failed, sharded.failed);
    EXPECT_EQ(serial.result.findings.size(),
              sharded.result.findings.size());
    EXPECT_EQ(serial.result.attacksMounted,
              sharded.result.attacksMounted);
    EXPECT_EQ(serial.result.stepsFired, sharded.result.stepsFired);
    EXPECT_EQ(serial.result.delivered, sharded.result.delivered);
    EXPECT_EQ(serial.result.droppedPackets,
              sharded.result.droppedPackets);
    EXPECT_EQ(serial.result.macsFailed, sharded.result.macsFailed);
    EXPECT_EQ(serial.result.macsVerified,
              sharded.result.macsVerified);
    EXPECT_EQ(serial.result.replaySuspects,
              sharded.result.replaySuspects);
    EXPECT_EQ(serial.result.neutralized.size(),
              sharded.result.neutralized.size());
    EXPECT_EQ(serial.result.attackLog, sharded.result.attackLog);
}

TEST(ParallelKernel, ShardedTestbedStillCatchesSeededBugs)
{
    // The oracle must not go blind under sharding: a seeded channel
    // bug has to produce findings on the parallel kernel too.
    using namespace mgsec::verify;
    TestbedConfig cfg;
    cfg.numNodes = 3;
    cfg.scheme = OtpScheme::Private;
    cfg.messages = 48;
    cfg.seed = 5;
    cfg.bug = SeededBug::CounterSkip;
    cfg.simThreads = 2;
    const CaseOutcome oc = runCase(cfg);
    EXPECT_TRUE(oc.failed);
    EXPECT_FALSE(oc.result.findings.empty());
}
