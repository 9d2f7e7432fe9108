/**
 * @file
 * Tests for the per-message latency attribution layer: stage
 * histograms must conserve exactly (components sum to end-to-end)
 * under every scheme, and enabling attribution must never perturb
 * simulated results.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "core/experiment.hh"
#include "core/json_in.hh"
#include "sim/latency_attr.hh"
#include "sim/logging.hh"
#include "sim/lifecycle.hh"
#include "workload/profile.hh"

using namespace mgsec;

namespace
{

ExperimentConfig
smallConfig(OtpScheme scheme, bool batching, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.batching = batching;
    cfg.scale = 0.05;
    cfg.seed = seed;
    return cfg;
}

/** Run one config with attribution on; return the system's results. */
RunResult
runAttributed(const ExperimentConfig &cfg, const std::string &wl,
              std::unique_ptr<MultiGpuSystem> &sys_out)
{
    const WorkloadProfile profile =
        makeProfile(wl, cfg.scale, cfg.numGpus);
    sys_out = std::make_unique<MultiGpuSystem>(makeSystemConfig(cfg),
                                               profile);
    sys_out->enableAttribution();
    return sys_out->run();
}

} // namespace

/**
 * The conservation invariant: every delivered message contributes to
 * every stage histogram exactly once, and the telescoping stage
 * durations reconstruct the end-to-end latency tick for tick.
 */
class AttributionConservation
    : public ::testing::TestWithParam<std::tuple<OtpScheme, bool>>
{};

TEST_P(AttributionConservation, StagesSumToEndToEndExactly)
{
    const auto [scheme, batching] = GetParam();
    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        std::unique_ptr<MultiGpuSystem> sys;
        const RunResult r = runAttributed(
            smallConfig(scheme, batching, seed), "mm", sys);
        ASSERT_TRUE(r.completed);

        const LatencyAttribution *attr = sys->attribution();
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
                // One fold feeds every stage of its link.
                EXPECT_EQ(st.count(), e2e.count())
                    << linkTypeName(link) << "." << lifeStageName(s)
                    << " seed " << seed;
                stage_sum += st.sum();
            }
            EXPECT_EQ(stage_sum, e2e.sum())
                << linkTypeName(link) << " seed " << seed;
        }
        EXPECT_EQ(e2e_count, attr->folds());
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndBatching, AttributionConservation,
    ::testing::Combine(::testing::Values(OtpScheme::Unsecure,
                                         OtpScheme::Private,
                                         OtpScheme::Shared,
                                         OtpScheme::Cached,
                                         OtpScheme::Dynamic),
                       ::testing::Bool()));

/**
 * Scale invariance: the telescope is a per-message identity, so it
 * must survive any GPU count and any fabric — the histograms grow,
 * the invariant does not. Runs the 5-stage conservation check at
 * 4/8/16/64 GPUs on every topology, and pins the active-link-prefix
 * contract (p2p registers 2 classes, nvswitch 3, hier 4).
 */
class AttributionScaleInvariance
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, TopologyKind>>
{};

TEST_P(AttributionScaleInvariance, TelescopeHoldsOnEveryFabric)
{
    const auto [gpus, kind] = GetParam();
    ExperimentConfig cfg = smallConfig(OtpScheme::Dynamic, true, 1);
    cfg.numGpus = gpus;
    cfg.topology.kind = kind;
    // Weak scaling multiplies total work by the GPU count; shrink
    // the per-GPU slice so the 64-GPU points stay test-sized.
    cfg.scale = gpus > 16 ? 0.01 : 0.03;

    std::unique_ptr<MultiGpuSystem> sys;
    const RunResult r = runAttributed(cfg, "mm", sys);
    ASSERT_TRUE(r.completed);

    const LatencyAttribution *attr = sys->attribution();
    ASSERT_NE(attr, nullptr);
    const std::size_t want_links =
        kind == TopologyKind::P2p        ? kP2pLinkClasses
        : kind == TopologyKind::NvSwitch ? 3u
                                         : 4u;
    EXPECT_EQ(attr->numLinks(), want_links);
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
                << linkTypeName(link) << "." << lifeStageName(s)
                << " at " << gpus << " GPUs";
            stage_sum += st.sum();
        }
        EXPECT_EQ(stage_sum, e2e.sum())
            << linkTypeName(link) << " at " << gpus << " GPUs";
    }
    EXPECT_EQ(e2e_count, attr->folds());
}

INSTANTIATE_TEST_SUITE_P(
    GpusAndFabrics, AttributionScaleInvariance,
    ::testing::Combine(::testing::Values(4u, 8u, 16u, 64u),
                       ::testing::Values(TopologyKind::P2p,
                                         TopologyKind::NvSwitch,
                                         TopologyKind::Hier)),
    [](const auto &info) {
        return strformat("g%u_%s", std::get<0>(info.param),
                         topologyKindName(std::get<1>(info.param)));
    });

TEST(Attribution, DoesNotPerturbSimulatedResults)
{
    const ExperimentConfig cfg =
        smallConfig(OtpScheme::Dynamic, true, 3);
    const RunResult plain = runWorkload("mm", cfg);

    std::unique_ptr<MultiGpuSystem> sys;
    const RunResult attributed = runAttributed(cfg, "mm", sys);

    EXPECT_EQ(attributed.cycles, plain.cycles);
    EXPECT_EQ(attributed.totalBytes, plain.totalBytes);
    EXPECT_EQ(attributed.packets, plain.packets);
    EXPECT_EQ(attributed.remoteOps, plain.remoteOps);
    EXPECT_EQ(attributed.standaloneAcks, plain.standaloneAcks);
}

TEST(Attribution, SlowerAesDelaysOnlySecuredSends)
{
    // A 10% slower AES must lengthen the run (pads are ready later):
    // the report gate's CI self-check keys on that.
    ExperimentConfig cfg = smallConfig(OtpScheme::Dynamic, true, 3);
    const RunResult plain = runWorkload("mm", cfg);
    cfg.aesLatency = 44;
    const RunResult slower = runWorkload("mm", cfg);
    EXPECT_GT(slower.cycles, plain.cycles);

    // The unsecure path generates no pads.
    ExperimentConfig uns = smallConfig(OtpScheme::Unsecure, false, 3);
    const RunResult ubase = runWorkload("mm", uns);
    uns.aesLatency = 44;
    const RunResult uslow = runWorkload("mm", uns);
    EXPECT_EQ(uslow.cycles, ubase.cycles);
}

TEST(Attribution, StatsJsonCarriesAttrGroupOnlyWhenEnabled)
{
    const ExperimentConfig cfg =
        smallConfig(OtpScheme::Private, false, 1);
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);

    {
        MultiGpuSystem sys(makeSystemConfig(cfg), profile);
        sys.run();
        std::ostringstream os;
        sys.dumpStatsJson(os);
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(jsonParse(os.str(), doc, err)) << err;
        EXPECT_EQ(doc.find("attr"), nullptr);
    }
    {
        MultiGpuSystem sys(makeSystemConfig(cfg), profile);
        sys.enableAttribution();
        sys.run();
        std::ostringstream os;
        sys.dumpStatsJson(os);
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(jsonParse(os.str(), doc, err)) << err;
        const JsonValue *attr = doc.find("attr");
        ASSERT_NE(attr, nullptr);
        EXPECT_NE(attr->find("nvlink.e2e"), nullptr);
        EXPECT_NE(attr->find("pcie.padWait"), nullptr);
    }
}

TEST(Attribution, ResetStatsClearsHistograms)
{
    std::unique_ptr<MultiGpuSystem> sys;
    runAttributed(smallConfig(OtpScheme::Shared, false, 1), "mm",
                  sys);
    ASSERT_GT(sys->attribution()->folds(), 0u);
    sys->resetStats();
    EXPECT_EQ(sys->attribution()->folds(), 0u);
    for (std::size_t l = 0; l < sys->attribution()->numLinks(); ++l)
        EXPECT_EQ(
            sys->attribution()->e2e(static_cast<LinkType>(l)).count(),
            0u);
}
