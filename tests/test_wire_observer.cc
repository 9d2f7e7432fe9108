/**
 * @file
 * Wire-level observability tests: the passive observer's dump must be
 * deterministic run-to-run and across kernel thread counts, the
 * constant-rate shaping countermeasure must actually impose its
 * metronome (and emit chaff), the observer-side adversary must
 * classify separable features and score capacity sanely, and the
 * flatten/compare helpers must keep duplicate sibling keys apart.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/compare.hh"
#include "core/experiment.hh"
#include "core/json_in.hh"
#include "core/system.hh"
#include "sim/wire_observer.hh"
#include "verify/observer_adversary.hh"

using namespace mgsec;
using verify::LeakageReport;
using verify::ObservedRun;

namespace
{

ExperimentConfig
quick()
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Dynamic;
    e.batching = true;
    e.scale = 0.08;
    return e;
}

struct WireRun
{
    RunResult result;
    std::string wire;
    std::string stats;
};

WireRun
runWithObserver(const ExperimentConfig &cfg)
{
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableWireObserver();
    WireRun r;
    r.result = sys.run();
    std::ostringstream wire;
    sys.wireObserver()->writeJson(wire);
    r.wire = wire.str();
    std::ostringstream stats;
    sys.dumpStatsJson(stats);
    r.stats = stats.str();
    return r;
}

} // anonymous namespace

TEST(WireObserver, DumpIsDeterministicPerThreadCount)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        ExperimentConfig cfg = quick();
        cfg.simThreads = threads;
        const WireRun a = runWithObserver(cfg);
        const WireRun b = runWithObserver(cfg);
        ASSERT_TRUE(a.result.completed) << threads;
        EXPECT_EQ(a.wire, b.wire) << "threads=" << threads;
    }
}

TEST(WireObserver, ShardedDumpsAreThreadCountInvariant)
{
    ExperimentConfig two = quick();
    two.simThreads = 2;
    ExperimentConfig four = quick();
    four.simThreads = 4;
    const WireRun a = runWithObserver(two);
    const WireRun b = runWithObserver(four);
    ASSERT_TRUE(a.result.completed);
    // Same kernel, different worker counts: byte-identical.
    EXPECT_EQ(a.wire, b.wire);
}

TEST(WireObserver, SerialAndShardedAgreeOnFeatures)
{
    // One worker runs the same windowed kernel as two, so the wire
    // the observer sees is the same wire, byte for byte.
    ExperimentConfig serial = quick();
    serial.simThreads = 1;
    ExperimentConfig sharded = quick();
    sharded.simThreads = 2;
    const WireRun a = runWithObserver(serial);
    const WireRun b = runWithObserver(sharded);
    ASSERT_TRUE(a.result.completed);
    EXPECT_EQ(a.wire, b.wire);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(WireObserver, ConstantRateImposesMetronomeAndChaff)
{
    ExperimentConfig cfg = quick();
    cfg.shaping = ShapingPolicy::ConstantRate;
    const WireRun shaped = runWithObserver(cfg);
    ASSERT_TRUE(shaped.result.completed);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(shaped.wire, doc, err)) << err;
    const JsonValue *feats = doc.find("features");
    ASSERT_NE(feats, nullptr);

    // Departures sit on the slot grid and chaff fills idle slots, so
    // the typical inter-packet gap collapses to about one slot.
    const double gap = feats->find("nvlink.gapP50")->asNumber();
    EXPECT_GT(gap, 0.0);
    EXPECT_LE(gap, static_cast<double>(cfg.shapeInterval) * 2.0);

    // Cover traffic actually flowed, and its stat only exists on
    // shaped runs (unshaped stat dumps must stay untouched).
    EXPECT_NE(shaped.stats.find("shapeChaffPackets"),
              std::string::npos);
    const WireRun plain = runWithObserver(quick());
    EXPECT_EQ(plain.stats.find("shapeChaffPackets"),
              std::string::npos);
    EXPECT_EQ(plain.stats.find("shapePadBytes"), std::string::npos);
}

TEST(WireObserver, ConfigKeyAlwaysCarriesShapeAndTopo)
{
    // One key format: the shaping and fabric knobs are always part
    // of the key, active or not.
    const std::string plain = configKey("mm", quick());
    EXPECT_NE(plain.find("|shape=none/64/128/96/512"), std::string::npos)
        << plain;
    EXPECT_NE(plain.find("|topo=p2p/"), std::string::npos) << plain;

    ExperimentConfig shaped = quick();
    shaped.shaping = ShapingPolicy::ConstantRate;
    const std::string key = configKey("mm", shaped);
    EXPECT_NE(key.find("|shape=constant-rate/64/128/96/512"),
              std::string::npos)
        << key;
    EXPECT_NE(configHash("mm", quick()), configHash("mm", shaped));
    shaped.shapeChaffSlots = 7;
    EXPECT_NE(configHash("mm", quick()), configHash("mm", shaped));

    ExperimentConfig hier = quick();
    hier.topology.kind = TopologyKind::Hier;
    EXPECT_NE(configKey("mm", hier).find("|topo=hier/"),
              std::string::npos);
    EXPECT_NE(configHash("mm", quick()), configHash("mm", hier));
}

namespace
{

/**
 * Write WIRE JSON for a 16-GPU run on @p kind, parse it back and
 * check that its link classes are @p classes, the fabric's own.
 */
void
expectWireJsonParses(TopologyKind kind,
                     const std::vector<std::string> &classes)
{
    ExperimentConfig cfg = quick();
    cfg.numGpus = 16;
    cfg.scale = 0.05;
    cfg.topology.kind = kind;
    if (kind == TopologyKind::Hier)
        cfg.topology.gpusPerNode = 4;
    const WireRun r = runWithObserver(cfg);
    ASSERT_TRUE(r.result.completed);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(r.wire, doc, err)) << err;
    const JsonValue *feats = doc.find("features");
    ASSERT_NE(feats, nullptr);
    EXPECT_EQ(doc.find("packets")->asNumber(),
              static_cast<double>(r.result.packets));
    const JsonValue *links = doc.find("links");
    ASSERT_NE(links, nullptr);
    std::vector<std::string> names;
    for (const auto &[name, cls] : links->fields)
        names.push_back(name);
    EXPECT_EQ(names, classes);
}

} // anonymous namespace

TEST(WireObserver, SwitchFabricWireJsonRoundTrips)
{
    // Link classes a fabric never uses have no utilization bins; the
    // window-shape features must treat that as "no activity" rather
    // than read past the empty vector.
    expectWireJsonParses(TopologyKind::P2p, {"pcie", "nvlink"});
    expectWireJsonParses(TopologyKind::NvSwitch,
                         {"pcie", "nvlink", "switch"});
    expectWireJsonParses(TopologyKind::Hier,
                         {"pcie", "nvlink", "switch", "inter"});
}

TEST(WireObserver, FlowsSerializeInPairOrderWhateverOrderTheyOpen)
{
    // Flows are allocated at their first packet, so their storage
    // order is the order they opened in. The dump, the merged link
    // histograms and the features must not see it: two observers fed
    // the same per-flow packets, flows opened in opposite orders,
    // write the same bytes, with flows in (src, dst) order.
    struct Pkt
    {
        NodeId src, dst;
        Bytes bytes;
    };
    const std::vector<Pkt> pkts{{3, 1, 64}, {1, 2, 16}, {2, 3, 200},
                                {0, 2, 24}, {1, 0, 96}, {3, 2, 16}};
    const auto classify = [](NodeId s, NodeId d) {
        return s == 0 || d == 0 ? std::size_t{0} : std::size_t{1};
    };
    WireObserver fwd(4, {"pcie", "nvlink"}, classify);
    WireObserver rev(4, {"pcie", "nvlink"}, classify);
    for (Tick round = 0; round < 40; ++round) {
        for (std::size_t i = 0; i < pkts.size(); ++i) {
            const Pkt &f = pkts[i];
            const Pkt &r = pkts[pkts.size() - 1 - i];
            const Tick t = round * 50 + round % 3 * 20;
            fwd.onWirePacket(f.src, f.dst, f.bytes, t, t + f.bytes);
            rev.onWirePacket(r.src, r.dst, r.bytes, t, t + r.bytes);
        }
    }
    std::ostringstream a, b;
    fwd.writeJson(a);
    rev.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(fwd.features(), rev.features());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(a.str(), doc, err)) << err;
    std::vector<std::pair<double, double>> order;
    for (const JsonValue &f : doc.find("flows")->items)
        order.emplace_back(f.find("src")->number, f.find("dst")->number);
    EXPECT_EQ(order, (std::vector<std::pair<double, double>>{
                         {0, 2}, {1, 0}, {1, 2}, {2, 3}, {3, 1},
                         {3, 2}}));
}

TEST(ObserverAdversary, TimingFeatureAllowlist)
{
    EXPECT_TRUE(verify::timingFeature("nvlink.gapMean"));
    EXPECT_TRUE(verify::timingFeature("pcie.utilCv"));
    EXPECT_TRUE(verify::timingFeature("fanoutEntropyBits"));
    // Scale-bound features would let the classifier cheat by just
    // counting traffic; they stay out of the timing view.
    EXPECT_FALSE(verify::timingFeature("packets"));
    EXPECT_FALSE(verify::timingFeature("nvlink.bytes"));
    EXPECT_FALSE(verify::timingFeature("durationCycles"));
    EXPECT_FALSE(verify::timingFeature("pcie.busyFrac"));
    EXPECT_FALSE(verify::timingFeature("nvlink.pktPerKcyc"));
    // Burst lengths are packets-per-busy-stretch: under continuous
    // cover traffic they degenerate into a duration proxy.
    EXPECT_FALSE(verify::timingFeature("nvlink.burstMean"));
    EXPECT_FALSE(verify::timingFeature("pcie.burstP90"));
}

namespace
{

ObservedRun
synthRun(const std::string &label, std::uint64_t seed, double gap)
{
    ObservedRun r;
    r.label = label;
    r.seed = seed;
    r.features = {{"nvlink.gapMean", gap},
                  {"nvlink.utilCv", gap / 10.0},
                  {"packets", 1000.0}}; // excluded feature: inert
    return r;
}

} // anonymous namespace

TEST(ObserverAdversary, SeparableClassesClassifyPerfectly)
{
    std::vector<ObservedRun> runs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        runs.push_back(synthRun("mm", s, 50.0 + s));
        runs.push_back(synthRun("fir", s, 500.0 + s));
    }
    const LeakageReport rep = verify::classifyLeaveOneSeedOut(runs);
    EXPECT_EQ(rep.evaluated, 6u);
    EXPECT_DOUBLE_EQ(rep.accuracy, 1.0);
    EXPECT_DOUBLE_EQ(rep.chance, 0.5);
}

TEST(ObserverAdversary, IndistinguishableClassesFallToChance)
{
    std::vector<ObservedRun> runs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        runs.push_back(synthRun("mm", s, 64.0));
        runs.push_back(synthRun("fir", s, 64.0));
    }
    const LeakageReport rep = verify::classifyLeaveOneSeedOut(runs);
    EXPECT_EQ(rep.evaluated, 6u);
    EXPECT_LE(rep.accuracy, rep.chance);
}

TEST(ObserverAdversary, JsdCapacityBounds)
{
    using Hist = std::vector<std::pair<double, std::uint64_t>>;
    const Hist a = {{0.0, 10}, {64.0, 20}};
    // Identical class-conditional distributions carry zero bits.
    EXPECT_NEAR(verify::jsdCapacityBits({a, a}), 0.0, 1e-12);
    // Fully disjoint ones carry exactly log2(2) = 1 bit.
    const Hist b = {{128.0, 15}};
    EXPECT_NEAR(verify::jsdCapacityBits({a, b}), 1.0, 1e-12);
}

TEST(CompareFlatten, DuplicateSiblingKeysStayDistinct)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(
        R"({"gpu":{"stats":{"x":1},"stats":{"x":2},"y":3}})", doc,
        err))
        << err;
    std::vector<std::pair<std::string, double>> leaves;
    flatten(doc, "", leaves);
    ASSERT_EQ(leaves.size(), 3u);
    // First occurrence keeps the historical path; later ones get an
    // occurrence suffix instead of silently colliding.
    EXPECT_EQ(leaves[0].first, "gpu.stats.x");
    EXPECT_EQ(leaves[0].second, 1.0);
    EXPECT_EQ(leaves[1].first, "gpu.stats#2.x");
    EXPECT_EQ(leaves[1].second, 2.0);
    EXPECT_EQ(leaves[2].first, "gpu.y");
}

TEST(CompareFlatten, CompareSeesChangesInLaterDuplicates)
{
    JsonValue oldDoc, newDoc;
    std::string err;
    ASSERT_TRUE(jsonParse(R"({"s":{"v":10},"s":{"v":100}})", oldDoc,
                          err));
    ASSERT_TRUE(jsonParse(R"({"s":{"v":10},"s":{"v":150}})", newDoc,
                          err));
    CompareStats cs;
    compareDocs(oldDoc, newDoc, "", 5.0, {}, cs);
    // Before the occurrence suffix the second "s" shadowed the
    // first on one side only, yielding phantom flags; now exactly
    // the changed leaf trips.
    EXPECT_EQ(cs.checked, 2u);
    EXPECT_EQ(cs.onlyOld, 0u);
    EXPECT_EQ(cs.onlyNew, 0u);
    ASSERT_EQ(cs.flagged.size(), 1u);
    EXPECT_EQ(cs.flagged[0].path, "s#2.v");
    EXPECT_DOUBLE_EQ(cs.flagged[0].oldVal, 100.0);
    EXPECT_DOUBLE_EQ(cs.flagged[0].newVal, 150.0);
}
