/**
 * @file
 * Observability-layer tests: the trace / metrics / stats-JSON sinks
 * must be deterministic, must never perturb simulated results, the
 * metric ring must wrap correctly, and every JSON emitter must
 * escape hostile stat names and descriptions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/json_in.hh"
#include "core/options.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/json_writer.hh"
#include "sim/latency_attr.hh"
#include "sim/lifecycle.hh"
#include "sim/metric_sampler.hh"
#include "sim/stats.hh"
#include "sim/trace_sink.hh"

using namespace mgsec;

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

struct Captured
{
    RunResult result;
    std::string trace;
    std::string metrics;
    std::string stats;
};

Captured
runObserved(const ExperimentConfig &cfg)
{
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);

    std::ostringstream trace;
    sys.enableTrace(trace);
    sys.enableMetrics(500, 1024);

    Captured c;
    c.result = sys.run();
    c.trace = trace.str();

    std::ostringstream metrics;
    sys.writeMetricsJson(metrics);
    c.metrics = metrics.str();

    std::ostringstream stats;
    sys.dumpStatsJson(stats);
    c.stats = stats.str();
    return c;
}

} // anonymous namespace

TEST(Observability, IdenticalRunsProduceIdenticalArtifacts)
{
    const Captured a = runObserved(quick());
    const Captured b = runObserved(quick());
    ASSERT_TRUE(a.result.completed);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Observability, SinksDoNotPerturbResults)
{
    const RunResult plain = runWorkload("mm", quick());
    const Captured observed = runObserved(quick());
    ASSERT_TRUE(plain.completed);
    EXPECT_EQ(plain.cycles, observed.result.cycles);
    EXPECT_EQ(plain.totalBytes, observed.result.totalBytes);
    EXPECT_EQ(plain.packets, observed.result.packets);
    EXPECT_EQ(plain.remoteOps, observed.result.remoteOps);
    EXPECT_EQ(plain.migrations, observed.result.migrations);
}

TEST(Observability, TraceIsSealedAndCategorized)
{
    const Captured c = runObserved(quick());
    EXPECT_NE(c.trace.find("\"displayTimeUnit\""), std::string::npos);
    // Sealed JSON: finish() must have closed the event array.
    EXPECT_EQ(c.trace.substr(c.trace.size() - 4), "\n]}\n");
    for (const char *cat : {"\"cat\":\"packet\"", "\"cat\":\"net\"",
                            "\"cat\":\"pad\"", "\"cat\":\"ewma\"",
                            "\"cat\":\"batch\""}) {
        EXPECT_NE(c.trace.find(cat), std::string::npos) << cat;
    }
}

TEST(Observability, MetricsCoverPadsAndEwma)
{
    const Captured c = runObserved(quick());
    EXPECT_NE(c.metrics.find("gpu1.pads.send.gpu2.quota"),
              std::string::npos);
    EXPECT_NE(c.metrics.find("gpu1.ewma.S"), std::string::npos);
    EXPECT_NE(c.metrics.find("gpu1.batch.open"), std::string::npos);
    EXPECT_NE(c.metrics.find("net.inFlight"), std::string::npos);
}

TEST(Observability, TraceLeavesMetricsAloneAndSkipsUnmovedS)
{
    const Captured traced = runObserved(quick());

    // The metrics read the EWMA weights as gauges, with or without a
    // trace.
    const ExperimentConfig cfg = quick();
    MultiGpuSystem sys(makeSystemConfig(cfg),
                       makeProfile("mm", cfg.scale, cfg.numGpus));
    sys.enableMetrics(500, 1024);
    ASSERT_TRUE(sys.run().completed);
    std::ostringstream untraced;
    sys.writeMetricsJson(untraced);
    EXPECT_EQ(traced.metrics, untraced.str());

    // No S event repeats the value its lane last showed.
    std::map<std::string, std::string> last;
    std::size_t events = 0;
    std::istringstream lines(traced.trace);
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"name\":\"S\"") == std::string::npos)
            continue;
        const std::size_t tid = line.find("\"tid\":");
        const std::size_t val = line.find("{\"S\":");
        ASSERT_NE(tid, std::string::npos) << line;
        ASSERT_NE(val, std::string::npos) << line;
        std::string &prev =
            last[line.substr(tid, line.find(',', tid) - tid)];
        EXPECT_NE(prev, line.substr(val)) << line;
        prev = line.substr(val);
        ++events;
    }
    EXPECT_GT(events, 0u);
}

TEST(Observability, ResetStatsMatchesFreshSystem)
{
    const ExperimentConfig cfg = quick();
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);

    MultiGpuSystem used(makeSystemConfig(cfg), profile);
    ASSERT_TRUE(used.run().completed);
    used.resetStats();
    std::ostringstream after_reset;
    used.dumpStatsJson(after_reset);

    MultiGpuSystem fresh(makeSystemConfig(cfg), profile);
    std::ostringstream never_ran;
    fresh.dumpStatsJson(never_ran);

    EXPECT_EQ(after_reset.str(), never_ran.str());
}

TEST(MetricSampler, RingWrapsAndCountsDropped)
{
    int calls = 0;
    MetricSampler ms(10, 4);
    ms.addGauge("n", [&calls](Tick) {
        return static_cast<double>(++calls);
    });
    ms.start();
    // Driven as the event kernel does at its barriers: one sample
    // per interval boundary, at t = 10, 20, ..., 100.
    for (Tick t = 10; t <= 100; t += 10)
        ms.sampleAt(t);

    // Ten rows into a four-row ring keeps the newest four.
    EXPECT_EQ(ms.samples(), 4u);
    EXPECT_EQ(ms.dropped(), 6u);
    EXPECT_EQ(ms.tickAt(0), 70u);
    EXPECT_EQ(ms.tickAt(3), 100u);
    EXPECT_EQ(ms.valueAt(0, 0), 7.0);
    EXPECT_EQ(ms.valueAt(3, 0), 10.0);
}

TEST(MetricSampler, LazyRowsFillThenWrapInPlace)
{
    // Twenty rows fill lazily (past the first growth step), then
    // thirty more samples wrap the ring. Rows, ticks, the dropped
    // count and the JSON must read as if the ring had been
    // preallocated; the JSON is the preallocated ring's output.
    int calls = 0;
    MetricSampler ms(10, 20);
    ms.addGauge("n", [&calls](Tick) {
        return static_cast<double>(++calls);
    });
    ms.addGauge("third", [](Tick t) {
        return static_cast<double>(t) / 3.0;
    });
    ms.start();
    EXPECT_EQ(ms.samples(), 0u);
    for (Tick t = 10; t <= 170; t += 10)
        ms.sampleAt(t);
    EXPECT_EQ(ms.samples(), 17u);
    EXPECT_EQ(ms.dropped(), 0u);
    for (std::size_t i = 0; i < 17; ++i) {
        EXPECT_EQ(ms.tickAt(i), 10 * (i + 1));
        EXPECT_EQ(ms.valueAt(i, 0), static_cast<double>(i + 1));
    }
    for (Tick t = 180; t <= 500; t += 10)
        ms.sampleAt(t);
    EXPECT_EQ(ms.samples(), 20u);
    EXPECT_EQ(ms.dropped(), 30u);
    EXPECT_EQ(ms.tickAt(0), 310u);
    EXPECT_EQ(ms.tickAt(19), 500u);
    EXPECT_EQ(ms.valueAt(0, 0), 31.0);
    EXPECT_EQ(ms.valueAt(19, 0), 50.0);
    EXPECT_DOUBLE_EQ(ms.valueAt(19, 1), 500.0 / 3.0);

    std::ostringstream os;
    ms.writeJson(os);
    EXPECT_EQ(
        os.str(),
        "{\"interval\":10,\"capacity\":20,\"samples\":20,"
        "\"dropped\":30,\"columns\":[\"n\",\"third\"],\"data\":["
        "[310,31,103.333],[320,32,106.667],[330,33,110],"
        "[340,34,113.333],[350,35,116.667],[360,36,120],"
        "[370,37,123.333],[380,38,126.667],[390,39,130],"
        "[400,40,133.333],[410,41,136.667],[420,42,140],"
        "[430,43,143.333],[440,44,146.667],[450,45,150],"
        "[460,46,153.333],[470,47,156.667],[480,48,160],"
        "[490,49,163.333],[500,50,166.667]]}\n");
}

TEST(MetricSampler, HugeRingOnlyTouchesSampledRows)
{
    // 1M rows x 256 gauges would be 2 GiB if allocated up front; a
    // few samples must cost a few rows.
    MetricSampler ms(100, std::size_t{1} << 20);
    for (int g = 0; g < 256; ++g)
        ms.addGauge("g" + std::to_string(g), [g](Tick t) {
            return static_cast<double>(t) + g;
        });
    ms.start();
    for (Tick t = 100; t <= 500; t += 100)
        ms.sampleAt(t);
    EXPECT_EQ(ms.capacity(), std::size_t{1} << 20);
    ASSERT_EQ(ms.samples(), 5u);
    EXPECT_EQ(ms.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ms.tickAt(i), 100 * (i + 1));
        EXPECT_EQ(ms.valueAt(i, 0), 100.0 * (i + 1));
        EXPECT_EQ(ms.valueAt(i, 255), 100.0 * (i + 1) + 255);
    }
}

TEST(MetricSampler, WriteJsonReportsDroppedRows)
{
    MetricSampler ms(5, 2);
    ms.addGauge("g", [](Tick t) { return static_cast<double>(t); });
    ms.start();
    for (Tick t = 5; t <= 20; t += 5)
        ms.sampleAt(t);

    std::ostringstream os;
    ms.writeJson(os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"dropped\":2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"columns\""), std::string::npos);
    // Ticks serialize as integers, not doubles.
    EXPECT_NE(j.find("[15,15]"), std::string::npos) << j;
    EXPECT_NE(j.find("[20,20]"), std::string::npos) << j;
}

TEST(MetricSampler, BlocksGrowWithSamplesAndWrapInPlace)
{
    // 4096 columns are 32 KiB a row, so a block holds a few rows:
    // S samples hold ceil(S / blockRows) blocks, and wrapping reuses
    // them. One block reader fills the first 4000 columns and plain
    // gauges the rest, in registration order.
    constexpr std::size_t kBlockCols = 4000, kCols = 4096;
    constexpr std::size_t kCapacity = 50;
    const auto fill = [](MetricSampler &ms) {
        std::vector<std::string> names;
        for (std::size_t c = 0; c < kBlockCols; ++c)
            names.push_back("b" + std::to_string(c));
        ms.addBlock(std::move(names), [](Tick t, double *out) {
            for (std::size_t c = 0; c < kBlockCols; ++c)
                out[c] = static_cast<double>(t) / 7.0 + c;
        });
        for (std::size_t c = kBlockCols; c < kCols; ++c)
            ms.addGauge("g" + std::to_string(c), [c](Tick t) {
                return static_cast<double>(t) * 3.0 - c;
            });
        ms.start();
    };
    MetricSampler ms(10, kCapacity);
    fill(ms);
    const std::size_t rows = ms.blockRows();
    ASSERT_EQ(rows, MetricSampler::kBlockBytes / (kCols * 8));
    ASSERT_LT(rows, kCapacity);
    EXPECT_EQ(ms.blocks(), 0u);
    for (std::size_t s = 1; s <= kCapacity; ++s) {
        ms.sampleAt(10 * s);
        ASSERT_EQ(ms.blocks(), (s + rows - 1) / rows) << s;
    }
    EXPECT_EQ(ms.valueAt(3, 5), 40.0 / 7.0 + 5);
    EXPECT_EQ(ms.valueAt(3, kCols - 1), 120.0 - (kCols - 1));

    // Wrap 1.5 times round: no new blocks, and the retained rows
    // serialize exactly as a ring that only ever saw them.
    const std::size_t blocks = ms.blocks();
    for (std::size_t s = kCapacity + 1; s <= 5 * kCapacity / 2; ++s)
        ms.sampleAt(10 * s);
    EXPECT_EQ(ms.blocks(), blocks);
    EXPECT_EQ(ms.dropped(), 3 * kCapacity / 2);
    MetricSampler fresh(10, kCapacity);
    fill(fresh);
    for (std::size_t s = 3 * kCapacity / 2 + 1; s <= 5 * kCapacity / 2;
         ++s)
        fresh.sampleAt(10 * s);
    std::ostringstream wrapped, direct;
    ms.writeJson(wrapped);
    fresh.writeJson(direct);
    const auto data = [](const std::string &j) {
        return j.substr(j.find("\"columns\""));
    };
    EXPECT_EQ(data(wrapped.str()), data(direct.str()));
    EXPECT_NE(wrapped.str().find("\"dropped\":75,"), std::string::npos);
}

TEST(Observability, PadTableBlocksKeepTheMetricsBytes)
{
    // Each pad table fills its quota/ready/EWMA columns through one
    // block reader. The document below was written when every one of
    // those columns was its own gauge: 2-GPU Dynamic with batching,
    // a three-row ring that wrapped seven times.
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.numGpus = 2;
    cfg.scale = 0.02;
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableMetrics(1000, 3);
    ASSERT_TRUE(sys.run().completed);
    std::ostringstream os;
    sys.writeMetricsJson(os);
    EXPECT_EQ(
        os.str(),
    "{\"interval\":1000,\"capacity\":3,\"samples\":3,\"dropped\":7,"
    "\"columns\":[\"eq.pending\",\"net.inFlight\","
    "\"pdes.domainCrossings\",\"pdes.windowStalls\","
    "\"cpu.replay.outstanding\",\"cpu.pads.send.gpu1.quota\","
    "\"cpu.pads.send.gpu1.ready\",\"cpu.pads.recv.gpu1.quota\","
    "\"cpu.pads.recv.gpu1.ready\",\"cpu.pads.send.gpu2.quota\","
    "\"cpu.pads.send.gpu2.ready\",\"cpu.pads.recv.gpu2.quota\","
    "\"cpu.pads.recv.gpu2.ready\",\"cpu.ewma.S\",\"cpu.ewma.send.gpu1\","
    "\"cpu.ewma.recv.gpu1\",\"cpu.ewma.send.gpu2\","
    "\"cpu.ewma.recv.gpu2\",\"cpu.batch.open\",\"cpu.batch.fill\","
    "\"cpu.macstore.parked\",\"cpu.pads.wasted\","
    "\"gpu1.replay.outstanding\",\"gpu1.pads.send.cpu.quota\","
    "\"gpu1.pads.send.cpu.ready\",\"gpu1.pads.recv.cpu.quota\","
    "\"gpu1.pads.recv.cpu.ready\",\"gpu1.pads.send.gpu2.quota\","
    "\"gpu1.pads.send.gpu2.ready\",\"gpu1.pads.recv.gpu2.quota\","
    "\"gpu1.pads.recv.gpu2.ready\",\"gpu1.ewma.S\","
    "\"gpu1.ewma.send.cpu\",\"gpu1.ewma.recv.cpu\","
    "\"gpu1.ewma.send.gpu2\",\"gpu1.ewma.recv.gpu2\","
    "\"gpu1.batch.open\",\"gpu1.batch.fill\",\"gpu1.macstore.parked\","
    "\"gpu1.pads.wasted\",\"gpu2.replay.outstanding\","
    "\"gpu2.pads.send.cpu.quota\",\"gpu2.pads.send.cpu.ready\","
    "\"gpu2.pads.recv.cpu.quota\",\"gpu2.pads.recv.cpu.ready\","
    "\"gpu2.pads.send.gpu1.quota\",\"gpu2.pads.send.gpu1.ready\","
    "\"gpu2.pads.recv.gpu1.quota\",\"gpu2.pads.recv.gpu1.ready\","
    "\"gpu2.ewma.S\",\"gpu2.ewma.send.cpu\",\"gpu2.ewma.recv.cpu\","
    "\"gpu2.ewma.send.gpu1\",\"gpu2.ewma.recv.gpu1\","
    "\"gpu2.batch.open\",\"gpu2.batch.fill\",\"gpu2.macstore.parked\","
    "\"gpu2.pads.wasted\",\"net.packets\",\"net.bytesHeader\","
    "\"net.bytesPayload\",\"net.bytesSecMeta\",\"net.bytesSecAck\","
    "\"cpu.remoteOps\",\"cpu.localOps\",\"cpu.served\","
    "\"cpu.migrationsStarted\",\"cpu.windowStalls\",\"cpu.iommuWalks\","
    "\"cpu.l1Hits\",\"cpu.channel.packetsSent\","
    "\"cpu.channel.standaloneAcks\",\"cpu.channel.piggybackedAcks\","
    "\"cpu.channel.batchTrailers\",\"cpu.channel.replaySuspects\","
    "\"cpu.channel.macsVerified\",\"cpu.channel.macsFailed\","
    "\"cpu.channel.decryptsOk\",\"cpu.channel.decryptsBad\","
    "\"cpu.channel.pads.sendHits\",\"cpu.channel.pads.sendPartials\","
    "\"cpu.channel.pads.sendMisses\",\"cpu.channel.pads.recvHits\","
    "\"cpu.channel.pads.recvPartials\","
    "\"cpu.channel.pads.recvMisses\",\"cpu.channel.pads.adjustments\","
    "\"gpu1.remoteOps\",\"gpu1.localOps\",\"gpu1.served\","
    "\"gpu1.migrationsStarted\",\"gpu1.windowStalls\","
    "\"gpu1.iommuWalks\",\"gpu1.l1Hits\",\"gpu1.channel.packetsSent\","
    "\"gpu1.channel.standaloneAcks\",\"gpu1.channel.piggybackedAcks\","
    "\"gpu1.channel.batchTrailers\",\"gpu1.channel.replaySuspects\","
    "\"gpu1.channel.macsVerified\",\"gpu1.channel.macsFailed\","
    "\"gpu1.channel.decryptsOk\",\"gpu1.channel.decryptsBad\","
    "\"gpu1.channel.pads.sendHits\","
    "\"gpu1.channel.pads.sendPartials\","
    "\"gpu1.channel.pads.sendMisses\",\"gpu1.channel.pads.recvHits\","
    "\"gpu1.channel.pads.recvPartials\","
    "\"gpu1.channel.pads.recvMisses\","
    "\"gpu1.channel.pads.adjustments\",\"gpu2.remoteOps\","
    "\"gpu2.localOps\",\"gpu2.served\",\"gpu2.migrationsStarted\","
    "\"gpu2.windowStalls\",\"gpu2.iommuWalks\",\"gpu2.l1Hits\","
    "\"gpu2.channel.packetsSent\",\"gpu2.channel.standaloneAcks\","
    "\"gpu2.channel.piggybackedAcks\",\"gpu2.channel.batchTrailers\","
    "\"gpu2.channel.replaySuspects\",\"gpu2.channel.macsVerified\","
    "\"gpu2.channel.macsFailed\",\"gpu2.channel.decryptsOk\","
    "\"gpu2.channel.decryptsBad\",\"gpu2.channel.pads.sendHits\","
    "\"gpu2.channel.pads.sendPartials\","
    "\"gpu2.channel.pads.sendMisses\",\"gpu2.channel.pads.recvHits\","
    "\"gpu2.channel.pads.recvPartials\","
    "\"gpu2.channel.pads.recvMisses\","
    "\"gpu2.channel.pads.adjustments\"],\"data\":[[8000,64,34,1175,24,"
    "7,4,4,4,4,4,4,4,4,0.513325,0.570318,0.507314,0.429682,"
    "0.492686,1,7,7,0,48,3,3,4,4,5,0,4,0,0.511983,0.291425,"
    "0.423019,0.708575,0.576981,0,0,18,1,30,3,2,3,3,5,0,5,0,"
    "0.47937,0.360598,0.286391,0.639402,0.713609,2,14,7,2,1175,"
    "18304,47864,9678,632,0,0,50,0,0,0,0,176,5,2,7,0,0,0,0,0,50,"
    "14,112,43,7,0,8,166,14,154,3,0,13,0,584,14,16,9,0,0,0,0,0,"
    "156,30,402,293,179,0,8,151,29,132,4,0,19,0,353,19,20,8,0,0,0,"
    "0,0,138,20,195,268,290,0,8],[9000,7,4,1224,29,8,4,4,4,4,4,4,"
    "4,4,0.513319,0.569577,0.506656,0.430423,0.493344,0,0,0,0,0,3,"
    "3,4,4,5,5,4,4,0.504785,0.291425,0.39574,0.708575,0.60426,0,0,"
    "0,1,1,3,3,3,3,5,5,5,5,0.481881,0.340978,0.276014,0.659022,"
    "0.723986,0,0,0,2,1224,19016,49216,10052,704,0,0,51,0,0,0,0,"
    "177,7,2,9,0,0,0,0,0,51,14,112,44,7,0,9,166,14,154,3,0,13,0,"
    "588,18,17,9,0,0,0,0,0,156,30,402,296,184,45,9,151,29,151,4,0,"
    "19,0,388,19,22,9,0,0,0,0,0,173,20,195,269,307,0,9],[9156,6,3,"
    "1224,31,8,4,4,4,4,4,4,4,4,0.513319,0.569577,0.506656,"
    "0.430423,0.493344,0,0,0,0,0,3,3,4,4,5,5,4,4,0.504785,"
    "0.291425,0.39574,0.708575,0.60426,0,0,0,1,1,3,3,3,2,5,5,5,5,"
    "0.481881,0.340978,0.276014,0.659022,0.723986,0,0,1,2,1224,"
    "19016,49216,10052,704,0,0,51,0,0,0,0,177,7,2,9,0,0,0,0,0,51,"
    "14,112,44,7,0,9,166,14,154,3,0,13,0,588,18,17,9,0,0,0,0,0,"
    "156,30,402,296,184,45,9,151,29,151,4,0,19,0,388,19,22,9,0,0,"
    "0,0,0,173,20,195,270,307,0,9]]}\n");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("\n\t\r\b\f"),
              "\\n\\t\\r\\b\\f");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01\x1f")),
              "\\u0001\\u001f");
    EXPECT_EQ(JsonWriter::escape("plain text"), "plain text");
}

TEST(JsonWriter, NumbersPrintAsTheStreamWould)
{
    // to_chars must reproduce `ostream << v` byte for byte: at the
    // default precision every artifact uses and at the precision a
    // caller sets (the benchmark's result document uses 17).
    std::mt19937_64 rng(11);
    std::vector<double> doubles{0.0,
                                -0.0,
                                1.0 / 3.0,
                                1e21,
                                123456.5,
                                1234567.0,
                                -2.5e-7,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::nan("")};
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        doubles.push_back(d);
        doubles.push_back(static_cast<double>(rng() % 100000) / 64.0);
    }
    const std::vector<std::uint64_t> uints{0, 1, 99, ~0ull, rng()};
    for (int precision : {6, 0, 3, 17}) {
        std::ostringstream got, want;
        got.precision(precision);
        want.precision(precision);
        JsonWriter w(got);
        w.beginArray();
        w.values(doubles.data(), doubles.size());
        for (double d : doubles)
            w.value(d);
        for (std::uint64_t u : uints)
            w.value(u);
        w.endArray();
        want << "[";
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t i = 0; i < doubles.size(); ++i)
                want << (pass || i ? "," : "") << doubles[i];
        for (std::uint64_t u : uints)
            want << "," << u;
        want << "]";
        EXPECT_EQ(got.str(), want.str()) << "precision " << precision;
    }
}

TEST(JsonWriter, StatDumpEscapesNameAndDesc)
{
    stats::Scalar s("we\"ird\nname", "desc with \x02 control");
    s += 3.0;
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    s.dumpJson(w);
    w.endObject();
    const std::string j = os.str();
    EXPECT_NE(j.find("we\\\"ird\\nname"), std::string::npos) << j;
    EXPECT_NE(j.find("\\u0002"), std::string::npos) << j;
}

TEST(Observability, ConfigHashIgnoresObservePaths)
{
    ExperimentConfig a = quick();
    ExperimentConfig b = quick();
    b.observe.metricsOut = "/tmp/somewhere.json";
    b.observe.traceOut = "/tmp/elsewhere.json";
    EXPECT_EQ(configHash("mm", a), configHash("mm", b));

    ExperimentConfig c = quick();
    c.seed = 7;
    EXPECT_NE(configHash("mm", a), configHash("mm", c));
    EXPECT_NE(configHash("mm", a), configHash("atax", a));
    EXPECT_EQ(configHash("mm", a).size(), 16u);
}

TEST(Observability, AttributionAddsPercentileMetricColumns)
{
    const ExperimentConfig cfg = quick();
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    sys.enableAttribution();
    sys.enableMetrics(500, 1024);
    ASSERT_TRUE(sys.run().completed);
    std::ostringstream os;
    sys.writeMetricsJson(os);
    const std::string j = os.str();
    EXPECT_NE(j.find("attr.nvlink.e2e.p50"), std::string::npos);
    EXPECT_NE(j.find("attr.pcie.padWait.p99"), std::string::npos);
    EXPECT_NE(j.find("gpu1.pads.wasted"), std::string::npos);
}

TEST(Observability, PacketEventsCarryTheirStagesAndLeaveHistAlone)
{
    // Runs with attribution, the trace, or both: the trace stamps the
    // lifecycle clock itself, and neither sink changes the other.
    const ExperimentConfig cfg = quick();
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    struct Out
    {
        std::string trace, hist;
        std::uint64_t folds = 0;
    };
    const auto run = [&](bool trace, bool attr) {
        MultiGpuSystem sys(makeSystemConfig(cfg), profile);
        std::ostringstream tr, hist;
        if (trace)
            sys.enableTrace(tr);
        if (attr)
            sys.enableAttribution();
        EXPECT_TRUE(sys.run().completed);
        Out o{tr.str(), "", 0};
        if (attr) {
            sys.attribution()->writeJson(hist);
            o.hist = hist.str();
            o.folds = sys.attribution()->folds();
        }
        return o;
    };
    const Out both = run(true, true);
    EXPECT_EQ(run(false, true).hist, both.hist);
    EXPECT_EQ(run(true, false).trace, both.trace);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(both.trace, doc, err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t packets = 0;
    for (const JsonValue &e : events->items) {
        const std::string cat = e.find("cat") ? e.find("cat")->string : "";
        // A data packet's waits and stages are args of its one event.
        EXPECT_NE(cat, "attr");
        if (cat == "pad") {
            const std::string &name = e.find("name")->string;
            EXPECT_TRUE(name == "sendMiss" || name == "recvMiss") << name;
        }
        if (cat == "net") {
            const std::string &name = e.find("name")->string;
            EXPECT_TRUE(name == "SecAck" || name == "BatchMac") << name;
        }
        if (cat != "packet")
            continue;
        ++packets;
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("src"), nullptr);
        EXPECT_GT(args->find("bytes")->asNumber(), 0.0);
        double sum = 0;
        for (std::size_t st = 0; st < kNumLifeStages; ++st) {
            const JsonValue *v = args->find(lifeStageName(st));
            ASSERT_NE(v, nullptr) << lifeStageName(st);
            sum += v->asNumber();
        }
        EXPECT_EQ(sum, e.find("dur")->asNumber());
    }
    // One event per delivered data packet, as many as attribution
    // folds.
    ASSERT_GT(packets, 0u);
    EXPECT_EQ(packets, both.folds);
}

TEST(Observability, SweepObserveWritesHistogramsMatchingIndex)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "mgsec_test_sweep_hist";
    fs::remove_all(dir);

    Sweep sweep(0.05, 1, 2);
    sweep.setObservability(dir.string());
    ExperimentConfig a;
    a.scheme = OtpScheme::Private;
    ExperimentConfig b;
    b.scheme = OtpScheme::Dynamic;
    b.batching = true;
    sweep.addRaw("mm", a);
    sweep.addRaw("mm", b);
    sweep.addRaw("mm", a); // duplicate: only the first writes sinks
    sweep.run();

    JsonValue idx;
    std::string err;
    ASSERT_TRUE(jsonParseFile((dir / "OBSERVE_INDEX.json").string(),
                              idx, err))
        << err;
    const JsonValue *runs = idx.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 2u);

    // Index entries and histogram files correspond one to one.
    std::set<std::string> indexed;
    for (const JsonValue &r : runs->items) {
        const std::string hash = r.find("hash")->string;
        indexed.insert("HIST_" + hash + ".json");
        JsonValue hist;
        ASSERT_TRUE(jsonParseFile(
            (dir / ("HIST_" + hash + ".json")).string(), hist, err))
            << err;
        const JsonValue *attr = hist.find("attr");
        ASSERT_NE(attr, nullptr);
        EXPECT_NE(attr->find("nvlink.e2e"), nullptr);
        EXPECT_GT(hist.find("folds")->asNumber(), 0.0);
    }
    std::set<std::string> on_disk;
    for (const auto &ent : fs::directory_iterator(dir)) {
        const std::string name = ent.path().filename().string();
        if (name.rfind("HIST_", 0) == 0)
            on_disk.insert(name);
    }
    EXPECT_EQ(on_disk, indexed);
    fs::remove_all(dir);
}

TEST(Observability, AbnormalExitStillYieldsParseableArtifacts)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "mgsec_test_abnormal";
    fs::remove_all(dir);
    fs::create_directories(dir);

    ExperimentConfig cfg = quick();
    cfg.observe.metricsOut = (dir / "metrics.json").string();
    cfg.observe.traceOut = (dir / "trace.json").string();
    cfg.observe.statsJsonOut = (dir / "stats.json").string();
    cfg.observe.histJsonOut = (dir / "hist.json").string();
    cfg.observe.metricsInterval = 100;

    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    {
        MultiGpuSystem sys(makeSystemConfig(cfg), profile);
        sys.eventq().scheduleIn(
            static_cast<Cycles>(500), []() {
                throw std::runtime_error("injected mid-run failure");
            });
        EXPECT_THROW(sys.run(), std::runtime_error);
        // Destruction must flush and seal every sink.
    }

    for (const char *name :
         {"metrics.json", "trace.json", "stats.json", "hist.json"}) {
        JsonValue doc;
        std::string err;
        EXPECT_TRUE(
            jsonParseFile((dir / name).string(), doc, err))
            << name << ": " << err;
    }
    fs::remove_all(dir);
}

TEST(Observability, RunBundleIsWorkerCountInvariantWithProfilerOn)
{
    // The mgsec_run --observe-dir bundle at one and four workers:
    // every deterministic file matches byte for byte while the
    // wall-clock PROF_ file is written beside them.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "mgsec_test_run_bundle";
    fs::remove_all(root);
    std::string hash;
    for (std::uint32_t threads : {1u, 4u}) {
        RunOptions o;
        o.exp = quick();
        o.exp.numGpus = 8;
        o.exp.topology.kind = TopologyKind::NvSwitch;
        o.exp.observe.latencyAttr = true;
        o.exp.simThreads = threads;
        o.observeDir = (root / ("t" + std::to_string(threads))).string();
        ASSERT_TRUE(o.finalizeObservability());
        ASSERT_TRUE(runWorkload(o.workload, o.exp).completed);
        hash = configHash(o.workload, o.exp);
    }
    const auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    for (const char *kind :
         {"TRACE_", "METRICS_", "STATS_", "HIST_", "WIRE_"}) {
        const std::string name = kind + hash + ".json";
        const std::string one = slurp(root / "t1" / name);
        EXPECT_FALSE(one.empty()) << name;
        EXPECT_EQ(one, slurp(root / "t4" / name)) << name;
    }
    for (const char *dir : {"t1", "t4"}) {
        JsonValue prof;
        std::string err;
        EXPECT_TRUE(jsonParseFile(
            (root / dir / ("PROF_" + hash + ".json")).string(), prof,
            err))
            << dir << ": " << err;
    }
    fs::remove_all(root);
}
