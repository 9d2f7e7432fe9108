/**
 * @file
 * Observability-layer tests: the trace / metrics / stats-JSON sinks
 * must be deterministic, must never perturb simulated results, the
 * metric ring must wrap correctly, and every JSON emitter must
 * escape hostile stat names and descriptions.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/experiment.hh"
#include "core/json_in.hh"
#include "core/options.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/json_writer.hh"
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

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("\n\t\r\b\f"),
              "\\n\\t\\r\\b\\f");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01\x1f")),
              "\\u0001\\u001f");
    EXPECT_EQ(JsonWriter::escape("plain text"), "plain text");
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
