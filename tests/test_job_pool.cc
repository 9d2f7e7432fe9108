/**
 * @file
 * Unit and determinism tests for the parallel simulation job pool
 * and the batched Sweep runner.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/job_pool.hh"
#include "core/sweep.hh"

using namespace mgsec;

TEST(JobPool, DefaultWorkerCountIsPositive)
{
    EXPECT_GE(JobPool::defaultWorkers(), 1u);
    JobPool pool;
    EXPECT_GE(pool.workers(), 1u);
}

TEST(JobPool, FuturesAreKeyedToSubmissionNotCompletion)
{
    JobPool pool(4);
    std::vector<std::future<RunResult>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submitTask([i]() {
            RunResult r;
            r.cycles = static_cast<Tick>(i);
            return r;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().cycles,
                  static_cast<Tick>(i));
}

TEST(JobPool, ExceptionsSurfaceAtGet)
{
    JobPool pool(2);
    auto f = pool.submitTask(
        []() -> RunResult { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(JobPool, ConcurrentSimulationsAreDeterministic)
{
    JobPool pool(4);
    ExperimentConfig cfg;
    cfg.scale = 0.05;
    cfg.scheme = OtpScheme::Private;
    std::vector<std::future<RunResult>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(pool.submit("mm", cfg));
    const RunResult first = futs[0].get();
    EXPECT_TRUE(first.completed);
    EXPECT_GT(first.cycles, 0u);
    for (std::size_t i = 1; i < futs.size(); ++i) {
        const RunResult r = futs[i].get();
        EXPECT_EQ(r.cycles, first.cycles);
        EXPECT_EQ(r.totalBytes, first.totalBytes);
        EXPECT_EQ(r.packets, first.packets);
        EXPECT_EQ(r.otp.counts, first.otp.counts);
    }
}

namespace
{

SweepArgs
smallArgs(unsigned jobs)
{
    SweepArgs a;
    a.scale = 0.05;
    a.seeds = 2;
    a.jobs = jobs;
    return a;
}

struct Matrix
{
    std::vector<NormResult> norm;
    RunResult raw;
    std::uint64_t baselineRuns;
    std::uint64_t baselineHits;
};

/** A small (2 workload x 2 scheme) matrix plus one raw run. */
Matrix
runMatrix(unsigned jobs)
{
    Sweep sweep(smallArgs(jobs));
    std::vector<std::size_t> hs;
    for (const char *wl : {"mm", "fir"}) {
        for (OtpScheme scheme :
             {OtpScheme::Private, OtpScheme::Dynamic}) {
            ExperimentConfig cfg;
            cfg.scheme = scheme;
            cfg.batching = scheme == OtpScheme::Dynamic;
            hs.push_back(sweep.addNormalized(wl, cfg));
        }
    }
    ExperimentConfig raw_cfg;
    raw_cfg.scheme = OtpScheme::Unsecure;
    raw_cfg.seed = 7;
    const std::size_t hr = sweep.addRaw("atax", raw_cfg);
    sweep.run();

    Matrix m;
    for (std::size_t h : hs)
        m.norm.push_back(sweep.normalized(h));
    m.raw = sweep.raw(hr);
    m.baselineRuns = sweep.baselineRuns();
    m.baselineHits = sweep.baselineHits();
    return m;
}

} // anonymous namespace

TEST(Sweep, ParallelSweepIsBitIdenticalToSerial)
{
    const Matrix serial = runMatrix(1);
    const Matrix parallel = runMatrix(4);

    ASSERT_EQ(serial.norm.size(), parallel.norm.size());
    for (std::size_t i = 0; i < serial.norm.size(); ++i) {
        const NormResult &a = serial.norm[i];
        const NormResult &b = parallel.norm[i];
        // Exact double equality: the reduction order is fixed by
        // submission index, so the FP arithmetic is identical.
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.traffic, b.traffic);
        EXPECT_EQ(a.sample.cycles, b.sample.cycles);
        EXPECT_EQ(a.sample.totalBytes, b.sample.totalBytes);
        EXPECT_EQ(a.sample.classBytes, b.sample.classBytes);
        EXPECT_EQ(a.sample.packets, b.sample.packets);
        EXPECT_EQ(a.sample.otp.counts, b.sample.otp.counts);
        EXPECT_EQ(a.sample.otp.exposedCycles,
                  b.sample.otp.exposedCycles);
        EXPECT_EQ(a.sample.remoteOps, b.sample.remoteOps);
        EXPECT_EQ(a.sample.migrations, b.sample.migrations);
    }
    EXPECT_EQ(serial.raw.cycles, parallel.raw.cycles);
    EXPECT_EQ(serial.raw.totalBytes, parallel.raw.totalBytes);
    EXPECT_EQ(serial.raw.burst16, parallel.raw.burst16);
    EXPECT_EQ(serial.baselineRuns, parallel.baselineRuns);
    EXPECT_EQ(serial.baselineHits, parallel.baselineHits);
}

TEST(Sweep, BaselineSimulatedOncePerWorkloadAndSeed)
{
    // 1 workload x 3 secure configs x 2 seeds: 6 baseline lookups,
    // but only seeds-many distinct baselines.
    Sweep sweep(smallArgs(2));
    for (OtpScheme scheme : {OtpScheme::Private, OtpScheme::Shared,
                             OtpScheme::Cached}) {
        ExperimentConfig cfg;
        cfg.scheme = scheme;
        sweep.addNormalized("mm", cfg);
    }
    sweep.run();
    EXPECT_EQ(sweep.baselineRuns(), 2u);
    EXPECT_EQ(sweep.baselineHits(), 4u);
}

TEST(Sweep, SecurityKnobSweepsShareOneBaseline)
{
    // otpMult/aesLatency/batchSize only affect secured runs; all
    // variants must hit the same memoized baseline.
    SweepArgs a = smallArgs(2);
    a.seeds = 1;
    Sweep sweep(a);
    for (std::uint32_t mult : {1u, 4u, 16u}) {
        ExperimentConfig cfg;
        cfg.scheme = OtpScheme::Private;
        cfg.otpMult = mult;
        sweep.addNormalized("fir", cfg);
    }
    for (Cycles lat : {10u, 40u}) {
        ExperimentConfig cfg;
        cfg.scheme = OtpScheme::Cached;
        cfg.aesLatency = lat;
        sweep.addNormalized("fir", cfg);
    }
    sweep.run();
    EXPECT_EQ(sweep.baselineRuns(), 1u);
    EXPECT_EQ(sweep.baselineHits(), 4u);
}

TEST(Sweep, ShapingAndEwmaVariantsShareOneBaselinePerFabric)
{
    // Shaping and the Dynamic EWMA knobs act only on secured runs, so
    // their variants share one baseline; the fabric changes the
    // unsecure run itself, so nvswitch and hier get one each.
    SweepArgs a = smallArgs(2);
    a.seeds = 1;
    Sweep sweep(a);
    for (TopologyKind kind :
         {TopologyKind::NvSwitch, TopologyKind::Hier}) {
        ExperimentConfig cfg;
        cfg.numGpus = 8;
        cfg.topology.kind = kind;
        cfg.topology.gpusPerNode = 4;
        cfg.scheme = OtpScheme::Dynamic;
        cfg.batching = true;
        sweep.addNormalized("fir", cfg);
        ExperimentConfig shaped = cfg;
        shaped.shaping = ShapingPolicy::ConstantRate;
        shaped.shapeInterval = 32;
        shaped.shapeChaffSlots = 0;
        sweep.addNormalized("fir", shaped);
        ExperimentConfig ewma = cfg;
        ewma.dynParams.alpha = 0.5;
        ewma.dynParams.interval = 500;
        sweep.addNormalized("fir", ewma);
    }
    sweep.run();
    EXPECT_EQ(sweep.baselineRuns(), 2u);
    EXPECT_EQ(sweep.baselineHits(), 4u);
}

TEST(Sweep, DistinctGpuCountsGetDistinctBaselines)
{
    SweepArgs a = smallArgs(2);
    a.seeds = 1;
    Sweep sweep(a);
    for (std::uint32_t gpus : {4u, 8u}) {
        ExperimentConfig cfg;
        cfg.numGpus = gpus;
        cfg.scheme = OtpScheme::Private;
        sweep.addNormalized("fir", cfg);
    }
    sweep.run();
    EXPECT_EQ(sweep.baselineRuns(), 2u);
    EXPECT_EQ(sweep.baselineHits(), 0u);
}

TEST(Sweep, RawRunUsesConfiguredSeedVerbatim)
{
    // addRaw must not apply the sweep's seed loop: cfg.seed is the
    // contract (the pattern figures show one representative run).
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Unsecure;
    cfg.seed = 7;

    Sweep sweep(0.05, 3, 2); // 3 seeds must NOT affect the raw run
    const std::size_t h = sweep.addRaw("mm", cfg);
    sweep.run();

    ExperimentConfig direct = cfg;
    direct.scale = 0.05;
    const RunResult expect = runWorkload("mm", direct);
    EXPECT_EQ(sweep.raw(h).cycles, expect.cycles);
    EXPECT_EQ(sweep.raw(h).totalBytes, expect.totalBytes);
}

TEST(Sweep, NormalizedMatchesHandRolledLoop)
{
    // The batched path must reproduce the historical serial
    // formula: mean over seeds of r/b, per metric.
    const double scale = 0.05;
    const int seeds = 2;
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Private;

    Sweep sweep(scale, seeds, 2);
    const std::size_t h = sweep.addNormalized("bicg", cfg);
    sweep.run();

    double time = 0.0, traffic = 0.0;
    for (int s = 1; s <= seeds; ++s) {
        ExperimentConfig secure = cfg;
        secure.scale = scale;
        secure.seed = static_cast<std::uint64_t>(s);
        ExperimentConfig base = secure;
        base.scheme = OtpScheme::Unsecure;
        base.batching = false;
        base.countMetadataBytes = true;
        const RunResult b = runWorkload("bicg", base);
        const RunResult r = runWorkload("bicg", secure);
        time += normalizedTime(r, b) / seeds;
        traffic += normalizedTraffic(r, b) / seeds;
    }
    EXPECT_EQ(sweep.normalized(h).time, time);
    EXPECT_EQ(sweep.normalized(h).traffic, traffic);
}
