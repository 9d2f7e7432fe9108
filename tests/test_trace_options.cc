/**
 * @file
 * Trace record/replay and RunOptions tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/options.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "secure/batching.hh"
#include "workload/trace_io.hh"

using namespace mgsec;

// --------------------------------------------------------------- trace IO

TEST(TraceIo, RoundTripPreservesEveryOp)
{
    const WorkloadProfile p = makeProfile("mm", 0.05);
    TraceSource src(p, 1, 5, 42);
    std::stringstream buf;
    const std::uint64_t written = writeTrace(buf, src);
    EXPECT_EQ(written, p.opsPerGpu);

    TraceFileSource replay(buf);
    EXPECT_EQ(replay.totalOps(), p.opsPerGpu);

    TraceSource fresh(p, 1, 5, 42);
    RemoteOp a, b;
    while (fresh.next(a)) {
        ASSERT_TRUE(replay.next(b));
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.write, b.write);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.migratable, b.migratable);
    }
    EXPECT_FALSE(replay.next(b));
}

TEST(TraceIo, HeaderIsValidated)
{
    std::stringstream bad("not-a-trace v1 3\n");
    EXPECT_DEATH(TraceFileSource{bad}, "mgsec-trace");
}

TEST(TraceIo, TruncationDetected)
{
    std::stringstream buf("mgsec-trace v1 5\n1 0 0 64 0\n");
    EXPECT_DEATH(TraceFileSource{buf}, "truncated");
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = "/tmp/mgsec_test_trace.trace";
    const WorkloadProfile p = makeProfile("fir", 0.2);
    const std::uint64_t n = recordTrace(path, p, 2, 5, 7);
    EXPECT_EQ(n, p.opsPerGpu);
    TraceFileSource replay(path);
    EXPECT_EQ(replay.totalOps(), n);
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayedRunMatchesSyntheticRun)
{
    // Replaying GPU 1's recorded trace must reproduce the original
    // system behaviour exactly (all other GPUs stay synthetic).
    ExperimentConfig e;
    e.scheme = OtpScheme::Private;
    e.scale = 0.05;
    const SystemConfig sc = makeSystemConfig(e);
    const WorkloadProfile p = makeProfile("mm", e.scale);

    MultiGpuSystem direct(sc, p);
    const RunResult a = direct.run();

    std::stringstream buf;
    TraceSource src(p, 1, 5, sc.seed);
    writeTrace(buf, src);
    MultiGpuSystem replayed(sc, p);
    replayed.replaceWorkload(1,
                             std::make_unique<TraceFileSource>(buf));
    const RunResult b = replayed.run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
}

// ---------------------------------------------------------------- options

TEST(RunOptions, DefaultsAreSane)
{
    RunOptions o;
    EXPECT_EQ(o.workload, "mm");
    EXPECT_EQ(o.exp.numGpus, 4u);
    EXPECT_EQ(o.exp.scheme, OtpScheme::Private);
}

TEST(RunOptions, SetKnownKeys)
{
    RunOptions o;
    EXPECT_EQ(o.set("workload", "spmv"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("gpus", "8"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("scheme", "dynamic"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("batching", "on"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("otp-mult", "16"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("aes-latency", "10"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.set("scale", "0.5"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.workload, "spmv");
    EXPECT_EQ(o.exp.numGpus, 8u);
    EXPECT_EQ(o.exp.scheme, OtpScheme::Dynamic);
    EXPECT_TRUE(o.exp.batching);
    EXPECT_EQ(o.exp.otpMult, 16u);
    EXPECT_EQ(o.exp.aesLatency, 10u);
    EXPECT_DOUBLE_EQ(o.exp.scale, 0.5);
}

TEST(RunOptions, RejectsUnknownKey)
{
    RunOptions o;
    EXPECT_EQ(o.set("frobnicate", "1"), RunOptions::ParseStatus::Error);
}

TEST(RunOptions, RejectsBadValues)
{
    RunOptions o;
    EXPECT_EQ(o.set("scheme", "quantum"), RunOptions::ParseStatus::Error);
    EXPECT_EQ(o.set("batching", "maybe"), RunOptions::ParseStatus::Error);
}

TEST(RunOptions, BatchSizeMustFitTheLengthByte)
{
    // A batch declares its length in one byte, and the assembler
    // asserts on any size outside [2, 255]: the option parser must
    // report those sizes instead of starting a run that aborts.
    RunOptions o;
    for (const char *bad : {"0", "1", "256", "300", "1048576"})
        EXPECT_EQ(o.set("batch-size", bad), RunOptions::ParseStatus::Error)
            << bad;
    EXPECT_EQ(o.exp.batchSize, 16u);
    EXPECT_EQ(o.set("batch-size", "2"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.exp.batchSize, kMinBatchSize);
    EXPECT_EQ(o.set("batch-size", "255"), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.exp.batchSize, kMaxBatchSize);

    RunOptions cli;
    const char *argv[] = {"prog", "--scheme", "dynamic", "--batching",
                          "true", "--batch-size", "300"};
    EXPECT_EQ(cli.parse(7, const_cast<char **>(argv)),
              RunOptions::ParseStatus::Error);
}

TEST(RunOptions, ObserveDirNamesTheSweepBundle)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "mgsec_test_observe_dir";
    fs::remove_all(root);

    RunOptions o;
    ASSERT_EQ(o.set("workload", "fir"), RunOptions::ParseStatus::Ok);
    ASSERT_EQ(o.set("scheme", "dynamic"), RunOptions::ParseStatus::Ok);
    ASSERT_EQ(o.set("scale", "0.05"), RunOptions::ParseStatus::Ok);
    ASSERT_EQ(o.set("observe-dir", (root / "run").string()),
              RunOptions::ParseStatus::Ok);
    ASSERT_TRUE(o.finalizeObservability());
    const ObserveConfig &obs = o.exp.observe;
    std::set<std::string> run_files;
    for (const std::string *p :
         {&obs.metricsOut, &obs.traceOut, &obs.statsJsonOut,
          &obs.histJsonOut, &obs.wireOut, &obs.profOut}) {
        EXPECT_EQ(fs::path(*p).parent_path(), root / "run");
        run_files.insert(fs::path(*p).filename().string());
    }
    EXPECT_EQ(run_files.size(), 6u);

    // The same configuration as a sweep job: the files the sweep
    // writes for it are exactly the ones --observe-dir names.
    ExperimentConfig cfg = o.exp;
    cfg.observe = ObserveConfig{};
    Sweep sweep(cfg.scale, 1, 1);
    sweep.setObservability((root / "sweep").string());
    sweep.addRaw(o.workload, cfg);
    sweep.run();
    std::set<std::string> sweep_files;
    for (const auto &e : fs::directory_iterator(root / "sweep")) {
        const std::string f = e.path().filename().string();
        if (f != "OBSERVE_INDEX.json" && f != "PROGRESS.jsonl")
            sweep_files.insert(f);
    }
    EXPECT_EQ(run_files, sweep_files);
    fs::remove_all(root);
}

TEST(RunOptions, ObserveDirRejectsExplicitSinkPaths)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "mgsec_test_observe_reject")
            .string();
    for (const char *key : {"metrics-out", "trace-out", "stats-json",
                            "hist-json", "wire-json", "prof-out"}) {
        RunOptions o;
        ASSERT_EQ(o.set("observe-dir", dir), RunOptions::ParseStatus::Ok);
        ASSERT_EQ(o.set(key, "explicit.json"), RunOptions::ParseStatus::Ok);
        EXPECT_FALSE(o.finalizeObservability()) << key;
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(RunOptions, ParseArgv)
{
    RunOptions o;
    const char *argv[] = {"prog", "--workload", "pr", "--scheme",
                          "cached", "--seed", "9"};
    EXPECT_EQ(o.parse(7, const_cast<char **>(argv)),
              RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.workload, "pr");
    EXPECT_EQ(o.exp.scheme, OtpScheme::Cached);
    EXPECT_EQ(o.exp.seed, 9u);
}

TEST(RunOptions, ParseTellsHelpFromError)
{
    RunOptions o;
    const char *help[] = {"prog", "--seed", "3", "--help"};
    EXPECT_EQ(o.parse(4, const_cast<char **>(help)),
              RunOptions::ParseStatus::Help);
    const char *bad[] = {"prog", "--frob", "1"};
    EXPECT_EQ(o.parse(3, const_cast<char **>(bad)),
              RunOptions::ParseStatus::Error);
}

TEST(RunOptions, ParseRejectsDanglingFlag)
{
    RunOptions o;
    const char *argv[] = {"prog", "--workload"};
    EXPECT_EQ(o.parse(2, const_cast<char **>(argv)),
              RunOptions::ParseStatus::Error);
}

TEST(RunOptions, ConfigFileRoundTrip)
{
    const std::string path = "/tmp/mgsec_test_options.cfg";
    {
        std::ofstream os(path);
        os << "# a comment\n"
           << "workload = syr2k\n"
           << "scheme = shared   # trailing comment\n"
           << "gpus = 16\n"
           << "\n";
    }
    RunOptions o;
    EXPECT_EQ(o.loadFile(path), RunOptions::ParseStatus::Ok);
    EXPECT_EQ(o.workload, "syr2k");
    EXPECT_EQ(o.exp.scheme, OtpScheme::Shared);
    EXPECT_EQ(o.exp.numGpus, 16u);
    std::remove(path.c_str());
}

TEST(RunOptions, ConfigFileBadLineFails)
{
    const std::string path = "/tmp/mgsec_test_options_bad.cfg";
    {
        std::ofstream os(path);
        os << "this is not a key value pair\n";
    }
    RunOptions o;
    EXPECT_EQ(o.loadFile(path), RunOptions::ParseStatus::Error);
    std::remove(path.c_str());
}

TEST(ParseScheme, AllNamesCaseInsensitive)
{
    OtpScheme s;
    EXPECT_TRUE(parseScheme("Private", s));
    EXPECT_EQ(s, OtpScheme::Private);
    EXPECT_TRUE(parseScheme("SHARED", s));
    EXPECT_EQ(s, OtpScheme::Shared);
    EXPECT_TRUE(parseScheme("none", s));
    EXPECT_EQ(s, OtpScheme::Unsecure);
    EXPECT_FALSE(parseScheme("", s));
}

// -------------------------------------------------------------- stat dump

TEST(StatsDump, ContainsPrefixedComponentStats)
{
    ExperimentConfig e;
    e.scheme = OtpScheme::Private;
    e.scale = 0.05;
    MultiGpuSystem sys(makeSystemConfig(e),
                       makeProfile("mm", e.scale));
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("net.packets"), std::string::npos);
    EXPECT_NE(s.find("gpu1.remoteOps"), std::string::npos);
    EXPECT_NE(s.find("gpu1.channel.pads.sendHits"),
              std::string::npos);
    EXPECT_NE(s.find("pt.migrations"), std::string::npos);
    EXPECT_NE(s.find("cpu.mem.accesses"), std::string::npos);
}
