/**
 * @file
 * Exit codes of the command-line tools: 0 for --help, 2 for a usage
 * error (unknown flag, bad or missing value), 1 for a run that fails.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace
{

int
exitCode(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** What @p cmd prints to stdout. */
std::string
output(const std::string &cmd)
{
    std::string out;
    std::FILE *p = popen((cmd + " 2>/dev/null").c_str(), "r");
    char buf[4096];
    for (std::size_t n; p && (n = std::fread(buf, 1, sizeof buf, p)) > 0;)
        out.append(buf, n);
    if (p)
        pclose(p);
    return out;
}

const std::string kRun = MGSEC_RUN_BIN;
const std::string kFigures = MGSEC_FIGURES_BIN;
const std::string kHotpath = BENCH_HOTPATH_BIN;
const std::string kSweep = MGSEC_SWEEP_BIN;
const std::string kFuzz = MGSEC_FUZZ_BIN;
const std::string kReport = MGSEC_REPORT_BIN;

} // anonymous namespace

TEST(CliExitCodes, MgsecRunTellsHelpUsageErrorsAndFailedRuns)
{
    EXPECT_EQ(exitCode(kRun + " --help"), 0);
    EXPECT_EQ(exitCode(kRun + " --frob 1"), 2);
    EXPECT_EQ(exitCode(kRun + " --batch-size 300"), 2);
    EXPECT_EQ(exitCode(kRun + " --workload"), 2);
    EXPECT_EQ(exitCode(kRun + " stray"), 2);
    EXPECT_EQ(exitCode(kRun + " --observe-dir obs --stats-json s.json"), 2);
    // A run whose result cannot be written fails after it ran.
    EXPECT_EQ(exitCode(kRun + " --workload fir --scale 0.02 --baseline "
                              "false --json-out ."),
              1);
}

TEST(CliExitCodes, BenchHotpathRejectsBadScale)
{
    EXPECT_EQ(exitCode(kHotpath + " --help"), 0);
    EXPECT_EQ(exitCode(kHotpath + " --scale abc"), 2);
    EXPECT_EQ(exitCode(kHotpath + " --scale -1"), 2);
    EXPECT_EQ(exitCode(kHotpath + " --scale 0"), 2);
    EXPECT_EQ(exitCode(kHotpath + " --scale"), 2);
    EXPECT_EQ(exitCode(kHotpath + " --frob"), 2);
}

TEST(CliExitCodes, MgsecFiguresRejectsUnknownFlagsAndFigures)
{
    EXPECT_EQ(exitCode(kFigures + " --help"), 0);
    EXPECT_EQ(exitCode(kFigures + " --figure table1"), 0);
    EXPECT_EQ(exitCode(kFigures + " --figure table1 --frob 1"), 2);
    EXPECT_EQ(exitCode(kFigures + " --figure fig99"), 2);
    EXPECT_EQ(exitCode(kFigures + " --figure"), 2);
    EXPECT_EQ(exitCode(kFigures), 2);
    EXPECT_EQ(exitCode(kFigures + " --figure table1 --scale abc"), 2);
    EXPECT_NE(output(kFigures + " --help").find("--figure NAME"),
              std::string::npos);
}

TEST(CliExitCodes, FabricsThatDoNotFitAreUsageErrors)
{
    // Each would otherwise abort on a topology assertion (exit 134).
    EXPECT_EQ(exitCode(kRun + " --topology nvswitch --gpus 16 "
                              "--switch-radix 4"),
              2);
    EXPECT_EQ(exitCode(kRun + " --topology nvswitch --gpus 128"), 2);
    EXPECT_EQ(exitCode(kRun + " --topology hier --switch-radix 2"), 2);
    EXPECT_EQ(exitCode(kSweep + " --topology nvswitch --gpus 128"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --nodes 70 --topology nvswitch"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --repro 'v1;seed=1;nodes=70;"
                               "scheme=Private;batch=0;bsz=4;msgs=48;"
                               "req=0;gap=20;bug=none;trigger=3;"
                               "topo=nvswitch;script='"),
              2);
}

TEST(CliExitCodes, MgsecSweepRejectsUnknownFlagsAndBadValues)
{
    EXPECT_EQ(exitCode(kSweep + " --help"), 0);
    EXPECT_EQ(exitCode(kSweep + " --frob 1"), 2);
    EXPECT_EQ(exitCode(kSweep + " --scale abc"), 2);
    EXPECT_EQ(exitCode(kSweep + " --gpus 0"), 2);
    EXPECT_EQ(exitCode(kSweep + " --sim-threads 2x"), 2);
    EXPECT_EQ(exitCode(kSweep + " --crypto-impl avx"), 2);
    EXPECT_EQ(exitCode(kSweep + " --topology ring"), 2);
}

TEST(CliExitCodes, MgsecFuzzParsesNumbersStrictly)
{
    EXPECT_EQ(exitCode(kFuzz + " --help"), 0);
    EXPECT_EQ(exitCode(kFuzz + " --max-runs 1 --seed 7"), 0);
    EXPECT_EQ(exitCode(kFuzz + " --seed abc --max-runs 1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --sim-threads 2x --max-runs 1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --budget abc"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --max-runs -1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --nodes 1 --max-runs 1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --inject-bug typo --max-runs 1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --seed"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --frob 1"), 2);
    EXPECT_EQ(exitCode(kFuzz + " --repro 'v1;seed=abc'"), 2);
}

TEST(CliExitCodes, MgsecReportParsesThresholdStrictly)
{
    EXPECT_EQ(exitCode(kReport + " --help"), 0);
    EXPECT_EQ(exitCode(kReport + " --threshold abc in.json"), 2);
    EXPECT_EQ(exitCode(kReport + " --threshold -1 in.json"), 2);
    EXPECT_EQ(exitCode(kReport + " --threshold 5x in.json"), 2);
    EXPECT_EQ(exitCode(kReport + " --frob 1"), 2);
}

TEST(CliExitCodes, MgsecReportCountsItsInputs)
{
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "/report_a.json", b = dir + "/report_b.json";
    std::ofstream(a) << "{\"x\": 1, \"y\": 2}\n";
    std::ofstream(b) << "{\"x\": 1, \"y\": 2}\n";
    const std::string out = " --out " + dir + "/report_verdict.json";
    EXPECT_EQ(exitCode(kReport + " --compare " + a + out), 2);
    EXPECT_EQ(exitCode(kReport + " " + a + " " + b), 2);
    // Each --ignore adds a path filter.
    const std::string both = kReport + " --compare " + a + " " + b + out;
    EXPECT_EQ(exitCode(both + " --ignore x --ignore y"), 0);
    EXPECT_NE(output(both + " --ignore x --ignore y").find("compared 0 "),
              std::string::npos);
    EXPECT_NE(output(both + " --ignore x").find("compared 1 "),
              std::string::npos);
    EXPECT_EQ(exitCode(kReport + " --compare --stats-json " + a +
                       " --observe " + b + out),
              0);
}
