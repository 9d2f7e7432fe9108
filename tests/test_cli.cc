/**
 * @file
 * Exit codes of the command-line tools: 0 for --help, 2 for a usage
 * error (unknown flag, bad or missing value), 1 for a run that fails.
 */

#include <gtest/gtest.h>

#include <cstdlib>
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

const std::string kRun = MGSEC_RUN_BIN;
const std::string kFigures = MGSEC_FIGURES_BIN;
const std::string kHotpath = BENCH_HOTPATH_BIN;

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
}
