/**
 * @file
 * Property tests of the knob rows: every row round-trips through the
 * command line, a config file, configKey() and (where the knob has
 * one) the repro grammar; every out-of-range value, malformed value
 * and unknown enum name is rejected; and the generated configKey(),
 * baselineConfig() and repro parser reproduce strings pinned from
 * the hand-written versions they replaced.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/options.hh"
#include "verify/fuzz.hh"

namespace mgsec
{
namespace
{

using Status = RunOptions::ParseStatus;

/** The "lo..hi" bounds of a numeric row, as written. */
bool
bounds(const std::string &values, std::string &lo, std::string &hi)
{
    const std::size_t dots = values.find("..");
    if (dots == std::string::npos)
        return false;
    lo = values.substr(0, dots);
    hi = values.substr(dots + 2);
    return true;
}

/** Every value a row accepts that the test tries. */
std::vector<std::string>
validValues(const std::string &values)
{
    std::string lo, hi;
    if (bounds(values, lo, hi))
        return {lo, hi};
    if (values.empty())
        return {"fir", "x.json"};
    return splitList(values, '|');
}

/** A value @p k accepts whose print differs from @p def's. */
template <typename T>
std::string
otherValue(const Knob<T> &k, const T &def)
{
    for (const std::string &v : validValues(k.values)) {
        T t = def;
        if (k.parse(t, v) && k.print(t) != k.print(def))
            return v;
    }
    return "";
}

/** Values @p k must reject: out of range, malformed, unknown. */
std::vector<std::string>
badValues(const std::string &values)
{
    std::vector<std::string> bad = {"", "abc", "1x", " 1", "1 "};
    std::string lo, hi;
    if (!bounds(values, lo, hi)) {
        if (values.empty())
            return {};
        bad.push_back("bogus");
        bad.push_back(splitList(values, '|')[0] + "x");
        return bad;
    }
    const bool integral = lo.find_first_of(".e") == std::string::npos &&
                          hi.find_first_of(".e") == std::string::npos;
    if (integral) {
        bad.push_back("1.5");
        bad.push_back(lo[0] == '-'
                          ? std::to_string(std::stoll(lo) - 1)
                          : (lo == "0" ? "-1"
                                       : std::to_string(std::stoull(lo) - 1)));
        bad.push_back(hi == "18446744073709551615"
                          ? "18446744073709551616"
                          : std::to_string(std::stoll(hi) + 1));
    } else {
        const double l = std::stod(lo), h = std::stod(hi);
        bad.push_back(showNumber(l > 0 ? l / 2 : l - 1));
        bad.push_back(showNumber(h * 2));
        bad.push_back("nan");
    }
    return bad;
}

RunOptions::ParseStatus
parseCli(RunOptions &o, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return o.parse(static_cast<int>(argv.size()), argv.data());
}

RunOptions::ParseStatus
parseConfigFile(RunOptions &o, const std::string &text)
{
    // ctest runs each test as its own process, concurrently.
    const std::string path =
        ::testing::TempDir() + "mgsec_knob_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".cfg";
    std::ofstream(path) << text;
    const Status st = o.loadFile(path);
    std::remove(path.c_str());
    return st;
}

/** Experiment rows that are also repro keys. */
const std::map<std::string, std::string> kReproName = {
    {"scheme", "scheme"}, {"batching", "batch"}, {"batch-size", "bsz"},
    {"seed", "seed"},     {"topology", "topo"},
};

TEST(KnobRows, EveryRowRoundTripsCliConfigFileKeyAndRepro)
{
    const ExperimentConfig def;
    const std::string defKey = configKey("mm", def);
    int checked = 0;
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        if (!k.name)
            continue;
        const std::string v = otherValue(k, def);
        ASSERT_FALSE(v.empty()) << k.name;
        ExperimentConfig want = def;
        ASSERT_TRUE(k.parse(want, v)) << k.name;

        RunOptions cli;
        ASSERT_EQ(parseCli(cli, {std::string("--") + k.name, v}),
                  Status::Ok)
            << k.name;
        EXPECT_EQ(k.print(cli.exp), k.print(want)) << k.name;

        RunOptions file;
        ASSERT_EQ(parseConfigFile(file, std::string(k.name) + " = " + v +
                                            "  # comment\n"),
                  Status::Ok)
            << k.name;
        EXPECT_EQ(k.print(file.exp), k.print(want)) << k.name;

        // A row in the key moves it to exactly the printed value; a
        // host-only row never touches it.
        const std::string key = configKey("mm", cli.exp);
        if (k.segment) {
            EXPECT_NE(key, defKey) << k.name;
            EXPECT_NE(key.find(std::string("|") + k.segment + "="),
                      std::string::npos);
            EXPECT_NE(key.find(k.print(want) + k.suffix),
                      std::string::npos)
                << k.name;
        } else {
            EXPECT_EQ(key, defKey) << k.name;
        }

        const auto repro = kReproName.find(k.name);
        if (repro != kReproName.end()) {
            verify::TestbedConfig tb;
            ASSERT_TRUE(verify::decodeRepro(
                "v1;" + repro->second + "=" + v, tb))
                << k.name;
            EXPECT_NE(verify::encodeRepro(tb).find(
                          ";" + repro->second + "=" + k.print(want) + ";"),
                      std::string::npos)
                << k.name;
        }
        ++checked;
    }
    EXPECT_GE(checked, 34);

    // RunOptions' own rows take the same two paths.
    RunOptions cli, file;
    EXPECT_EQ(parseCli(cli, {"--workload", "fir", "--baseline", "off"}),
              Status::Ok);
    EXPECT_EQ(parseConfigFile(file, "workload = fir\nbaseline = off\n"),
              Status::Ok);
    EXPECT_EQ(cli.workload, "fir");
    EXPECT_EQ(file.workload, "fir");
    EXPECT_FALSE(cli.baseline);
    EXPECT_FALSE(file.baseline);
}

TEST(KnobRows, RejectEveryBadValueWithoutTouchingTheField)
{
    const ExperimentConfig def;
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        for (const std::string &bad : badValues(k.values)) {
            ExperimentConfig cfg;
            EXPECT_FALSE(k.parse(cfg, bad))
                << (k.name ? k.name : k.segment) << " '" << bad << "'";
            EXPECT_EQ(k.print(cfg), k.print(def));
            if (!k.name)
                continue;
            RunOptions cli, file;
            EXPECT_EQ(parseCli(cli, {std::string("--") + k.name, bad}),
                      Status::Error)
                << k.name << " '" << bad << "'";
            if (bad.find(' ') != std::string::npos)
                continue; // a config file trims its values
            EXPECT_EQ(parseConfigFile(file, std::string(k.name) + " = " +
                                                bad + "\n"),
                      Status::Error)
                << k.name << " '" << bad << "'";
        }
    }
    RunOptions o;
    EXPECT_EQ(parseCli(o, {"--workload", "nosuch"}), Status::Error);
    EXPECT_EQ(parseCli(o, {"--dyn", "1"}), Status::Error);
    EXPECT_EQ(parseCli(o, {"--memprot", "1"}), Status::Error);
}

TEST(KnobRows, ReproRowsRejectEveryBadValue)
{
    const verify::TestbedConfig def;
    for (const Knob<verify::TestbedConfig> &k : verify::reproKnobs()) {
        for (const std::string &bad : badValues(k.values)) {
            verify::TestbedConfig tb;
            EXPECT_FALSE(verify::decodeRepro(
                std::string("v1;") + k.name + "=" + bad, tb))
                << k.name << " '" << bad << "'";
        }
        const std::string v = otherValue(k, def);
        verify::TestbedConfig tb;
        if (!v.empty()) {
            ASSERT_TRUE(
                verify::decodeRepro(std::string("v1;") + k.name + "=" + v, tb))
                << k.name << " '" << v << "'";
            EXPECT_NE(k.print(tb), k.print(def)) << k.name;
        }
    }
}

TEST(KnobRows, BaselineResetsExactlyTheSecuredOnlyRows)
{
    const ExperimentConfig def;
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        ExperimentConfig cfg;
        ASSERT_TRUE(k.parse(cfg, otherValue(k, def)))
            << (k.name ? k.name : k.segment);
        const ExperimentConfig base = baselineConfig(cfg);
        EXPECT_EQ(base.scheme, OtpScheme::Unsecure);
        if (k.name && std::string(k.name) == "scheme")
            continue;
        EXPECT_EQ(k.print(base), k.print(k.securedOnly ? def : cfg))
            << (k.name ? k.name : k.segment);
    }
}

TEST(KnobRows, HelpShowsEveryFlag)
{
    std::ostringstream os;
    RunOptions::usage(os);
    const std::string help = os.str();
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        if (k.name) {
            EXPECT_NE(help.find(std::string("--") + k.name + " "),
                      std::string::npos)
                << k.name;
        }
    }
    // Defaults come from the member initializers.
    EXPECT_NE(help.find("--batch-size N"), std::string::npos);
    EXPECT_NE(help.find("2..255 (default 16)"), std::string::npos);
    EXPECT_NE(help.find("(default 1000)"), std::string::npos);
}

/**
 * Rebuild an ExperimentConfig from a configKey the way the rows
 * print it: each "segment=a/b/c" feeds that segment's rows in order.
 */
bool
parseKey(const std::string &key, std::string &workload,
         ExperimentConfig &cfg)
{
    const std::vector<std::string> segs = splitList(key, '|');
    workload = segs[0];
    const auto &rows = experimentKnobs();
    std::size_t r = 0;
    for (std::size_t s = 1; s < segs.size(); ++s) {
        const std::size_t eq = segs[s].find('=');
        if (eq == std::string::npos)
            return false;
        const std::string name = segs[s].substr(0, eq);
        for (std::string v : splitList(segs[s].substr(eq + 1), '/')) {
            while (r < rows.size() && !rows[r].segment)
                ++r;
            if (r == rows.size() || name != rows[r].segment)
                return false;
            const std::string suffix = rows[r].suffix;
            if (!suffix.empty() && v.size() > suffix.size() &&
                v.compare(v.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
                v.resize(v.size() - suffix.size());
            if (!rows[r++].parse(cfg, v))
                return false;
        }
    }
    return true;
}

TEST(ConfigKey, MatchesPinnedStringsByteForByte)
{
    std::ifstream is(MGSEC_TEST_DATA_DIR "/config_keys.txt");
    ASSERT_TRUE(is);
    std::string line;
    std::size_t keys = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string hash, baseHash, workloads, rest;
        ls >> hash >> baseHash >> workloads >> rest;
        const std::vector<std::string> wls = splitList(workloads, ',');
        for (std::size_t i = 0; i < wls.size(); ++i) {
            const std::string key = wls[i] + "|" + rest;
            std::string wl;
            ExperimentConfig cfg;
            ASSERT_TRUE(parseKey(key, wl, cfg)) << key;
            EXPECT_EQ(configKey(wl, cfg), key);
            if (i == 0) {
                EXPECT_EQ(configHash(wl, cfg), hash) << key;
                if (baseHash != "-") {
                    EXPECT_EQ(configHash(wl, baselineConfig(cfg)), baseHash)
                        << key;
                }
            }
            ++keys;
        }
    }
    EXPECT_GE(keys, 2000u);
}

TEST(Repro, PinnedStringsDecodeToTheConfigTheyWerePrintedFrom)
{
    std::ifstream is(MGSEC_TEST_DATA_DIR "/repros_v1.txt");
    ASSERT_TRUE(is);
    std::string line;
    std::size_t n = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        verify::TestbedConfig cfg;
        ASSERT_TRUE(verify::decodeRepro(line, cfg)) << line;
        // Every field was printed, so re-encoding is the same string;
        // p2p strings now spell out their fabric.
        std::string want = line;
        if (want.find(";topo=") == std::string::npos)
            want.insert(want.find(";script="), ";topo=p2p");
        EXPECT_EQ(verify::encodeRepro(cfg), want);
        ++n;
    }
    EXPECT_GE(n, 20u);
}

TEST(Repro, RejectsNodesThatDoNotFitTheFabric)
{
    verify::TestbedConfig cfg;
    EXPECT_TRUE(verify::decodeRepro("v1;nodes=65;topo=nvswitch", cfg));
    EXPECT_FALSE(verify::decodeRepro("v1;nodes=66;topo=nvswitch", cfg));
    EXPECT_TRUE(verify::decodeRepro("v1;nodes=70;topo=hier", cfg));
    EXPECT_FALSE(verify::decodeRepro("v1;scheme=none;nodes=1", cfg));
    EXPECT_TRUE(verify::decodeRepro("v1;scheme=none", cfg));
    EXPECT_EQ(cfg.scheme, OtpScheme::Unsecure);
}

TEST(RunOptions, DebugHelpReturnsHelpInsteadOfExiting)
{
    RunOptions cli;
    EXPECT_EQ(parseCli(cli, {"--debug", "help"}), Status::Help);
    RunOptions file;
    EXPECT_EQ(parseConfigFile(file, "seed = 3\ndebug = help\nseed = 4\n"),
              Status::Help);
    EXPECT_EQ(file.exp.seed, 3u);
}

TEST(RunOptions, FabricIsCheckedAtParseTime)
{
    RunOptions o;
    EXPECT_EQ(parseCli(o, {"--topology", "nvswitch", "--gpus", "16",
                           "--switch-radix", "4"}),
              Status::Error);
    EXPECT_EQ(parseCli(o, {"--topology", "nvswitch", "--gpus", "128"}),
              Status::Error);
    EXPECT_EQ(parseCli(o, {"--topology", "hier", "--switch-radix", "2"}),
              Status::Error);
    RunOptions ok;
    EXPECT_EQ(parseCli(ok, {"--topology", "nvswitch", "--gpus", "64"}),
              Status::Ok);
    EXPECT_EQ(parseCli(ok, {"--topology", "hier", "--gpus", "128",
                            "--switch-radix", "8"}),
              Status::Ok);
}

} // anonymous namespace
} // namespace mgsec
