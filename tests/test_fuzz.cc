/**
 * @file
 * Tests for the mgsec_fuzz core: repro-string round-trips, campaign
 * determinism, coverage accounting, and shrinking of an injected
 * failure down to a minimal configuration.
 */

#include <gtest/gtest.h>

#include "secure/batching.hh"
#include "verify/fuzz.hh"

namespace mgsec::verify
{
namespace
{

TestbedConfig
sampleConfig()
{
    TestbedConfig cfg;
    cfg.numNodes = 4;
    cfg.scheme = OtpScheme::Cached;
    cfg.batching = true;
    cfg.batchSize = 5;
    cfg.messages = 37;
    cfg.requestPercent = 11;
    cfg.gap = 42;
    cfg.seed = 123456789ULL;
    cfg.bug = SeededBug::StaleCipher;
    cfg.bugTrigger = 6;
    cfg.script = {{AttackClass::Replay, 3, 1500},
                  {AttackClass::PayloadFlip, 7, 200}};
    return cfg;
}

TEST(Repro, RoundTripsEveryField)
{
    const TestbedConfig cfg = sampleConfig();
    const std::string text = encodeRepro(cfg);

    TestbedConfig back;
    ASSERT_TRUE(decodeRepro(text, back)) << text;
    EXPECT_EQ(back.numNodes, cfg.numNodes);
    EXPECT_EQ(back.scheme, cfg.scheme);
    EXPECT_EQ(back.batching, cfg.batching);
    EXPECT_EQ(back.batchSize, cfg.batchSize);
    EXPECT_EQ(back.messages, cfg.messages);
    EXPECT_EQ(back.requestPercent, cfg.requestPercent);
    EXPECT_EQ(back.gap, cfg.gap);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.bug, cfg.bug);
    EXPECT_EQ(back.bugTrigger, cfg.bugTrigger);
    ASSERT_EQ(back.script.size(), cfg.script.size());
    for (std::size_t i = 0; i < cfg.script.size(); ++i) {
        EXPECT_EQ(back.script[i].cls, cfg.script[i].cls);
        EXPECT_EQ(back.script[i].nth, cfg.script[i].nth);
        EXPECT_EQ(back.script[i].param, cfg.script[i].param);
    }
    // Encoding the decoded config reproduces the exact string.
    EXPECT_EQ(encodeRepro(back), text);
}

TEST(Repro, EmptyScriptRoundTrips)
{
    TestbedConfig cfg = sampleConfig();
    cfg.script.clear();
    TestbedConfig back;
    ASSERT_TRUE(decodeRepro(encodeRepro(cfg), back));
    EXPECT_TRUE(back.script.empty());
}

TEST(Repro, RejectsMalformedStrings)
{
    TestbedConfig out;
    EXPECT_FALSE(decodeRepro("", out));
    EXPECT_FALSE(decodeRepro("v2;seed=1", out));
    EXPECT_FALSE(decodeRepro("v1;bogus=1", out));
    EXPECT_FALSE(decodeRepro("v1;seed=abc", out));
    EXPECT_FALSE(decodeRepro("v1;nodes=1", out));
    EXPECT_FALSE(decodeRepro("v1;scheme=bogus", out));
    EXPECT_FALSE(decodeRepro("v1;script=NoSuchAttack@1/0", out));
    EXPECT_FALSE(decodeRepro("v1;script=Replay", out));
    EXPECT_FALSE(decodeRepro("v1;req=101", out));
}

TEST(Repro, BatchSizeMustFitTheLengthByte)
{
    // A batch declares its length in one byte, and the assembler
    // asserts on any size outside [2, 255]: the repro parser must
    // refuse those sizes rather than hand them to a run that aborts.
    const std::string prefix =
        "v1;seed=1;nodes=3;scheme=dynamic;batch=1;msgs=50;req=50;"
        "gap=10;bsz=";
    TestbedConfig out;
    for (const char *bad : {"0", "1", "256", "300"})
        EXPECT_FALSE(decodeRepro(prefix + bad, out)) << bad;
    ASSERT_TRUE(decodeRepro(prefix + "255", out));
    EXPECT_EQ(out.batchSize, kMaxBatchSize);
    EXPECT_FALSE(runCase(out).failed);
    ASSERT_TRUE(decodeRepro(prefix + "2", out));
    EXPECT_EQ(out.batchSize, kMinBatchSize);
    EXPECT_FALSE(runCase(out).failed);
}

TEST(Generator, SameSeedSameCases)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(encodeRepro(generateCase(a, SeededBug::None)),
                  encodeRepro(generateCase(b, SeededBug::None)));
    }
}

TEST(Generator, NeverScriptsDataDropForShared)
{
    // Shared-scheme mid-stream drops are the protocol's documented
    // blind spot (covered by a dedicated regression test); campaigns
    // must not trip over it.
    Rng rng(4242);
    for (int i = 0; i < 200; ++i) {
        const TestbedConfig cfg = generateCase(rng, SeededBug::None);
        if (cfg.scheme != OtpScheme::Shared)
            continue;
        for (const AttackStep &s : cfg.script)
            EXPECT_NE(s.cls, AttackClass::DataDrop)
                << encodeRepro(cfg);
    }
}

TEST(Campaign, DeterministicForFixedSeed)
{
    CampaignConfig cc;
    cc.seed = 7;
    cc.budgetSeconds = 0;
    cc.maxRuns = 12;
    const CampaignResult a = runCampaign(cc);
    const CampaignResult b = runCampaign(cc);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.attacksMounted, b.attacksMounted);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.repro, b.repro);
}

TEST(Campaign, CleanCampaignPassesAndCoversAttacks)
{
    CampaignConfig cc;
    cc.seed = 7;
    cc.budgetSeconds = 0;
    cc.maxRuns = 12;
    const CampaignResult r = runCampaign(cc);
    EXPECT_FALSE(r.failed) << r.repro;
    EXPECT_EQ(r.runs, 12u);
    EXPECT_GT(r.attacksMounted, 0u);
    EXPECT_GT(r.coverage, 0u);
}

TEST(Campaign, CatchesSeededBugAndShrinksIt)
{
    CampaignConfig cc;
    cc.seed = 3;
    cc.budgetSeconds = 0;
    cc.maxRuns = 10;
    cc.injectBug = SeededBug::CounterSkip;
    const CampaignResult r = runCampaign(cc);
    ASSERT_TRUE(r.failed);
    ASSERT_FALSE(r.repro.empty());
    ASSERT_FALSE(r.findings.empty());

    // The shrunk repro string must itself reproduce the failure.
    TestbedConfig cfg;
    ASSERT_TRUE(decodeRepro(r.repro, cfg)) << r.repro;
    EXPECT_EQ(cfg.bug, SeededBug::CounterSkip);
    const CaseOutcome oc = runCase(cfg);
    EXPECT_TRUE(oc.failed);
}

TEST(Shrink, ReducesAnInjectedFailure)
{
    // A deliberately bloated failing case: the seeded bug fires
    // regardless of the script and topology, so shrinking must strip
    // the irrelevant attack steps and cut traffic and nodes down.
    TestbedConfig big;
    big.numNodes = 4;
    big.scheme = OtpScheme::Private;
    big.messages = 64;
    big.requestPercent = 25;
    big.gap = 20;
    big.seed = 17;
    big.bug = SeededBug::StaleCipher;
    big.bugTrigger = 2;
    big.script = {{AttackClass::Replay, 2, 0},
                  {AttackClass::PayloadFlip, 5, 44},
                  {AttackClass::AckDup, 0, 0}};
    ASSERT_TRUE(runCase(big).failed);

    std::uint32_t used = 0;
    const TestbedConfig small = shrinkCase(big, &used);
    EXPECT_GT(used, 0u);
    EXPECT_TRUE(runCase(small).failed) << encodeRepro(small);
    EXPECT_TRUE(small.script.empty()) << encodeRepro(small);
    EXPECT_LT(small.messages, big.messages);
    // Topology and request mix may be load-bearing for when the bug
    // trigger fires; the shrinker only drops what still fails.
    EXPECT_LE(small.numNodes, big.numNodes);
    EXPECT_LE(small.requestPercent, big.requestPercent);
}

} // anonymous namespace
} // namespace mgsec::verify
