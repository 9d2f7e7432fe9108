/**
 * @file
 * The figure spec and its checker: a doctored table must fail the law
 * or pin it breaks, checks fail a run only at the pinned settings, and
 * the printed figures do not depend on the job count.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/figures.hh"

using namespace mgsec;

namespace
{

const Figure &
spec(const std::string &name)
{
    for (const Figure &f : figureSpecs()) {
        if (f.name == name)
            return f;
    }
    ADD_FAILURE() << "no figure " << name;
    return figureSpecs().front();
}

/** The first failed check, or "" when every check holds. */
std::string
firstFailure(const Figure &f, const std::map<std::string, double> &v)
{
    for (const Check &c : checkFigure(f, v)) {
        if (!c.ok)
            return c.what;
    }
    return "";
}

/** Fig. 21's means as the pinned settings measure them. */
std::map<std::string, double>
fig21Values()
{
    return {{"Private(4x)", 1.1867},
            {"Private(16x)", 1.0819},
            {"Cached(4x)", 1.1391},
            {"Dynamic(4x)", 1.1565},
            {"Batching(4x)", 1.1218},
            {"Batching(4x) vs Private(4x)", 0.0547},
            {"Batching(4x) vs Cached(4x)", 0.0152}};
}

SweepArgs
smallArgs(unsigned jobs)
{
    SweepArgs a;
    a.scale = 0.05;
    a.seeds = 1;
    a.jobs = jobs;
    return a;
}

} // anonymous namespace

TEST(FigureSpec, EveryEntryIsWellFormed)
{
    std::set<std::string> names;
    for (const Figure &f : figureSpecs()) {
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
        EXPECT_FALSE(f.tables.empty()) << f.name;
        for (const Pin &p : f.pins) {
            EXPECT_GE(p.tol, 0.0) << f.name << " " << p.key;
            EXPECT_FALSE(std::isnan(p.paper) && std::isnan(p.expect))
                << f.name << " " << p.key;
            // A row held to our own value against a paper value is a
            // known deviation, and says why; a row that matches the
            // paper has nothing to explain.
            const bool deviation =
                !std::isnan(p.paper) && !std::isnan(p.expect);
            EXPECT_EQ(deviation, !p.why.empty()) << f.name << " " << p.key;
        }
        for (const Law &l : f.laws)
            EXPECT_EQ(l.slack > 0.0, l.text.find(" ~ ") != std::string::npos)
                << f.name << " " << l.text;
    }
    EXPECT_EQ(names,
              (std::set<std::string>{
                  "table1", "fig8", "fig9", "fig10", "fig11", "fig12",
                  "fig13_14", "fig15_16", "fig21", "fig22", "fig23",
                  "fig24_25", "fig26", "ablation_batch", "ablation_ewma",
                  "ablation_memprot", "scaleout"}));
}

TEST(FigureChecks, OursAbovePrivateBreaksTheOrderingLaw)
{
    const Figure &f = spec("fig21");
    auto v = fig21Values();
    EXPECT_EQ(firstFailure(f, v), "");

    v["Batching(4x)"] = 1.19; // Ours now above Private(4x)
    const std::vector<Check> cs = checkFigure(f, v);
    bool law_failed = false;
    for (const Check &c : cs) {
        if (c.what.rfind("Batching(4x) < Private(4x):", 0) == 0) {
            EXPECT_EQ(c.kind, "law");
            law_failed = !c.ok;
        }
    }
    EXPECT_TRUE(law_failed);
}

TEST(FigureChecks, RowOutsideItsToleranceFails)
{
    const Figure &f = spec("fig21");
    auto v = fig21Values();
    v["Private(4x)"] = 1.2149; // paper 1.195 +- 0.02: still inside
    EXPECT_EQ(firstFailure(f, v), "");
    v["Private(4x)"] = 1.2151;
    EXPECT_EQ(firstFailure(f, v).rfind("Private(4x) = 1.215, paper", 0), 0u);

    // A known deviation is held to our own value instead.
    v = fig21Values();
    v["Batching(4x)"] = 1.079; // the paper's value, our row's miss
    EXPECT_EQ(firstFailure(f, v).rfind("Batching(4x) = 1.079, pinned", 0),
              0u);

    // A missing value fails its checks rather than passing them.
    v = fig21Values();
    v.erase("Dynamic(4x)");
    EXPECT_NE(firstFailure(f, v), "");
}

TEST(FigureChecks, EnforcedOnlyAtThePinnedSettings)
{
    // Table I is closed form, so no simulation runs here.
    Figure doctored = spec("table1");
    doctored.pins.push_back({"4 GPUs 1x OTPs", 33, 0});
    const std::vector<const Figure *> figs{&doctored};

    const SweepArgs pinned;
    EXPECT_TRUE(pinnedSettings(pinned));
    std::ostringstream out, log;
    EXPECT_EQ(runFigures(figs, pinned, out, log), 1);
    EXPECT_NE(log.str().find("FAIL match: 4 GPUs 1x OTPs = 32"),
              std::string::npos)
        << log.str();

    const SweepArgs other = smallArgs(1);
    EXPECT_FALSE(pinnedSettings(other));
    std::ostringstream out2, log2;
    EXPECT_EQ(runFigures(figs, other, out2, log2), 0);
    EXPECT_NE(log2.str().find("FAIL"), std::string::npos);
    EXPECT_NE(log2.str().find("reported only"), std::string::npos);

    const std::vector<const Figure *> clean{&spec("table1")};
    std::ostringstream out3, log3;
    EXPECT_EQ(runFigures(clean, pinned, out3, log3), 0);
    EXPECT_EQ(out3.str(), out.str());
}

TEST(Figures, JobCountDoesNotChangeAByte)
{
    std::vector<const Figure *> all;
    for (const Figure &f : figureSpecs())
        all.push_back(&f);
    std::ostringstream one, four, log;
    EXPECT_EQ(runFigures(all, smallArgs(1), one, log), 0);
    EXPECT_EQ(runFigures(all, smallArgs(4), four, log), 0);
    EXPECT_EQ(one.str(), four.str());

    // A figure run alone prints what its section of the whole does.
    std::ostringstream fig9;
    EXPECT_EQ(runFigures({&spec("fig9")}, smallArgs(2), fig9, log), 0);
    EXPECT_NE(one.str().find("### fig9\n" + fig9.str() + "\n### fig10\n"),
              std::string::npos);
}
