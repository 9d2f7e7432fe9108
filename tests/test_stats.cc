/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "core/json_in.hh"
#include "sim/json_writer.hh"
#include "sim/stats.hh"

using namespace mgsec;
using namespace mgsec::stats;

TEST(ScalarStat, AccumulatesAndResets)
{
    Scalar s("s", "a scalar");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(ScalarStat, SetOverwrites)
{
    Scalar s("s", "d");
    s += 10.0;
    s.set(4.0);
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
}

TEST(ScalarStat, DumpContainsNameAndDesc)
{
    Scalar s("myStat", "my description");
    s += 7;
    std::ostringstream os;
    s.dump(os);
    EXPECT_NE(os.str().find("myStat"), std::string::npos);
    EXPECT_NE(os.str().find("my description"), std::string::npos);
    EXPECT_NE(os.str().find("7"), std::string::npos);
}

TEST(StatGroup, DumpsAllRegisteredStats)
{
    StatGroup g("grp");
    Scalar a("alpha", "first");
    Scalar b("beta", "second");
    g.add(a);
    g.add(b);
    a += 1;
    b += 2;
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("beta"), std::string::npos);
}

TEST(StatGroup, ResetAllResetsMembers)
{
    StatGroup g;
    Scalar a("a", "x");
    g.add(a);
    a += 5;
    g.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
}

TEST(StatGroup, AddGroupMergesReferences)
{
    StatGroup inner("inner");
    Scalar a("a", "x");
    inner.add(a);
    StatGroup outer("outer");
    outer.addGroup(inner);
    EXPECT_EQ(outer.all().size(), 1u);
    EXPECT_EQ(outer.all()[0], &a);
}

// --------------------------------------------------------------------
// Histogram: HDR-style log-bucketed latency histogram.
// --------------------------------------------------------------------

TEST(HistogramStat, SmallValuesAreExactBuckets)
{
    // Below kSubCount every integer owns its own bucket.
    for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketLo(v), v);
        EXPECT_EQ(Histogram::bucketHi(v), v + 1);
    }
}

TEST(HistogramStat, BucketGeometryIsContiguousAndSelfConsistent)
{
    for (std::size_t i = 0; i + 1 < Histogram::numBuckets(); ++i) {
        const std::uint64_t lo = Histogram::bucketLo(i);
        const std::uint64_t hi = Histogram::bucketHi(i);
        ASSERT_LT(lo, hi);
        // Adjacent buckets tile the axis with no gap or overlap.
        EXPECT_EQ(Histogram::bucketLo(i + 1), hi);
        // Both edges of the bucket map back to its own index.
        EXPECT_EQ(Histogram::bucketIndex(lo), i);
        EXPECT_EQ(Histogram::bucketIndex(hi - 1), i);
    }
    EXPECT_EQ(Histogram::bucketIndex(~0ull),
              Histogram::numBuckets() - 1);
}

TEST(HistogramStat, CountSumMinMaxAreExact)
{
    Histogram h("h", "x");
    h.record(3);
    h.record(1ull << 40);
    h.record(7, 3);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 3u + (1ull << 40) + 21u);
    EXPECT_EQ(h.minSeen(), 3u);
    EXPECT_EQ(h.maxSeen(), 1ull << 40);
    EXPECT_DOUBLE_EQ(h.mean(),
                     static_cast<double>(h.sum()) / 5.0);
}

TEST(HistogramStat, WeightedSamples)
{
    // A weighted record alone: four samples of 3 in 3's bucket.
    Histogram w("w", "x");
    w.record(3, 4);
    EXPECT_EQ(w.count(), 4u);
    EXPECT_DOUBLE_EQ(w.mean(), 3.0);
    EXPECT_EQ(w.bucket(Histogram::bucketIndex(3)), 4u);
}

TEST(HistogramStat, PercentilesInterpolateAndClamp)
{
    Histogram h("h", "x");
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 31.0);
    const double p50 = h.percentile(50);
    EXPECT_GE(p50, 14.0);
    EXPECT_LE(p50, 17.0);
    // Monotone in p.
    double prev = 0.0;
    for (double p = 0; p <= 100; p += 2.5) {
        const double v = h.percentile(p);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, 31.0);
        prev = v;
    }
}

TEST(HistogramStat, PercentileOfEmptyAndSingleton)
{
    Histogram h("h", "x");
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
    h.record(12345);
    EXPECT_DOUBLE_EQ(h.percentile(1), 12345.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 12345.0);
}

TEST(HistogramStat, MergeAddsBuckets)
{
    Histogram a("a", "x"), b("b", "x");
    a.record(5);
    a.record(1000);
    b.record(5, 2);
    b.record(1ull << 33);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.sum(), 5u + 1000u + 10u + (1ull << 33));
    EXPECT_EQ(a.minSeen(), 5u);
    EXPECT_EQ(a.maxSeen(), 1ull << 33);
    EXPECT_EQ(a.bucket(5), 3u);
}

TEST(HistogramStat, MergeIntoEmptyTakesOtherExtremes)
{
    Histogram a("a", "x"), b("b", "x");
    b.record(17);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.minSeen(), 17u);
    EXPECT_EQ(a.maxSeen(), 17u);
}

TEST(HistogramStat, JsonRoundTripRestoresEverything)
{
    Histogram h("lat", "round trip");
    // Values stay below 2^40 so count/sum survive the double-typed
    // JSON number representation exactly (5000 * 2^40 < 2^53).
    std::mt19937_64 rng(7);
    for (int i = 0; i < 5000; ++i)
        h.record(rng() % (1ull << (rng() % 41)));

    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        h.dumpJson(w);
        w.endObject();
    }
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(os.str(), doc, err)) << err;
    const JsonValue *j = doc.find("lat");
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(j->find("type")->string, "histogram");

    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    for (const JsonValue &pair : j->find("buckets")->items)
        buckets.emplace_back(
            static_cast<std::uint64_t>(pair.items[0].number),
            static_cast<std::uint64_t>(pair.items[1].number));
    Histogram r("lat", "restored");
    r.restore(static_cast<std::uint64_t>(j->find("count")->number),
              static_cast<std::uint64_t>(j->find("sum")->number),
              static_cast<std::uint64_t>(j->find("min")->number),
              static_cast<std::uint64_t>(j->find("max")->number),
              buckets);

    EXPECT_EQ(r.count(), h.count());
    EXPECT_EQ(r.sum(), h.sum());
    EXPECT_EQ(r.minSeen(), h.minSeen());
    EXPECT_EQ(r.maxSeen(), h.maxSeen());
    for (std::size_t i = 0; i < Histogram::numBuckets(); ++i)
        ASSERT_EQ(r.bucket(i), h.bucket(i)) << "bucket " << i;
    for (double p : {50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(r.percentile(p), h.percentile(p));
}

TEST(HistogramStat, ResetClearsEverything)
{
    Histogram h("h", "x");
    h.record(9, 4);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.bucket(9), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

namespace
{

/**
 * The eager reference: every bucket stored from the start, with the
 * record/merge/restore/percentile rules the Histogram documents.
 */
struct EagerHistogram
{
    std::vector<std::uint64_t> buckets =
        std::vector<std::uint64_t>(Histogram::numBuckets(), 0);
    std::uint64_t count = 0, sum = 0, min = 0, max = 0;

    void
    extremes(std::uint64_t lo, std::uint64_t hi)
    {
        min = count ? std::min(min, lo) : lo;
        max = count ? std::max(max, hi) : hi;
    }

    void
    record(std::uint64_t v, std::uint64_t n)
    {
        if (n == 0)
            return;
        extremes(v, v);
        count += n;
        sum += v * n;
        buckets[Histogram::bucketIndex(v)] += n;
    }

    void
    merge(const EagerHistogram &o)
    {
        if (o.count == 0)
            return;
        extremes(o.min, o.max);
        count += o.count;
        sum += o.sum;
        for (std::size_t i = 0; i < buckets.size(); ++i)
            buckets[i] += o.buckets[i];
    }

    double
    percentile(double p) const
    {
        if (count == 0)
            return 0.0;
        if (p <= 0.0)
            return static_cast<double>(min);
        if (p >= 100.0)
            return static_cast<double>(max);
        const double target = p / 100.0 * static_cast<double>(count);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            const std::uint64_t b = buckets[i];
            if (b == 0)
                continue;
            if (static_cast<double>(cum + b) >= target) {
                const double lo =
                    static_cast<double>(Histogram::bucketLo(i));
                const double hi =
                    static_cast<double>(Histogram::bucketHi(i));
                const double v =
                    lo + (target - static_cast<double>(cum)) /
                             static_cast<double>(b) * (hi - lo);
                return std::clamp(v, static_cast<double>(min),
                                  static_cast<double>(max));
            }
            cum += b;
        }
        return static_cast<double>(max);
    }
};

/** A value of @p rng's choosing, spread over every tier. */
std::uint64_t
anyValue(std::mt19937_64 &rng, unsigned max_bits)
{
    const unsigned bits = static_cast<unsigned>(rng() % (max_bits + 1));
    return bits == 64 ? rng() : rng() % (std::uint64_t{1} << bits);
}

void
expectSame(const Histogram &lazy, const EagerHistogram &eager,
           const char *what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(lazy.count(), eager.count);
    ASSERT_EQ(lazy.sum(), eager.sum);
    ASSERT_EQ(lazy.minSeen(), eager.min);
    ASSERT_EQ(lazy.maxSeen(), eager.max);
    // Past the stored prefix, and past the geometry, buckets read 0.
    for (std::size_t i = 0; i < Histogram::numBuckets() + 8; ++i) {
        const std::uint64_t want =
            i < eager.buckets.size() ? eager.buckets[i] : 0;
        ASSERT_EQ(lazy.bucket(i), want) << "bucket " << i;
    }
    for (double p : {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9,
                     100.0})
        ASSERT_EQ(lazy.percentile(p), eager.percentile(p)) << p;
}

} // anonymous namespace

TEST(HistogramStat, LazyBucketsMatchAnEagerOracle)
{
    std::mt19937_64 rng(25);
    for (int round = 0; round < 200; ++round) {
        // Unequal ranges: a's values reach 2^bits_a, b's 2^bits_b.
        const unsigned bits_a = static_cast<unsigned>(rng() % 65);
        const unsigned bits_b = static_cast<unsigned>(rng() % 65);
        Histogram a("a", "x"), b("b", "x");
        EagerHistogram ea, eb;
        EXPECT_EQ(a.storedBuckets(), 0u);
        const int na = static_cast<int>(rng() % 50);
        for (int i = 0; i < na; ++i) {
            const std::uint64_t v = anyValue(rng, bits_a);
            const std::uint64_t n = rng() % 4;
            a.record(v, n);
            ea.record(v, n);
        }
        const int nb = static_cast<int>(rng() % 50);
        for (int i = 0; i < nb; ++i) {
            const std::uint64_t v = anyValue(rng, bits_b);
            b.record(v, 1);
            eb.record(v, 1);
        }
        expectSame(a, ea, "record");
        expectSame(b, eb, "record b");
        EXPECT_LE(a.storedBuckets(), Histogram::numBuckets());
        if (ea.count) {
            EXPECT_GT(a.storedBuckets(),
                      Histogram::bucketIndex(ea.max));
        }

        a.merge(b);
        ea.merge(eb);
        expectSame(a, ea, "merge");
        // Merging the other way round: the smaller into the larger
        // and vice versa must agree.
        b.merge(a);
        eb.merge(ea);
        expectSame(b, eb, "merge back");

        // Restore from the non-zero (bucketLo, count) pairs, as
        // mgsec_report reads a dump back.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
        for (std::size_t i = 0; i < ea.buckets.size(); ++i)
            if (ea.buckets[i])
                pairs.emplace_back(Histogram::bucketLo(i),
                                   ea.buckets[i]);
        Histogram r("r", "x");
        r.record(anyValue(rng, 64)); // restore replaces, not adds
        r.restore(ea.count, ea.sum, ea.min, ea.max, pairs);
        expectSame(r, ea, "restore");

        // Same dump bytes as the histogram it was restored from.
        std::ostringstream da, dr;
        {
            JsonWriter wa(da), wr(dr);
            wa.beginObject();
            a.dumpJson(wa);
            wa.endObject();
            wr.beginObject();
            r.dumpJson(wr);
            wr.endObject();
        }
        EXPECT_EQ(da.str().substr(da.str().find("\"count\"")),
                  dr.str().substr(dr.str().find("\"count\"")));

        a.reset();
        expectSame(a, EagerHistogram{}, "reset");
        const std::uint64_t v = anyValue(rng, 64);
        a.record(v);
        EagerHistogram one;
        one.record(v, 1);
        expectSame(a, one, "record after reset");
    }
}
