#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>

#include "sim/json_writer.hh"

namespace mgsec::stats
{

void
Scalar::dump(std::ostream &os) const
{
    os << name() << " " << value_ << " # " << desc() << "\n";
}

void
Scalar::dumpJson(JsonWriter &w) const
{
    w.key(name());
    w.beginObject();
    w.field("type", std::string("scalar"));
    w.field("desc", desc());
    w.field("value", value_);
    w.endObject();
}

Histogram::Histogram(std::string name, std::string desc)
    : Stat(std::move(name), std::move(desc))
{
}

void
Histogram::cover(std::size_t idx)
{
    if (idx < buckets_.size())
        return;
    // The exact range is one block of kSubCount; each tier above it
    // adds kSubCount / 2 buckets.
    constexpr std::size_t kTier = kSubCount / 2;
    const std::size_t n = std::min(
        numBuckets(),
        std::max<std::size_t>(kSubCount, (idx / kTier + 1) * kTier));
    buckets_.reserve(n);
    buckets_.resize(n, 0);
}

std::size_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < kSubCount)
        return static_cast<std::size_t>(v);
    // Tier t covers [2^(kSubBits+t-1), 2^(kSubBits+t)) in kSubCount/2
    // sub-buckets of width 2^t each.
    const unsigned msb = std::bit_width(v) - 1;
    const unsigned tier = msb - (kSubBits - 1);
    const std::uint64_t top = v >> tier; // in [kSubCount/2, kSubCount)
    return static_cast<std::size_t>(tier * (kSubCount / 2) + top);
}

std::uint64_t
Histogram::bucketLo(std::size_t idx)
{
    if (idx < kSubCount)
        return idx;
    const std::size_t tier = idx / (kSubCount / 2) - 1;
    const std::uint64_t top = idx - tier * (kSubCount / 2);
    return top << tier;
}

std::uint64_t
Histogram::bucketHi(std::size_t idx)
{
    if (idx < kSubCount)
        return idx + 1;
    const std::size_t tier = idx / (kSubCount / 2) - 1;
    const std::uint64_t top = idx - tier * (kSubCount / 2);
    return (top + 1) << tier;
}

std::size_t
Histogram::numBuckets()
{
    // 64-bit values top out at tier 64 - kSubBits.
    return bucketIndex(~0ull) + 1;
}

void
Histogram::record(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (count_ == 0) {
        min_seen_ = v;
        max_seen_ = v;
    } else {
        min_seen_ = std::min(min_seen_, v);
        max_seen_ = std::max(max_seen_, v);
    }
    count_ += count;
    sum_ += v * count;
    const std::size_t idx = bucketIndex(v);
    cover(idx);
    buckets_[idx] += count;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(min_seen_);
    if (p >= 100.0)
        return static_cast<double>(max_seen_);
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t b = buckets_[i];
        if (b == 0)
            continue;
        if (static_cast<double>(cum + b) >= target) {
            const double frac =
                (target - static_cast<double>(cum)) /
                static_cast<double>(b);
            const double lo = static_cast<double>(bucketLo(i));
            const double hi = static_cast<double>(bucketHi(i));
            const double v = lo + frac * (hi - lo);
            return std::clamp(v, static_cast<double>(min_seen_),
                              static_cast<double>(max_seen_));
        }
        cum += b;
    }
    return static_cast<double>(max_seen_);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_seen_ = other.min_seen_;
        max_seen_ = other.max_seen_;
    } else {
        min_seen_ = std::min(min_seen_, other.min_seen_);
        max_seen_ = std::max(max_seen_, other.max_seen_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (!other.buckets_.empty())
        cover(other.buckets_.size() - 1);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
}

void
Histogram::restore(std::uint64_t count, std::uint64_t sum,
                   std::uint64_t min, std::uint64_t max,
                   const std::vector<
                       std::pair<std::uint64_t, std::uint64_t>> &buckets)
{
    reset();
    count_ = count;
    sum_ = sum;
    min_seen_ = min;
    max_seen_ = max;
    // bucketIndex(bucketLo(i)) == i, so the serialized lower bounds
    // land each count back in its original bucket.
    for (const auto &[lo, n] : buckets) {
        const std::size_t idx = bucketIndex(lo);
        cover(idx);
        buckets_[idx] += n;
    }
}

void
Histogram::dump(std::ostream &os) const
{
    os << name() << "::count " << count_ << " # " << desc() << "\n";
    os << name() << "::mean " << mean() << "\n";
    os << name() << "::p50 " << percentile(50.0) << "\n";
    os << name() << "::p90 " << percentile(90.0) << "\n";
    os << name() << "::p99 " << percentile(99.0) << "\n";
    os << name() << "::p99.9 " << percentile(99.9) << "\n";
    os << name() << "::max " << max_seen_ << "\n";
}

void
Histogram::dumpJson(JsonWriter &w) const
{
    w.key(name());
    w.beginObject();
    w.field("type", std::string("histogram"));
    w.field("desc", desc());
    w.field("count", count_);
    w.field("sum", sum_);
    w.field("mean", mean());
    w.field("min", min_seen_);
    w.field("max", max_seen_);
    w.field("p50", percentile(50.0));
    w.field("p90", percentile(90.0));
    w.field("p99", percentile(99.0));
    w.field("p999", percentile(99.9));
    w.beginArray("buckets");
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        w.beginArray();
        w.value(bucketLo(i));
        w.value(buckets_[i]);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_seen_ = 0;
    max_seen_ = 0;
}

void
StatGroup::addGroup(const StatGroup &g)
{
    for (Stat *s : g.all())
        stats_.push_back(s);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const Stat *s : stats_) {
        std::ostringstream tmp;
        s->dump(tmp);
        std::istringstream lines(tmp.str());
        std::string line;
        while (std::getline(lines, line)) {
            if (!name_.empty())
                os << name_ << ".";
            os << line << "\n";
        }
    }
}

void
StatGroup::dumpJson(JsonWriter &w) const
{
    w.key(name_.empty() ? "stats" : name_);
    w.beginObject();
    for (const Stat *s : stats_)
        s->dumpJson(w);
    w.endObject();
}

void
StatGroup::resetAll()
{
    for (Stat *s : stats_)
        s->reset();
}

} // namespace mgsec::stats
