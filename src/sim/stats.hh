/**
 * @file
 * Lightweight statistics package (a small cousin of gem5's).
 *
 * Components own their stats as members and register them with a
 * StatGroup so a whole system can be dumped uniformly. All stats are
 * plain value types; nothing here touches the event queue.
 */

#ifndef MGSEC_SIM_STATS_HH
#define MGSEC_SIM_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace mgsec
{
class JsonWriter;
} // namespace mgsec

namespace mgsec::stats
{

/** Base class: a named, described statistic that can print itself. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~Stat() = default;
    Stat(const Stat &) = default;
    Stat(Stat &&) = default;
    Stat &operator=(const Stat &) = default;
    Stat &operator=(Stat &&) = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os) const = 0;

    /**
     * Serialize as "name": {type, desc, ...} into the writer's
     * current object (names and descriptions are JSON-escaped).
     */
    virtual void dumpJson(JsonWriter &w) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A single accumulating value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void dump(std::ostream &os) const override;
    void dumpJson(JsonWriter &w) const override;
    void reset() override { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * HDR-style log-bucketed histogram over non-negative integer values
 * (latencies in cycles). Values below 2^kSubBits are counted
 * exactly; above that, each power-of-two tier is split into
 * 2^(kSubBits-1) sub-buckets, bounding the relative quantization
 * error of any percentile readout to 2^-(kSubBits-1) (~3%).
 * Recording is two array index computations and an increment — cheap
 * enough for per-packet hot-path use. Count/sum/min/max are exact.
 *
 * Buckets are stored only up to the highest one ever recorded,
 * merged or restored, growing a whole tier at a time: a histogram
 * that was built but never fed allocates nothing, and one of
 * latencies under 2^k cycles holds about 16 k buckets rather than
 * all numBuckets(). Buckets past the stored prefix read 0.
 */
class Histogram : public Stat
{
  public:
    /** Sub-bucket resolution: 32 exact values, 16 buckets per tier. */
    static constexpr unsigned kSubBits = 5;
    static constexpr std::uint64_t kSubCount = 1ull << kSubBits;

    Histogram(std::string name, std::string desc);

    void record(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minSeen() const { return min_seen_; }
    std::uint64_t maxSeen() const { return max_seen_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    /**
     * Value at percentile p in [0, 100], linearly interpolated
     * within its bucket and clamped to [minSeen, maxSeen].
     */
    double percentile(double p) const;

    /** Fold another histogram's samples into this one. */
    void merge(const Histogram &other);

    /**
     * Rebuild from serialized state — the JSON round-trip path used
     * by mgsec_report. @p buckets holds (bucketLo, count) pairs.
     */
    void restore(std::uint64_t count, std::uint64_t sum,
                 std::uint64_t min, std::uint64_t max,
                 const std::vector<
                     std::pair<std::uint64_t, std::uint64_t>> &buckets);

    /** @name Bucket geometry (exposed for tests and analyzers). */
    /// @{
    static std::size_t bucketIndex(std::uint64_t v);
    static std::uint64_t bucketLo(std::size_t idx);
    /** Exclusive upper bound of bucket idx. */
    static std::uint64_t bucketHi(std::size_t idx);
    static std::size_t numBuckets();
    /// @}
    std::uint64_t
    bucket(std::size_t idx) const
    {
        return idx < buckets_.size() ? buckets_[idx] : 0;
    }
    /** Buckets currently stored (the prefix the samples reach). */
    std::size_t storedBuckets() const { return buckets_.size(); }

    void dump(std::ostream &os) const override;
    void dumpJson(JsonWriter &w) const override;
    void reset() override;

  private:
    /** Store buckets [0, idx], rounded up to the end of idx's tier. */
    void cover(std::size_t idx);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_seen_ = 0;
    std::uint64_t max_seen_ = 0;
};

/** A registry of stats that dumps them in registration order. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Register a stat the caller keeps ownership of. */
    void add(Stat &s) { stats_.push_back(&s); }
    /** Merge in all stats of another group (by reference). */
    void addGroup(const StatGroup &g);

    /** Dump all stats, each line prefixed with the group name. */
    void dump(std::ostream &os) const;
    /**
     * Serialize as "<group>": {"<stat>": {...}, ...} into the
     * writer's current object (an unnamed group uses key "stats").
     */
    void dumpJson(JsonWriter &w) const;
    void resetAll();

    const std::vector<Stat *> &all() const { return stats_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Stat *> stats_;
};

} // namespace mgsec::stats

#endif // MGSEC_SIM_STATS_HH
