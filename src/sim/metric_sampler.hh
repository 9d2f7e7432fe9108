/**
 * @file
 * Periodic time-series sampling of live simulation metrics.
 *
 * A MetricSampler owns a set of named columns, read by one-column
 * gauges or by block readers that fill a run of adjacent columns in
 * one call, and, once started, records one row of all of them per
 * sampleAt() call into a bounded ring buffer. The ring is a list of
 * fixed-size blocks of rows, each allocated when its first row is
 * taken and never moved or copied, so a short run never touches
 * capacity x columns doubles; once the ring has filled, sampling
 * reuses the blocks and no longer allocates. It
 * schedules nothing: the event kernel calls sampleAt() at every
 * `interval` boundary from its barrier phase, when every domain is
 * quiesced and gauges may read cross-domain state.
 * When the ring fills, the oldest rows are overwritten and counted
 * as dropped, so a long run degrades to "most recent window" rather
 * than unbounded memory. The collected series flush as one JSON
 * document (see writeJson) consumed by METRICS_<run>.json.
 *
 * The sampler is generic: it knows nothing about channels or pad
 * tables. core/system.cc registers the concrete gauges (one block per
 * pad table: pad-buffer occupancy per (pair, direction) and EWMA
 * weights; batch fill, replay span, in-flight packets) plus one
 * column per registered Scalar stat.
 */

#ifndef MGSEC_SIM_METRIC_SAMPLER_HH
#define MGSEC_SIM_METRIC_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mgsec
{

namespace stats { class StatGroup; }

/** Fixed-cadence gauge sampler with a bounded in-memory ring. */
class MetricSampler
{
  public:
    /** Reads one metric at the given sample tick. */
    using Gauge = std::function<double(Tick)>;
    /**
     * Reads a block's adjacent columns at the given sample tick into
     * out[0 .. width), in the order of the names it was added with.
     */
    using BlockReader = std::function<void(Tick, double *out)>;

    /** Bytes of row values one ring block holds (at least one row). */
    static constexpr std::size_t kBlockBytes = std::size_t{256} << 10;

    /**
     * @param interval  cycles between samples (> 0); the driver's
     *                  cadence, reported in the JSON.
     * @param capacity  ring rows kept in memory (> 0).
     */
    MetricSampler(Cycles interval, std::size_t capacity);

    /** Register a gauge column. Must precede start(). */
    void addGauge(std::string name, Gauge g);

    /**
     * Register adjacent columns @p names, all filled by one call of
     * @p read per sample. Must precede start().
     */
    void addBlock(std::vector<std::string> names, BlockReader read);

    /**
     * Register one column per Scalar stat in @p g, named
     * "<group>.<stat>". Histograms are skipped (they are not
     * meaningfully point-sampled).
     */
    void addScalars(const stats::StatGroup &g);

    /** Open the (empty) ring; no gauge may be added afterwards. */
    void start();

    /** Take one sample recorded at tick @p t. */
    void sampleAt(Tick t);

    Cycles interval() const { return interval_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t samples() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }
    const std::vector<std::string> &columns() const { return names_; }

    /** Rows per ring block (fixed at start()). */
    std::size_t blockRows() const { return block_rows_; }
    /** Ring blocks allocated so far. */
    std::size_t blocks() const { return blocks_.size(); }

    /** Tick of retained row @p i (0 = oldest retained). */
    Tick tickAt(std::size_t i) const;
    /** Value of column @p col in retained row @p i. */
    double valueAt(std::size_t i, std::size_t col) const;

    /**
     * Flush as one JSON object:
     * {interval, capacity, dropped, columns:[...],
     *  data:[[tick, v0, v1, ...], ...]}
     */
    void writeJson(std::ostream &os) const;

  private:
    /** A run of adjacent columns; a gauge is a run of width 1. */
    struct Reader
    {
        std::size_t width;
        BlockReader read;
    };

    /** block_rows_ rows: ticks[r] and values[r * columns + c]. */
    struct Block
    {
        std::unique_ptr<Tick[]> ticks;
        std::unique_ptr<double[]> values;
    };

    /** Ring row (0 .. capacity) of retained row @p i. */
    std::size_t rowIndex(std::size_t i) const;
    Tick &tickOf(std::size_t row) const;
    double *valuesOf(std::size_t row) const;

    Cycles interval_;
    std::size_t capacity_;
    bool started_ = false;

    std::vector<std::string> names_;
    std::vector<Reader> readers_;

    /**
     * Ring storage: ring row r lives in blocks_[r / block_rows_].
     * Blocks are appended as rows are first taken, up to capacity_
     * rows, then reused in place when the ring wraps.
     */
    std::vector<Block> blocks_;
    std::size_t block_rows_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SIM_METRIC_SAMPLER_HH
