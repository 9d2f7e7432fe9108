#include "sim/metric_sampler.hh"

#include <algorithm>
#include <ostream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace mgsec
{

MetricSampler::MetricSampler(Cycles interval, std::size_t capacity)
    : interval_(interval), capacity_(capacity)
{
    MGSEC_ASSERT(interval_ > 0, "sample interval must be positive");
    MGSEC_ASSERT(capacity_ > 0, "ring capacity must be positive");
}

void
MetricSampler::addGauge(std::string name, Gauge g)
{
    MGSEC_ASSERT(!started_, "cannot add gauges after start()");
    MGSEC_ASSERT(g != nullptr, "null gauge '%s'", name.c_str());
    addBlock({std::move(name)},
             [g = std::move(g)](Tick t, double *out) { *out = g(t); });
}

void
MetricSampler::addBlock(std::vector<std::string> names,
                        BlockReader read)
{
    MGSEC_ASSERT(!started_, "cannot add gauges after start()");
    MGSEC_ASSERT(read != nullptr, "null block reader");
    if (names.empty())
        return;
    readers_.push_back({names.size(), std::move(read)});
    for (std::string &n : names)
        names_.push_back(std::move(n));
}

void
MetricSampler::addScalars(const stats::StatGroup &g)
{
    const std::string prefix =
        g.name().empty() ? std::string() : g.name() + ".";
    for (const stats::Stat *s : g.all()) {
        const auto *sc = dynamic_cast<const stats::Scalar *>(s);
        if (!sc)
            continue;
        addBlock({prefix + sc->name()},
                 [sc](Tick, double *out) { *out = sc->value(); });
    }
}

void
MetricSampler::start()
{
    MGSEC_ASSERT(!started_, "sampler already started");
    MGSEC_ASSERT(!readers_.empty(), "no gauges registered");
    started_ = true;
    size_ = 0;
    head_ = 0;
    block_rows_ = std::min(
        capacity_,
        std::max<std::size_t>(
            1, kBlockBytes / (names_.size() * sizeof(double))));
}

Tick &
MetricSampler::tickOf(std::size_t row) const
{
    return blocks_[row / block_rows_].ticks[row % block_rows_];
}

double *
MetricSampler::valuesOf(std::size_t row) const
{
    return blocks_[row / block_rows_].values.get() +
           row % block_rows_ * names_.size();
}

void
MetricSampler::sampleAt(Tick t)
{
    MGSEC_ASSERT(started_, "sampleAt before start");
    std::size_t row;
    if (size_ < capacity_) {
        // Until the ring first fills, head_ stays 0 and rows are
        // appended: a block is allocated when its first row is
        // taken (the last one only as large as the capacity needs).
        row = size_++;
        if (row == blocks_.size() * block_rows_) {
            const std::size_t rows =
                std::min(block_rows_, capacity_ - row);
            blocks_.push_back(
                {std::make_unique_for_overwrite<Tick[]>(rows),
                 std::make_unique_for_overwrite<double[]>(
                     rows * names_.size())});
        }
    } else {
        row = head_;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
    tickOf(row) = t;
    double *v = valuesOf(row);
    for (const Reader &r : readers_) {
        r.read(t, v);
        v += r.width;
    }
}

std::size_t
MetricSampler::rowIndex(std::size_t i) const
{
    return (head_ + i) % capacity_;
}

Tick
MetricSampler::tickAt(std::size_t i) const
{
    MGSEC_ASSERT(i < size_, "sample row %zu out of range", i);
    return tickOf(rowIndex(i));
}

double
MetricSampler::valueAt(std::size_t i, std::size_t col) const
{
    MGSEC_ASSERT(i < size_ && col < names_.size(),
                 "sample (%zu, %zu) out of range", i, col);
    return valuesOf(rowIndex(i))[col];
}

void
MetricSampler::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("interval", static_cast<std::uint64_t>(interval_));
    w.field("capacity", static_cast<std::uint64_t>(capacity_));
    w.field("samples", static_cast<std::uint64_t>(size_));
    w.field("dropped", dropped_);
    w.beginArray("columns");
    for (const std::string &n : names_)
        w.value(n);
    w.endArray();
    // Each row is [tick, v0, v1, ...]; ticks are exact integers.
    w.beginArray("data");
    for (std::size_t i = 0; i < size_; ++i) {
        const std::size_t row = rowIndex(i);
        w.beginArray();
        w.value(static_cast<std::uint64_t>(tickOf(row)));
        w.values(valuesOf(row), names_.size());
        w.endArray();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace mgsec
