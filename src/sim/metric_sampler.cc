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
    names_.push_back(std::move(name));
    gauges_.push_back(std::move(g));
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
        addGauge(prefix + sc->name(),
                 [sc](Tick) { return sc->value(); });
    }
}

void
MetricSampler::start()
{
    MGSEC_ASSERT(!started_, "sampler already started");
    MGSEC_ASSERT(!gauges_.empty(), "no gauges registered");
    started_ = true;
    size_ = 0;
    head_ = 0;
}

void
MetricSampler::sampleAt(Tick t)
{
    MGSEC_ASSERT(started_, "sampleAt before start");
    std::size_t row;
    if (size_ < capacity_) {
        // Until the ring first fills, head_ stays 0 and rows are
        // appended: storage grows with the rows actually taken.
        row = size_++;
        if (ticks_.size() == ticks_.capacity()) {
            const std::size_t rows =
                std::min(capacity_, std::max<std::size_t>(
                                        16, 2 * ticks_.capacity()));
            ticks_.reserve(rows);
            values_.reserve(rows * gauges_.size());
        }
        ticks_.resize(size_);
        values_.resize(size_ * gauges_.size());
    } else {
        row = head_;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
    ticks_[row] = t;
    double *vals = values_.data() + row * gauges_.size();
    for (std::size_t c = 0; c < gauges_.size(); ++c)
        vals[c] = gauges_[c](t);
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
    return ticks_[rowIndex(i)];
}

double
MetricSampler::valueAt(std::size_t i, std::size_t col) const
{
    MGSEC_ASSERT(i < size_ && col < gauges_.size(),
                 "sample (%zu, %zu) out of range", i, col);
    return values_[rowIndex(i) * gauges_.size() + col];
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
        w.beginArray();
        w.value(static_cast<std::uint64_t>(tickAt(i)));
        for (std::size_t c = 0; c < gauges_.size(); ++c)
            w.value(valueAt(i, c));
        w.endArray();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace mgsec
