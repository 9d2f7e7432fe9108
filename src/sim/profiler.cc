#include "sim/profiler.hh"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace mgsec
{

namespace
{

const char *const kPhaseNames[kProfNumPhases] = {
    "serialExec",   "domainExec", "barrierWait",
    "captureReplay", "metricFlush", "sinkFlush",
    "cryptoSeal",   "cryptoOpen", "padGen",
};

} // anonymous namespace

const char *
profPhaseName(unsigned phase)
{
    MGSEC_ASSERT(phase < kProfNumPhases, "bad profiler phase");
    return kPhaseNames[phase];
}

std::uint64_t
Profiler::nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Profiler::Profiler(unsigned workers, unsigned domains)
    : workers_(std::max(1u, workers)),
      domains_(std::max(1u, domains))
{
    lanes_.resize(workers_);
    for (Lane &l : lanes_) {
        l.hist.reserve(kProfNumPhases);
        for (unsigned p = 0; p < kProfNumPhases; ++p)
            l.hist.emplace_back("", "");
    }
    phase_hist_.reserve(kProfNumPhases);
    for (unsigned p = 0; p < kProfNumPhases; ++p)
        phase_hist_.emplace_back(kPhaseNames[p],
                                 std::string("wall ns spent in ") +
                                     kPhaseNames[p]);
    domain_busy_.assign(domains_, 0);
    domain_events_.assign(domains_, 0);
    domain_windows_.assign(domains_, 0);
    window_busy_.assign(domains_, 0);
}

void
Profiler::start()
{
    if (started_)
        return;
    started_ = true;
    t_start_ = nowNs();
}

void
Profiler::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!started_)
        start();
    t_end_ = nowNs();
    for (Lane &l : lanes_) {
        for (unsigned p = 0; p < kProfNumPhases; ++p)
            phase_hist_[p].merge(l.hist[p]);
    }
}

void
Profiler::record(unsigned lane, ProfPhase phase, std::uint64_t t0,
                 std::uint64_t t1)
{
    Lane &l = lanes_[lane];
    const std::uint64_t dt = t1 >= t0 ? t1 - t0 : 0;
    l.hist[phase].record(dt);
}

void
Profiler::domainExec(DomainId d, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t events)
{
    const unsigned l = lane(d);
    record(l, kProfDomainExec, t0, t1);
    const std::uint64_t dt = t1 >= t0 ? t1 - t0 : 0;
    lanes_[l].busyNs += dt;
    lanes_[l].events += events;
    domain_busy_[d] += dt;
    domain_events_[d] += events;
    ++domain_windows_[d];
    window_busy_[d] += dt;
}

void
Profiler::barrierEpilogue()
{
    ++windows_;
    std::uint64_t max_busy = 0, total = 0, active = 0;
    for (std::uint64_t &b : window_busy_) {
        if (b > 0) {
            max_busy = std::max(max_busy, b);
            total += b;
            ++active;
            b = 0;
        }
    }
    sum_max_busy_ += max_busy;
    sum_busy_ += total;
    active_domain_windows_ += active;
}

std::int64_t
Profiler::activeSpans() const
{
    std::int64_t n = 0;
    for (const Lane &l : lanes_)
        n += l.depth;
    return n;
}

std::uint64_t
Profiler::totalSpans() const
{
    std::uint64_t n = 0;
    for (const Lane &l : lanes_)
        for (unsigned p = 0; p < kProfNumPhases; ++p)
            n += l.hist[p].count();
    return n;
}

std::uint64_t
Profiler::wallNs() const
{
    return t_end_ >= t_start_ ? t_end_ - t_start_ : 0;
}

double
Profiler::imbalance() const
{
    if (windows_ == 0 || active_domain_windows_ == 0 ||
        sum_busy_ == 0)
        return 0.0;
    const double max_mean = static_cast<double>(sum_max_busy_) /
                            static_cast<double>(windows_);
    const double busy_mean =
        static_cast<double>(sum_busy_) /
        static_cast<double>(active_domain_windows_);
    return busy_mean > 0.0 ? max_mean / busy_mean : 0.0;
}

double
Profiler::barrierFrac() const
{
    const double wait =
        static_cast<double>(phase_hist_[kProfBarrierWait].sum());
    const double exec =
        static_cast<double>(phase_hist_[kProfDomainExec].sum());
    const double denom = wait + exec;
    return denom > 0.0 ? wait / denom : 0.0;
}

double
Profiler::parallelEfficiencyPct() const
{
    const std::uint64_t wall = wallNs();
    if (wall == 0)
        return 0.0;
    std::uint64_t busy = 0;
    for (const Lane &l : lanes_)
        busy += l.busyNs;
    return 100.0 * static_cast<double>(busy) /
           (static_cast<double>(workers_) *
            static_cast<double>(wall));
}

const char *
Profiler::topStallPhase() const
{
    std::uint64_t best = 0;
    unsigned idx = kProfNumPhases;
    for (unsigned p = 0; p < kProfNumPhases; ++p) {
        if (p == kProfDomainExec)
            continue;
        const std::uint64_t s = phase_hist_[p].sum();
        if (s > best) {
            best = s;
            idx = p;
        }
    }
    return idx < kProfNumPhases ? kPhaseNames[idx] : "none";
}

void
Profiler::writeJson(std::ostream &os)
{
    finish();
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", std::string("mgsec-prof-1"));
    w.field("threads", static_cast<std::uint64_t>(workers_));
    w.field("domains", static_cast<std::uint64_t>(domains_));
    w.field("wallNs", wallNs());
    w.field("spans", totalSpans());

    // Every phase is always present (zero-count ones included) so
    // consumers can key on the taxonomy without existence checks.
    w.key("phases");
    w.beginObject();
    for (unsigned p = 0; p < kProfNumPhases; ++p)
        phase_hist_[p].dumpJson(w);
    w.endObject();

    w.key("pdes");
    w.beginObject();
    w.field("windows", windows_);
    w.field("sumBusyNs", sum_busy_);
    w.field("sumMaxBusyNs", sum_max_busy_);
    w.field("activeDomainWindows", active_domain_windows_);
    w.field("imbalance", imbalance());
    w.field("barrierFrac", barrierFrac());
    w.field("parallelEfficiencyPct", parallelEfficiencyPct());
    w.field("topStallPhase", std::string(topStallPhase()));
    w.beginArray("workers");
    for (unsigned l = 0; l < workers_; ++l) {
        const std::uint64_t busy = lanes_[l].busyNs;
        w.beginObject();
        w.field("worker", static_cast<std::uint64_t>(l));
        w.field("events", lanes_[l].events);
        w.field("busyNs", busy);
        w.field("eventsPerSec",
                busy > 0 ? 1e9 * static_cast<double>(lanes_[l].events) /
                               static_cast<double>(busy)
                         : 0.0);
        w.endObject();
    }
    w.endArray();
    w.beginArray("domains");
    for (unsigned d = 0; d < domains_; ++d) {
        w.beginObject();
        w.field("domain", static_cast<std::uint64_t>(d));
        w.field("busyNs", domain_busy_[d]);
        w.field("events", domain_events_[d]);
        w.field("windowsActive", domain_windows_[d]);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    os << "\n";
}

} // namespace mgsec
