/**
 * @file
 * Host-side self-profiler: where does the *simulator's* wall clock
 * go? Sim-tick observability (trace_sink, metric_sampler) answers
 * questions about the modeled machine; this answers questions about
 * the model itself — barrier waits, per-domain load imbalance,
 * capture replay, crypto, sink flushes.
 *
 * Design mirrors the other sinks: components reach the profiler
 * through EventQueue::profiler(), so a null pointer there is the
 * entire cost of disabled profiling (the zero-allocation hot path is
 * untouched and artifacts stay byte-identical). When enabled, spans
 * are RAII scopes (ProfSpan) recorded into per-lane histograms — one
 * lane per kernel worker, and domain d always records on lane
 * d % workers because the parallel kernel statically pins domain d
 * to worker d % threads, so every lane is written by exactly one
 * thread with no synchronization on the record path.
 *
 * Aggregation rides the existing stats::Histogram machinery: one
 * wall-time (nanosecond) histogram per (lane, phase), merged into
 * global per-phase histograms at finish(). The coordinator closes a
 * per-window imbalance ledger at each barrier (max/mean busy per
 * window, barrier-overhead fraction, events/s per worker) — workers
 * are parked at the barrier when it reads their window scratch, so
 * the kernel's own happens-before edges are the only fences needed.
 *
 * Wall-clock data never enters configKey, sim results, or any
 * deterministic artifact: the profiler writes only its own PROF JSON.
 */

#ifndef MGSEC_SIM_PROFILER_HH
#define MGSEC_SIM_PROFILER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mgsec
{

/**
 * The phase taxonomy. Fixed and enum-indexed so recording is an
 * array index, never a string lookup. cryptoSeal/cryptoOpen spans
 * enclose their padGen spans (nested RAII scopes), so those sums
 * overlap by design — the PROF schema documents this.
 */
enum ProfPhase : std::uint8_t
{
    kProfSerialExec = 0, ///< retired unsharded event loop (always 0)
    kProfDomainExec,     ///< per-window per-domain execution
    kProfBarrierWait,    ///< workers parked at window barriers
    kProfCaptureReplay,  ///< trace merges + replaying captured sends
    kProfMetricFlush,    ///< barrier-driven metric/comm samples
    kProfSinkFlush,      ///< end-of-run observability flush
    kProfCryptoSeal,     ///< functional pad-XOR + MAC on send
    kProfCryptoOpen,     ///< functional decrypt + MAC verify on recv
    kProfPadGen,         ///< AES-CTR message-pad derivation
    kProfNumPhases,
};

/** Stable lower-camel phase name ("barrierWait"), as in PROF JSON. */
const char *profPhaseName(unsigned phase);

class Profiler
{
  public:
    /**
     * @param workers kernel worker threads — one span lane each.
     * @param domains event domains — sizes the per-domain busy-time
     *        ledger.
     */
    Profiler(unsigned workers, unsigned domains);

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Monotonic host nanoseconds (process-wide steady_clock). */
    static std::uint64_t nowNs();

    unsigned workers() const { return workers_; }
    unsigned domains() const { return domains_; }

    /** Lane a span from domain @p d records on (d % workers). */
    unsigned lane(DomainId d) const { return d % workers_; }

    /** Stamp the run's wall-clock start; idempotent. */
    void start();
    /**
     * Seal the run: stamp the end, merge every lane's histograms
     * into the global per-phase ones. Idempotent; call before
     * writeJson().
     */
    void finish();

    /** @name Recording (hot path; each lane single-threaded) */
    /// @{
    /** A completed span of @p phase on @p lane over [t0, t1] ns. */
    void record(unsigned lane, ProfPhase phase, std::uint64_t t0,
                std::uint64_t t1);
    /** RAII bookkeeping: ProfSpan ctor/dtor call these. */
    void enter(unsigned lane) { ++lanes_[lane].depth; }
    void exit(unsigned lane) { --lanes_[lane].depth; }
    /**
     * One (domain, window) execution slice: records a domainExec
     * span and feeds the per-domain busy/event ledgers plus the
     * current window's imbalance scratch.
     */
    void domainExec(DomainId d, std::uint64_t t0, std::uint64_t t1,
                    std::uint64_t events);
    /// @}

    /**
     * Coordinator-only, at a window barrier (workers parked): close
     * the window's imbalance scratch.
     */
    void barrierEpilogue();

    /** @name Aggregates (read after finish()) */
    /// @{
    const stats::Histogram &phaseHist(unsigned phase) const
    {
        return phase_hist_[phase];
    }
    /** Open-span depth summed over lanes (0 once spans balance). */
    std::int64_t activeSpans() const;
    /** Spans recorded across all lanes and phases. */
    std::uint64_t totalSpans() const;
    std::uint64_t wallNs() const;
    std::uint64_t profiledWindows() const { return windows_; }
    std::uint64_t laneEvents(unsigned l) const
    {
        return lanes_[l].events;
    }
    std::uint64_t laneBusyNs(unsigned l) const
    {
        return lanes_[l].busyNs;
    }
    /** Per-window mean of (max busy / mean busy); 0 if no windows. */
    double imbalance() const;
    /** barrierWait / (barrierWait + exec) wall-time fraction. */
    double barrierFrac() const;
    /** Aggregate busy / (workers x wall), as a percentage. */
    double parallelEfficiencyPct() const;
    /** Largest non-exec phase by total wall time. */
    const char *topStallPhase() const;
    /// @}

    /**
     * Write the PROF_<hash>.json document ("mgsec-prof-1" schema):
     * per-phase wall-time histograms and the PDES efficiency ledger.
     * Calls finish() if the caller has not.
     */
    void writeJson(std::ostream &os);

  private:
    struct Lane
    {
        /** One wall-time histogram per phase (merged at finish). */
        std::vector<stats::Histogram> hist;
        /** Open-span depth (RAII balance check). */
        std::int64_t depth = 0;
        /** Events executed by this worker. */
        std::uint64_t events = 0;
        /** Execution (domainExec) wall time. */
        std::uint64_t busyNs = 0;
    };

    unsigned workers_;
    unsigned domains_;
    std::vector<Lane> lanes_;
    std::vector<stats::Histogram> phase_hist_;

    /** @name Per-domain busy ledger (writer: owning worker only) */
    /// @{
    std::vector<std::uint64_t> domain_busy_;
    std::vector<std::uint64_t> domain_events_;
    std::vector<std::uint64_t> domain_windows_;
    /** Current window's busy scratch, reset by barrierEpilogue(). */
    std::vector<std::uint64_t> window_busy_;
    /// @}

    /** @name Window ledger (coordinator only) */
    /// @{
    std::uint64_t windows_ = 0;
    std::uint64_t sum_max_busy_ = 0;
    std::uint64_t sum_busy_ = 0;
    std::uint64_t active_domain_windows_ = 0;
    /// @}

    std::uint64_t t_start_ = 0;
    std::uint64_t t_end_ = 0;
    bool started_ = false;
    bool finished_ = false;
};

/**
 * RAII scoped span. A null profiler pointer makes construction and
 * destruction free (no clock reads) — the call sites' entire
 * disabled cost is the pointer test.
 */
class ProfSpan
{
  public:
    ProfSpan(Profiler *p, DomainId domain, ProfPhase phase)
        : p_(p), phase_(phase)
    {
        if (p_) {
            lane_ = p_->lane(domain);
            p_->enter(lane_);
            t0_ = Profiler::nowNs();
        }
    }

    ProfSpan(const ProfSpan &) = delete;
    ProfSpan &operator=(const ProfSpan &) = delete;

    ~ProfSpan()
    {
        if (p_) {
            p_->record(lane_, phase_, t0_, Profiler::nowNs());
            p_->exit(lane_);
        }
    }

  private:
    Profiler *p_;
    ProfPhase phase_;
    unsigned lane_ = 0;
    std::uint64_t t0_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SIM_PROFILER_HH
