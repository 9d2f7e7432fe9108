/**
 * @file
 * Batched sweep execution: the (workload x scheme x seed) matrices
 * the figure benches run, executed on a JobPool with the unsecure
 * baselines memoized.
 *
 * Two invariants make parallel sweeps safe to trust:
 *  - results are keyed by the handle add*() returned (submission
 *    order), never by completion order, so `--jobs N` produces
 *    bit-identical output to `--jobs 1`;
 *  - a normalized measurement's unsecure baseline ignores every
 *    security-only knob, so each distinct baseline is simulated
 *    exactly once per sweep and shared across every secure
 *    configuration that normalizes against it.
 */

#ifndef MGSEC_CORE_SWEEP_HH
#define MGSEC_CORE_SWEEP_HH

#include <cstdint>
#include <future>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/knobs.hh"

namespace mgsec
{

/**
 * The command-line arguments of mgsec_sweep and mgsec_figures. Parsing
 * is strict: values are range-checked and an unknown flag prints usage
 * and exits instead of being ignored.
 */
struct SweepArgs
{
    double scale = 0.6; ///< workload size multiplier
    int seeds = 2;      ///< seeds averaged per configuration
    unsigned jobs = 0;  ///< worker threads; 0 = all hardware threads
    std::string jsonOut;

    /** @name Set only by mgsec_sweep's own rows */
    /// @{
    std::uint32_t gpus = 4;
    std::string observeDir;
    /**
     * Shaping policies to sweep. The default single None entry keeps
     * the historical matrix, and its output, unchanged.
     */
    std::vector<ShapingPolicy> shapes{ShapingPolicy::None};
    /** Workload filter; empty = every paper workload. */
    std::vector<std::string> workloads;
    /** Only the fabric kind is a flag (--topology). */
    TopologyConfig topology{};
    /// @}

    /**
     * Knobs every queued run takes, parsed by their experimentKnobs()
     * rows. --crypto-impl and --sim-threads (0 = MGSEC_SIM_THREADS,
     * else 1; unlike --jobs, it speeds up one large run) never change
     * results.
     */
    crypto::CryptoImpl cryptoImpl = crypto::CryptoImpl::Auto;
    std::uint32_t simThreads = 0;

    /**
     * Parse argv into *this (current members are the defaults) with
     * the shared rows plus the caller's @p own. Prints usage and exits
     * on --help (status 0) or on any unknown flag, missing value,
     * out-of-range value or GPU count the fabric cannot hold
     * (status 2).
     */
    void parseArgs(int argc, char **argv,
                   const std::vector<Knob<SweepArgs>> &own);

    void printUsage(std::ostream &os, const char *argv0,
                    const std::vector<Knob<SweepArgs>> &own) const;
};

/** The experiment row --@p name, on the SweepArgs field S for E. */
template <auto S, auto E>
Knob<SweepArgs>
sweepKnob(const char *name)
{
    const Knob<ExperimentConfig> &e = *findKnob(experimentKnobs(), name);
    const auto view = [](const SweepArgs &a) {
        ExperimentConfig v;
        v.*E = a.*S;
        return v;
    };
    Knob<SweepArgs> k{e.name, nullptr, e.meta, e.help, e.values};
    k.parse = [&e, view](SweepArgs &a, const std::string &text) {
        ExperimentConfig v = view(a);
        return e.parse(v, text) && (a.*S = v.*E, true);
    };
    k.print = [&e, view](const SweepArgs &a) { return e.print(view(a)); };
    return k;
}

/**
 * Seed-averaged metrics of one configuration vs. its unsecure
 * baseline.
 */
struct NormResult
{
    double time = 0.0;
    double traffic = 0.0;
    RunResult sample; ///< last-seed secure run (for OTP stats etc.)
};

/**
 * A batch of measurements executed in parallel. Queue everything
 * with addNormalized()/addRaw(), call run() once, then read results
 * through the returned handles.
 */
class Sweep
{
  public:
    explicit Sweep(const SweepArgs &args);
    Sweep(double scale, int seeds, unsigned jobs);

    /**
     * Queue a seed-averaged normalized measurement of @p cfg
     * (cfg.scale and cfg.seed are overridden by the sweep's scale
     * and seed loop, mirroring the historical runNormalized()).
     */
    std::size_t addNormalized(const std::string &workload,
                              ExperimentConfig cfg);

    /**
     * Queue one raw run. Only cfg.scale is overridden; cfg.seed is
     * used verbatim — the sweep's seed count deliberately does NOT
     * apply (pattern/burstiness figures show one representative run,
     * not a seed average).
     */
    std::size_t addRaw(const std::string &workload,
                       ExperimentConfig cfg);

    /**
     * Write per-job observability files into @p dir (created if
     * missing): the setObserveBundle() files of each distinct
     * configuration, tagged by configHash(workload, cfg), plus an
     * OBSERVE_INDEX.json manifest mapping each hash back to its
     * configKey() and a PROGRESS.jsonl heartbeat. Hash-tagged names
     * keep parallel jobs from ever clobbering each other's files.
     * Call before run().
     */
    void setObservability(const std::string &dir);

    /** Execute everything queued; blocks until all results are in. */
    void run();

    const NormResult &normalized(std::size_t handle) const;
    const RunResult &raw(std::size_t handle) const;

    /** Distinct unsecure baselines actually simulated by run(). */
    std::uint64_t baselineRuns() const { return baseline_runs_; }
    /** Baseline requests served from the memoization cache. */
    std::uint64_t baselineHits() const { return baseline_hits_; }

    /** Worker threads run() used (resolved after run()). */
    unsigned jobs() const { return resolved_jobs_; }

  private:
    struct NormRequest
    {
        std::string workload;
        ExperimentConfig cfg;
        NormResult result;
    };
    struct RawRequest
    {
        std::string workload;
        ExperimentConfig cfg;
        RunResult result;
    };

    double scale_;
    int seeds_;
    unsigned jobs_;
    crypto::CryptoImpl crypto_impl_ = crypto::CryptoImpl::Auto;
    std::uint32_t sim_threads_ = 0;
    unsigned resolved_jobs_ = 0;
    bool ran_ = false;

    std::string observe_dir_;

    std::vector<NormRequest> norm_;
    std::vector<RawRequest> raw_;

    std::uint64_t baseline_runs_ = 0;
    std::uint64_t baseline_hits_ = 0;
};

} // namespace mgsec

#endif // MGSEC_CORE_SWEEP_HH
