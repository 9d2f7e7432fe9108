/**
 * @file
 * High-level experiment runner shared by benches, examples, and
 * integration tests: one call = one simulated configuration.
 */

#ifndef MGSEC_CORE_EXPERIMENT_HH
#define MGSEC_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/system.hh"

namespace mgsec
{

/**
 * The knobs the paper's figures sweep. Each field is a row of
 * experimentKnobs() (core/knobs.hh), which also says whether it is
 * part of configKey(); the initializers here are the defaults.
 */
struct ExperimentConfig
{
    std::uint32_t numGpus = 4;
    OtpScheme scheme = OtpScheme::Private;
    bool batching = false;
    std::uint32_t otpMult = 4;       ///< "OTP Nx"
    Cycles aesLatency = 40;
    std::uint32_t batchSize = 16;
    bool countMetadataBytes = true;  ///< false = Fig. 11 +SecureCommu
    double scale = 1.0;              ///< extra workload scaling
    std::uint64_t seed = 1;
    Cycles commSampleInterval = 0;

    /** Dynamic allocator hyperparameters (EWMA ablation). */
    DynamicPadTable::Params dynParams{};

    /**
     * Host DRAM protection: -1 = auto (enabled iff the scheme is
     * secure, the paper's threat model), 0 = force off, 1 = force on
     * (memprot ablation).
     */
    int hostMemProtect = -1;

    /**
     * The paper keeps the problem size fixed when growing the GPU
     * count (Sec. V-D), so per-GPU work shrinks as
     * kScalingBaselineGpus/numGpus.
     */
    bool strongScaling = true;

    /** Fabric topology plus its knobs (SystemConfig::topology). */
    TopologyConfig topology{};

    /**
     * Traffic-shaping countermeasure (SecurityConfig::shaping) plus
     * its knobs.
     */
    ShapingPolicy shaping = ShapingPolicy::None;
    Cycles shapeInterval = 64;
    Bytes shapePadTo = 128;
    Cycles shapeJitter = 96;
    std::uint32_t shapeChaffSlots = 512;

    /** Host crypto tier; every result is bit-identical for each. */
    crypto::CryptoImpl cryptoImpl = crypto::CryptoImpl::Auto;

    /**
     * Event-kernel worker threads (SystemConfig::simThreads): 0 =
     * MGSEC_SIM_THREADS, else 1. Results are thread-count invariant.
     */
    std::uint32_t simThreads = 0;

    /** Observability sinks (file paths; all empty = disabled). */
    ObserveConfig observe{};
};

/** Expand an ExperimentConfig into a full SystemConfig. */
SystemConfig makeSystemConfig(const ExperimentConfig &cfg);

/**
 * Stable textual identity of one (workload, config) run: every knob
 * that can change simulated results, none that never can (observe
 * paths, cryptoImpl, simThreads). One fixed format, generated from
 * experimentKnobs() (core/knobs.hh): the shaping and fabric knobs
 * are always present, even when the policy is off or the fabric is
 * p2p. Used to tag per-job observability files.
 */
std::string configKey(const std::string &workload,
                      const ExperimentConfig &cfg);

/** FNV-1a 64-bit hash of configKey(), as 16 hex digits. */
std::string configHash(const std::string &workload,
                       const ExperimentConfig &cfg);

/**
 * Point every file sink of @p cfg.observe into @p dir, as
 * <KIND>_<configHash>.json for KIND in METRICS, TRACE, STATS, HIST,
 * WIRE and PROF: the one observability-bundle naming that
 * mgsec_run --observe-dir and mgsec_sweep --observe share.
 */
void setObserveBundle(const std::string &dir,
                      const std::string &workload,
                      ExperimentConfig &cfg);

/** One run of an observability bundle directory. */
struct ObserveIndexEntry
{
    std::string hash; ///< configHash(), the tag of its files
    std::string key;  ///< configKey() it hashes
};

/**
 * Write @p dir/OBSERVE_INDEX.json listing @p runs, through a tmp
 * file renamed into place so readers never see a partial index.
 * @retval false the file could not be written (warned).
 */
bool writeObserveIndex(const std::string &dir, Cycles interval,
                       const std::vector<ObserveIndexEntry> &runs);

/** Simulate one workload under one configuration. */
RunResult runWorkload(const std::string &workload,
                      const ExperimentConfig &cfg);

/**
 * Relative execution time of @p r against the unsecure baseline
 * result @p base (1.0 = no overhead).
 */
double normalizedTime(const RunResult &r, const RunResult &base);

/** Relative interconnect traffic against the unsecure baseline. */
double normalizedTraffic(const RunResult &r, const RunResult &base);

double geomean(const std::vector<double> &v);
double mean(const std::vector<double> &v);

} // namespace mgsec

#endif // MGSEC_CORE_EXPERIMENT_HH
