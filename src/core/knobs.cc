#include "core/knobs.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "secure/batching.hh"
#include "workload/profile.hh"

namespace mgsec
{

const std::vector<Knob<ExperimentConfig>> &
experimentKnobs()
{
    using E = ExperimentConfig;
    using D = DynamicPadTable::Params;
    using O = ObserveConfig;
    using T = TopologyConfig;
    constexpr std::uint64_t k32 = 1ULL << 32, k20 = 1ULL << 20;
    static const std::vector<Knob<E>> rows = {
        number<&E::numGpus>("gpus", "gpus", 1, 256, "GPU count"),
        choice<&E::scheme>("scheme", "scheme", kOtpSchemeNames,
                           "protection scheme"),
        flag<&E::batching>("batching", "batch", "metadata batching")
            .secured(),
        number<&E::batchSize>("batch-size", "batch", kMinBatchSize,
                              kMaxBatchSize, "batch length (1-byte field)")
            .secured(),
        number<&E::otpMult>("otp-mult", "otp", 1, k20, "OTP Nx quota")
            .secured()
            .unit("x"),
        number<&E::aesLatency>("aes-latency", "aes", 0, k32,
                               "AES-GCM latency in cycles")
            .secured(),
        flag<&E::countMetadataBytes>("count-metadata", "meta",
                                     "account metadata wire bytes")
            .secured(),
        number<&E::scale>("scale", "scale", 1e-6, 1e6,
                          "workload size multiplier"),
        number<&E::seed>("seed", "seed", 0, UINT64_MAX, "RNG seed"),
        number<&E::commSampleInterval>("comm-sample-interval", "comm", 0,
                                       UINT64_MAX,
                                       "sample GPU 1's comm mix (0 = off)"),
        number<&E::dynParams, &D::interval>(nullptr, "dyn", 1, k32, "T")
            .secured(),
        number<&E::dynParams, &D::alpha>(nullptr, "dyn", 0, 1, "alpha")
            .secured(),
        number<&E::dynParams, &D::beta>(nullptr, "dyn", 0, 1, "beta")
            .secured(),
        number<&E::dynParams, &D::confidenceDir>(nullptr, "dyn", 1, k20, "")
            .secured(),
        number<&E::dynParams, &D::confidencePeer>(nullptr, "dyn", 1, k20,
                                                  "")
            .secured(),
        number<&E::hostMemProtect>(nullptr, "memprot", -1, 1, "").secured(),
        flag<&E::strongScaling>("strong-scaling", "strong",
                                "shrink per-GPU work with N"),
        choice<&E::shaping>("shape", "shape", kShapingPolicyNames,
                            "traffic shaping")
            .secured(),
        number<&E::shapeInterval>("shape-interval", "shape", 1, k32,
                                  "constant-rate slot width in cycles")
            .secured(),
        number<&E::shapePadTo>("shape-pad-to", "shape", 1, k20,
                               "constant-rate wire-size quantum in bytes")
            .secured(),
        number<&E::shapeJitter>("shape-jitter", "shape", 0, k32,
                                "max batch-close jitter in cycles")
            .secured(),
        number<&E::shapeChaffSlots>("shape-chaff", "shape", 0, k20,
                                    "constant-rate chaff until a node "
                                    "idles N slots (0 = off)")
            .secured(),
        choice<&E::topology, &T::kind>("topology", "topo",
                                       kTopologyKindNames, "fabric"),
        number<&E::topology, &T::switchRadix>("switch-radix", "topo", 1,
                                              1024, "max GPUs per crossbar"),
        number<&E::topology, &T::switchLatency>(
            "switch-latency", "topo", 0, k32, "crossbar traversal cycles"),
        number<&E::topology, &T::switchBytesPerCycle>(
            "switch-bw", "topo", 1e-3, 1e6, "switch port bytes/cycle"),
        number<&E::topology, &T::gpusPerNode>("gpus-per-node", "topo", 1,
                                              256, "hier: GPUs per node"),
        number<&E::topology, &T::interLatency>(
            "inter-latency", "topo", 0, k32, "hier: trunk crossing cycles"),
        number<&E::topology, &T::interBytesPerCycle>(
            "inter-bw", "topo", 1e-3, 1e6, "hier: trunk bytes/cycle"),
        choice<&E::cryptoImpl>("crypto-impl", nullptr,
                               crypto::kCryptoImplNames,
                               "host crypto tier (same results)"),
        number<&E::simThreads>("sim-threads", nullptr, 1, 256,
                               "event-kernel threads (same results; "
                               "default MGSEC_SIM_THREADS or 1)"),
        text<&E::observe, &O::metricsOut>("metrics-out",
                                          "sampled metrics JSON"),
        text<&E::observe, &O::traceOut>("trace-out",
                                        "Chrome trace_event timeline"),
        text<&E::observe, &O::statsJsonOut>("stats-json",
                                            "component stats JSON"),
        number<&E::observe, &O::metricsInterval>(
            "metrics-interval", nullptr, 1, UINT64_MAX,
            "cycles between metric samples"),
        number<&E::observe, &O::metricsRing>("metrics-ring", nullptr, 1,
                                             1 << 24, "metric rows kept"),
        flag<&E::observe, &O::latencyAttr>("attr", nullptr,
                                           "latency attribution"),
        text<&E::observe, &O::histJsonOut>(
            "hist-json", "attribution histogram JSON (implies --attr on)"),
        text<&E::observe, &O::wireOut>("wire-json", "wire-observer JSON"),
        text<&E::observe, &O::profOut>("prof-out", "host self-profile JSON"),
    };
    return rows;
}

std::string
configKey(const std::string &workload, const ExperimentConfig &cfg)
{
    std::string key = workload;
    const char *open = nullptr;
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        if (!k.segment)
            continue;
        if (open && std::strcmp(open, k.segment) == 0) {
            key += '/';
        } else {
            open = k.segment;
            key += '|' + std::string(open) + '=';
        }
        key += k.print(cfg) + k.suffix;
    }
    return key;
}

bool
parseWorkload(const std::string &text, std::string &out)
{
    const auto &names = workloadNames();
    const bool known =
        std::find(names.begin(), names.end(), text) != names.end();
    out = known ? text : out;
    return known;
}

ExperimentConfig
baselineConfig(ExperimentConfig cfg)
{
    // A secured-only value never reaches an unsecure run, so the
    // printed default, which the key shows, is all it needs.
    const ExperimentConfig def;
    for (const Knob<ExperimentConfig> &k : experimentKnobs()) {
        if (k.securedOnly)
            k.parse(cfg, k.print(def));
    }
    cfg.scheme = OtpScheme::Unsecure;
    return cfg;
}

} // namespace mgsec
