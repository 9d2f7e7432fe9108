#include "core/experiment.hh"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace mgsec
{

SystemConfig
makeSystemConfig(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.numGpus = cfg.numGpus;
    sys.seed = cfg.seed;
    sys.commSampleInterval = cfg.commSampleInterval;
    sys.simThreads = cfg.simThreads;

    sys.security.scheme = cfg.scheme;
    sys.security.batching = cfg.batching;
    sys.security.batchSize = cfg.batchSize;
    sys.security.aesLatency = cfg.aesLatency;
    sys.security.otpMultiplier = cfg.otpMult;
    sys.security.countMetadataBytes = cfg.countMetadataBytes;
    sys.security.dynParams = cfg.dynParams;
    sys.security.cryptoImpl = cfg.cryptoImpl;
    sys.security.shaping = cfg.shaping;
    sys.security.shapeInterval = cfg.shapeInterval;
    sys.security.shapePadTo = cfg.shapePadTo;
    sys.security.shapeJitter = cfg.shapeJitter;
    sys.security.shapeChaffSlots = cfg.shapeChaffSlots;
    // The trusted host of the paper's architecture protects its
    // untrusted DRAM (PENGLAI-style); the vanilla baseline has no
    // protection anywhere. The ablation benches override the default.
    sys.cpu.memProtect.enabled = cfg.hostMemProtect < 0
                                     ? cfg.scheme != OtpScheme::Unsecure
                                     : cfg.hostMemProtect != 0;
    sys.topology = cfg.topology;
    sys.observe = cfg.observe;
    return sys;
}

std::string
configHash(const std::string &workload, const ExperimentConfig &cfg)
{
    const std::string key = configKey(workload, cfg);
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return strformat("%016llx", static_cast<unsigned long long>(h));
}

void
setObserveBundle(const std::string &dir, const std::string &workload,
                 ExperimentConfig &cfg)
{
    const std::string h = configHash(workload, cfg);
    ObserveConfig &obs = cfg.observe;
    obs.metricsOut = dir + "/METRICS_" + h + ".json";
    obs.traceOut = dir + "/TRACE_" + h + ".json";
    obs.statsJsonOut = dir + "/STATS_" + h + ".json";
    obs.histJsonOut = dir + "/HIST_" + h + ".json";
    obs.wireOut = dir + "/WIRE_" + h + ".json";
    obs.profOut = dir + "/PROF_" + h + ".json";
}

bool
writeObserveIndex(const std::string &dir, Cycles interval,
                  const std::vector<ObserveIndexEntry> &runs)
{
    const std::string path = dir + "/OBSERVE_INDEX.json";
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os) {
            warn("cannot write '%s'", tmp.c_str());
            return false;
        }
        JsonWriter w(os);
        w.beginObject();
        w.field("interval", static_cast<std::uint64_t>(interval));
        w.key("runs");
        w.beginArray();
        for (const ObserveIndexEntry &e : runs) {
            w.beginObject();
            w.field("hash", e.hash);
            w.field("key", e.key);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("cannot rename '%s': %s", tmp.c_str(),
             ec.message().c_str());
        return false;
    }
    return true;
}

RunResult
runWorkload(const std::string &workload, const ExperimentConfig &cfg)
{
    double scale = cfg.scale;
    if (cfg.strongScaling && cfg.numGpus != 0)
        scale *= static_cast<double>(kScalingBaselineGpus) /
                 static_cast<double>(cfg.numGpus);
    const WorkloadProfile profile =
        makeProfile(workload, scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    return sys.run();
}

double
normalizedTime(const RunResult &r, const RunResult &base)
{
    MGSEC_ASSERT(base.cycles > 0, "baseline ran for zero cycles");
    return static_cast<double>(r.cycles) /
           static_cast<double>(base.cycles);
}

double
normalizedTraffic(const RunResult &r, const RunResult &base)
{
    MGSEC_ASSERT(base.totalBytes > 0, "baseline moved zero bytes");
    return static_cast<double>(r.totalBytes) /
           static_cast<double>(base.totalBytes);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v) {
        MGSEC_ASSERT(x > 0.0, "geomean needs positive values");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

} // namespace mgsec
