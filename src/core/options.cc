#include "core/options.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "secure/batching.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace mgsec
{

bool
parseNumber(const std::string &text, double lo, double hi, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    if (!(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

bool
parseNumber(const std::string &text, long long lo, long long hi,
            long long &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseNumber(const std::string &text, unsigned long long lo,
            unsigned long long hi, unsigned long long &out)
{
    // strtoull silently wraps negatives; reject them up front.
    if (text.empty() || text.find('-') != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseShaping(const std::string &text, ShapingPolicy &out)
{
    std::string t = text;
    std::transform(t.begin(), t.end(), t.begin(), ::tolower);
    if (t == "none" || t == "off")
        out = ShapingPolicy::None;
    else if (t == "constant-rate" || t == "constant")
        out = ShapingPolicy::ConstantRate;
    else if (t == "batch-jitter" || t == "jitter")
        out = ShapingPolicy::BatchJitter;
    else
        return false;
    return true;
}

bool
parseScheme(const std::string &text, OtpScheme &out)
{
    std::string t = text;
    std::transform(t.begin(), t.end(), t.begin(), ::tolower);
    if (t == "unsecure" || t == "none")
        out = OtpScheme::Unsecure;
    else if (t == "private")
        out = OtpScheme::Private;
    else if (t == "shared")
        out = OtpScheme::Shared;
    else if (t == "cached")
        out = OtpScheme::Cached;
    else if (t == "dynamic")
        out = OtpScheme::Dynamic;
    else
        return false;
    return true;
}

namespace
{

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        out = true;
    else if (v == "0" || v == "false" || v == "no" || v == "off")
        out = false;
    else
        return false;
    return true;
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // anonymous namespace

bool
RunOptions::set(const std::string &key, const std::string &value)
{
    // Range-checked parsing into temporaries: a bad value reports an
    // error instead of throwing (std::stoul) or silently wrapping.
    unsigned long long u = 0;
    double d = 0.0;
    bool ok = true;
    if (key == "workload") {
        workload = value;
    } else if (key == "gpus") {
        if ((ok = parseNumber(value, 1ULL, 256ULL, u)))
            exp.numGpus = static_cast<std::uint32_t>(u);
    } else if (key == "scheme") {
        ok = parseScheme(value, exp.scheme);
    } else if (key == "batching") {
        ok = parseBool(value, exp.batching);
    } else if (key == "batch-size") {
        if ((ok = parseNumber(value, 0ULL + kMinBatchSize,
                              0ULL + kMaxBatchSize, u)))
            exp.batchSize = static_cast<std::uint32_t>(u);
    } else if (key == "otp-mult") {
        if ((ok = parseNumber(value, 1ULL, 1ULL << 20, u)))
            exp.otpMult = static_cast<std::uint32_t>(u);
    } else if (key == "aes-latency") {
        if ((ok = parseNumber(value, 0ULL, 1ULL << 32, u)))
            exp.aesLatency = u;
    } else if (key == "scale") {
        if ((ok = parseNumber(value, 1e-6, 1e6, d)))
            exp.scale = d;
    } else if (key == "seed") {
        if ((ok = parseNumber(value, 0ULL, UINT64_MAX, u)))
            exp.seed = u;
    } else if (key == "count-metadata") {
        ok = parseBool(value, exp.countMetadataBytes);
    } else if (key == "comm-sample-interval") {
        if ((ok = parseNumber(value, 0ULL, UINT64_MAX, u)))
            exp.commSampleInterval = u;
    } else if (key == "strong-scaling") {
        ok = parseBool(value, exp.strongScaling);
    } else if (key == "baseline") {
        ok = parseBool(value, baseline);
    } else if (key == "stats-out") {
        statsOut = value;
    } else if (key == "json-out") {
        jsonOut = value;
    } else if (key == "trace-record") {
        traceRecord = value;
    } else if (key == "trace-play") {
        tracePlay = value;
    } else if (key == "metrics-out") {
        exp.observe.metricsOut = value;
    } else if (key == "trace-out") {
        exp.observe.traceOut = value;
    } else if (key == "stats-json") {
        exp.observe.statsJsonOut = value;
    } else if (key == "metrics-interval") {
        if ((ok = parseNumber(value, 1ULL, UINT64_MAX, u)))
            exp.observe.metricsInterval = u;
    } else if (key == "metrics-ring") {
        if ((ok = parseNumber(value, 1ULL, 1ULL << 24, u)))
            exp.observe.metricsRing = static_cast<std::uint32_t>(u);
    } else if (key == "attr") {
        ok = parseBool(value, exp.observe.latencyAttr);
    } else if (key == "hist-json") {
        exp.observe.histJsonOut = value;
    } else if (key == "wire-json") {
        exp.observe.wireOut = value;
    } else if (key == "prof-out") {
        exp.observe.profOut = value;
    } else if (key == "observe-dir") {
        observeDir = value;
    } else if (key == "shape") {
        ok = parseShaping(value, exp.shaping);
    } else if (key == "shape-interval") {
        if ((ok = parseNumber(value, 1ULL, 1ULL << 32, u)))
            exp.shapeInterval = u;
    } else if (key == "shape-pad-to") {
        if ((ok = parseNumber(value, 1ULL, 1ULL << 20, u)))
            exp.shapePadTo = u;
    } else if (key == "shape-jitter") {
        if ((ok = parseNumber(value, 0ULL, 1ULL << 32, u)))
            exp.shapeJitter = u;
    } else if (key == "shape-chaff") {
        if ((ok = parseNumber(value, 0ULL, 1ULL << 20, u)))
            exp.shapeChaffSlots = static_cast<std::uint32_t>(u);
    } else if (key == "topology") {
        ok = parseTopologyKind(value, exp.topology.kind);
    } else if (key == "switch-radix") {
        if ((ok = parseNumber(value, 1ULL, 1024ULL, u)))
            exp.topology.switchRadix = static_cast<std::uint32_t>(u);
    } else if (key == "switch-latency") {
        if ((ok = parseNumber(value, 0ULL, 1ULL << 32, u)))
            exp.topology.switchLatency = u;
    } else if (key == "switch-bw") {
        if ((ok = parseNumber(value, 1e-3, 1e6, d)))
            exp.topology.switchBytesPerCycle = d;
    } else if (key == "gpus-per-node") {
        if ((ok = parseNumber(value, 1ULL, 256ULL, u)))
            exp.topology.gpusPerNode = static_cast<std::uint32_t>(u);
    } else if (key == "inter-latency") {
        if ((ok = parseNumber(value, 0ULL, 1ULL << 32, u)))
            exp.topology.interLatency = u;
    } else if (key == "inter-bw") {
        if ((ok = parseNumber(value, 1e-3, 1e6, d)))
            exp.topology.interBytesPerCycle = d;
    } else if (key == "crypto-impl") {
        ok = crypto::parseCryptoImpl(value, exp.cryptoImpl);
    } else if (key == "sim-threads") {
        if ((ok = parseNumber(value, 1ULL, 256ULL, u)))
            exp.simThreads = static_cast<std::uint32_t>(u);
    } else if (key == "debug-pad-stall-pct") {
        // Deliberately absent from usage(): a CI-only fault injector
        // for the mgsec_report regression-gate self-check.
        if ((ok = parseNumber(value, 0ULL, 10000ULL, u)))
            exp.debugPadStallPct = static_cast<std::uint32_t>(u);
    } else if (key == "debug") {
        if (value == "help") {
            debug::listFlags(std::cout);
            std::exit(0);
        }
        ok = debug::DebugFlag::enableByName(value);
    } else {
        std::cerr << "unknown option '" << key << "'\n";
        return false;
    }
    if (!ok)
        std::cerr << "bad value '" << value << "' for '" << key
                  << "'\n";
    return ok;
}

bool
RunOptions::finalizeObservability()
{
    if (observeDir.empty())
        return true;
    const ObserveConfig &obs = exp.observe;
    if (!obs.metricsOut.empty() || !obs.traceOut.empty() ||
        !obs.statsJsonOut.empty() || !obs.histJsonOut.empty() ||
        !obs.wireOut.empty() || !obs.profOut.empty()) {
        std::cerr << "--observe-dir bundles --metrics-out/--trace-out/"
                     "--stats-json/--hist-json/--wire-json/--prof-out; "
                     "remove the explicit path options\n";
        return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(observeDir, ec);
    if (ec) {
        std::cerr << "cannot create observability directory '"
                  << observeDir << "': " << ec.message() << "\n";
        return false;
    }
    setObserveBundle(observeDir, workload, exp);
    return true;
}

bool
RunOptions::loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot open config file '" << path << "'\n";
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            std::cerr << path << ":" << lineno
                      << ": expected 'key = value'\n";
            return false;
        }
        if (!set(trim(line.substr(0, eq)),
                 trim(line.substr(eq + 1))))
            return false;
    }
    return true;
}

RunOptions::ParseStatus
RunOptions::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return ParseStatus::Help;
        }
        if (arg.rfind("--", 0) != 0) {
            std::cerr << "unexpected argument '" << arg << "'\n";
            return ParseStatus::Error;
        }
        arg = arg.substr(2);
        if (i + 1 >= argc) {
            std::cerr << "missing value for '--" << arg << "'\n";
            return ParseStatus::Error;
        }
        const std::string value = argv[++i];
        if (arg == "config") {
            if (!loadFile(value))
                return ParseStatus::Error;
        } else if (!set(arg, value)) {
            return ParseStatus::Error;
        }
    }
    return ParseStatus::Ok;
}

void
RunOptions::usage(std::ostream &os)
{
    os << "mgsec_run — simulate one secure multi-GPU configuration\n"
          "\n"
          "  --workload NAME        one of the 17 paper workloads "
          "(default mm)\n"
          "  --gpus N               GPU count (default 4)\n"
          "  --scheme S             unsecure|private|shared|cached|"
          "dynamic\n"
          "  --batching B           metadata batching on/off\n"
          "  --batch-size N         batch length, 2..255 (the 1-byte "
          "length field; default 16)\n"
          "  --otp-mult N           OTP Nx quota (default 4)\n"
          "  --aes-latency C        AES-GCM latency in cycles\n"
          "  --scale F              workload size multiplier\n"
          "  --seed N               RNG seed\n"
          "  --count-metadata B     account metadata wire bytes\n"
          "  --comm-sample-interval C  sample GPU1's comm mix\n"
          "  --strong-scaling B     shrink per-GPU work with N\n"
          "  --baseline B           also run the unsecure baseline\n"
          "  --stats-out FILE       dump component stats ('-' = "
          "stdout)\n"
          "  --json-out FILE        write the result as JSON\n"
          "  --trace-record PREFIX  write <prefix>.gpuN.trace files\n"
          "  --trace-play FILE      replay GPU 1 from a trace file\n"
          "  --metrics-out FILE     write sampled time-series "
          "metrics as JSON\n"
          "  --trace-out FILE       write a Chrome trace_event "
          "timeline (Perfetto)\n"
          "  --stats-json FILE      dump component stats as JSON\n"
          "  --metrics-interval C   cycles between metric samples "
          "(default 1000)\n"
          "  --metrics-ring N       metric rows kept before dropping "
          "(default 4096)\n"
          "  --attr B               per-message latency attribution "
          "histograms\n"
          "  --hist-json FILE       write attribution histograms as "
          "JSON (implies --attr on)\n"
          "  --wire-json FILE       write the passive wire-observer "
          "dump as JSON\n"
          "  --prof-out FILE        write the host-side self-profiler "
          "dump as JSON\n"
          "  --observe-dir DIR      bundle all sinks into DIR with "
          "sweep's METRICS_/TRACE_/\n"
          "                         STATS_/HIST_/WIRE_/PROF_<hash>.json "
          "naming (+ OBSERVE_INDEX.json)\n"
          "  --shape P              traffic shaping: none|"
          "constant-rate|batch-jitter\n"
          "  --shape-interval C     constant-rate slot width in "
          "cycles (default 64)\n"
          "  --shape-pad-to B       constant-rate wire-size quantum "
          "in bytes (default 128)\n"
          "  --shape-jitter C       max batch-close jitter in cycles "
          "(default 96)\n"
          "  --shape-chaff N        constant-rate cover traffic: "
          "full-mesh chaff until a\n"
          "                         node idles N slots "
          "(0 = off; default 512)\n"
          "  --topology T           fabric: p2p|nvswitch|hier "
          "(default p2p, the paper's machine)\n"
          "  --switch-radix N       max GPUs per crossbar "
          "(default 64)\n"
          "  --switch-latency C     crossbar traversal in cycles "
          "(default 60)\n"
          "  --switch-bw F          switch egress port bytes/cycle "
          "(default 50)\n"
          "  --gpus-per-node N      hier: GPUs per fabric node "
          "(default 8)\n"
          "  --inter-latency C      hier: trunk crossing in cycles "
          "(default 300)\n"
          "  --inter-bw F           hier: trunk port bytes/cycle "
          "(default 25)\n"
          "  --crypto-impl I        host crypto tier: auto|portable|"
          "simd (bit-identical results)\n"
          "  --sim-threads N        event-kernel worker threads "
          "(bit-identical results; default MGSEC_SIM_THREADS or "
          "1)\n"
          "  --debug FLAGS          enable trace flags "
          "('help' lists them)\n"
          "  --config FILE          read 'key = value' lines first\n";
}

} // namespace mgsec
