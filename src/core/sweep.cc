#include "core/sweep.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <utility>

#include "core/job_pool.hh"
#include "core/options.hh"
#include "sim/debug.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace mgsec
{

void
SweepArgs::printUsage(std::ostream &os, const char *argv0) const
{
    os << "usage: " << argv0 << " [--scale S] [--seeds N] [--jobs N]";
    if (acceptGpus)
        os << " [--gpus N]";
    if (acceptJson)
        os << " [--json FILE]";
    os << "\n"
       << "  --scale S  workload size multiplier (default " << scale
       << ")\n"
       << "  --seeds N  seeds averaged per configuration (default "
       << seeds << ")\n"
       << "  --jobs N   parallel simulation jobs (default: all "
       << "hardware threads)\n";
    if (acceptGpus)
        os << "  --gpus N   GPUs in the simulated system (default "
           << gpus << ")\n";
    if (acceptJson)
        os << "  --json F   also write the results as JSON to F\n";
    if (acceptObserve)
        os << "  --observe DIR  write per-job METRICS_/TRACE_/STATS_/"
           << "HIST_/WIRE_/PROF_ JSON files\n"
           << "             (tagged by config hash) plus an "
           << "OBSERVE_INDEX.json and an\n"
           << "             append-only PROGRESS.jsonl heartbeat "
           << "into DIR\n";
    if (acceptShape)
        os << "  --shape P[,P...]  shaping policies to sweep: none|"
           << "constant-rate|batch-jitter\n"
           << "             (default none; extra policies add rows "
           << "to the matrix)\n";
    if (acceptWorkloads)
        os << "  --workloads W[,W...]  restrict the matrix to these "
           << "workloads (default all)\n";
    if (acceptTopology)
        os << "  --topology T  fabric for every run: p2p|nvswitch|"
           << "hier (default p2p)\n";
    os << "  --crypto-impl I  host crypto tier auto|portable|simd "
       << "(bit-identical results)\n"
       << "  --sim-threads N  event-kernel worker threads per run "
       << "(bit-identical results; default MGSEC_SIM_THREADS or "
       << "1)\n"
       << "  --debug FLAGS  enable trace flags ('help' lists "
       << "them)\n";
}

void
SweepArgs::parseArgs(int argc, char **argv)
{
    // Honor MGSEC_DEBUG in every bench/tool; Sweep::run() drops to
    // one worker when any flag is on so traces stay readable.
    debug::enableFromEnv();
    auto die = [&](const char *fmt, const char *what) {
        std::fprintf(stderr, fmt, what);
        std::fputc('\n', stderr);
        printUsage(std::cerr, argv[0]);
        std::exit(2);
    };
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            die("missing value for '%s'", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            printUsage(std::cout, argv[0]);
            std::exit(0);
        } else if (std::strcmp(arg, "--scale") == 0) {
            if (!parseNumber(value(i), 1e-6, 1e6, scale))
                die("bad --scale value '%s'", argv[i]);
        } else if (std::strcmp(arg, "--seeds") == 0) {
            long long v = 0;
            if (!parseNumber(value(i), 1LL, 10000LL, v))
                die("bad --seeds value '%s'", argv[i]);
            seeds = static_cast<int>(v);
        } else if (std::strcmp(arg, "--jobs") == 0) {
            unsigned long long v = 0;
            if (!parseNumber(value(i), 1ULL, 1024ULL, v))
                die("bad --jobs value '%s'", argv[i]);
            jobs = static_cast<unsigned>(v);
        } else if (acceptGpus && std::strcmp(arg, "--gpus") == 0) {
            unsigned long long v = 0;
            if (!parseNumber(value(i), 1ULL, 256ULL, v))
                die("bad --gpus value '%s'", argv[i]);
            gpus = static_cast<std::uint32_t>(v);
        } else if (acceptJson && std::strcmp(arg, "--json") == 0) {
            jsonOut = value(i);
        } else if (acceptObserve &&
                   std::strcmp(arg, "--observe") == 0) {
            observeDir = value(i);
        } else if (acceptShape && std::strcmp(arg, "--shape") == 0) {
            shapes.clear();
            std::string list = value(i);
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string tok = list.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                ShapingPolicy p = ShapingPolicy::None;
                if (!parseShaping(tok, p))
                    die("bad --shape value '%s'", tok.c_str());
                shapes.push_back(p);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (shapes.empty())
                die("bad --shape value '%s'", argv[i]);
        } else if (acceptWorkloads &&
                   std::strcmp(arg, "--workloads") == 0) {
            workloads.clear();
            std::string list = value(i);
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string tok = list.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                const auto &names = workloadNames();
                bool known = false;
                for (const auto &n : names)
                    known = known || n == tok;
                if (!known)
                    die("unknown workload '%s'", tok.c_str());
                workloads.push_back(tok);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (workloads.empty())
                die("bad --workloads value '%s'", argv[i]);
        } else if (acceptTopology &&
                   std::strcmp(arg, "--topology") == 0) {
            if (!parseTopologyKind(value(i), topology.kind))
                die("bad --topology value '%s'", argv[i]);
        } else if (std::strcmp(arg, "--crypto-impl") == 0) {
            if (!crypto::parseCryptoImpl(value(i), cryptoImpl))
                die("bad --crypto-impl value '%s'", argv[i]);
        } else if (std::strcmp(arg, "--sim-threads") == 0) {
            unsigned long long v = 0;
            if (!parseNumber(value(i), 1ULL, 256ULL, v))
                die("bad --sim-threads value '%s'", argv[i]);
            simThreads = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(arg, "--debug") == 0) {
            const char *flags = value(i);
            if (std::strcmp(flags, "help") == 0) {
                debug::listFlags(std::cout);
                std::exit(0);
            }
            if (!debug::DebugFlag::enableByName(flags))
                die("bad --debug value '%s'", argv[i]);
        } else {
            die("unknown flag '%s'", arg);
        }
    }
}

namespace
{

/**
 * The unsecure configuration a normalized run measures against.
 * Every knob that acts only on a secured() run returns to its
 * default, so configKey() of the result — the baseline memo key and
 * the tag of its observability files — is shared by every secure
 * variant that normalizes against the same unsecure run.
 */
ExperimentConfig
baselineConfig(ExperimentConfig cfg)
{
    const ExperimentConfig def;
    cfg.scheme = OtpScheme::Unsecure;
    cfg.batching = false;
    cfg.countMetadataBytes = true;
    cfg.hostMemProtect = -1; // auto: disabled for Unsecure
    cfg.otpMult = def.otpMult;
    cfg.aesLatency = def.aesLatency;
    cfg.batchSize = def.batchSize;
    cfg.dynParams = def.dynParams;
    cfg.debugPadStallPct = def.debugPadStallPct;
    cfg.shaping = def.shaping;
    cfg.shapeInterval = def.shapeInterval;
    cfg.shapePadTo = def.shapePadTo;
    cfg.shapeJitter = def.shapeJitter;
    cfg.shapeChaffSlots = def.shapeChaffSlots;
    return cfg;
}

} // anonymous namespace

Sweep::Sweep(const SweepArgs &args)
    : Sweep(args.scale, args.seeds, args.jobs)
{
    crypto_impl_ = args.cryptoImpl;
    sim_threads_ = args.simThreads;
    if (!args.observeDir.empty())
        setObservability(args.observeDir);
}

Sweep::Sweep(double scale, int seeds, unsigned jobs)
    : scale_(scale), seeds_(seeds), jobs_(jobs)
{
    MGSEC_ASSERT(scale_ > 0.0, "non-positive sweep scale");
    MGSEC_ASSERT(seeds_ >= 1, "sweep needs at least one seed");
}

void
Sweep::setObservability(const std::string &dir)
{
    MGSEC_ASSERT(!ran_, "Sweep::setObservability after run()");
    MGSEC_ASSERT(!dir.empty(), "empty observability directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create observability directory '%s': %s",
             dir.c_str(), ec.message().c_str());
        return;
    }
    observe_dir_ = dir;
}

std::size_t
Sweep::addNormalized(const std::string &workload,
                     ExperimentConfig cfg)
{
    MGSEC_ASSERT(!ran_, "Sweep::add after run()");
    cfg.scale = scale_;
    cfg.cryptoImpl = crypto_impl_;
    cfg.simThreads = sim_threads_;
    norm_.push_back(NormRequest{workload, cfg, NormResult{}});
    return norm_.size() - 1;
}

std::size_t
Sweep::addRaw(const std::string &workload, ExperimentConfig cfg)
{
    MGSEC_ASSERT(!ran_, "Sweep::add after run()");
    cfg.scale = scale_;
    cfg.cryptoImpl = crypto_impl_;
    cfg.simThreads = sim_threads_;
    raw_.push_back(RawRequest{workload, cfg, RunResult{}});
    return raw_.size() - 1;
}

void
Sweep::run()
{
    MGSEC_ASSERT(!ran_, "Sweep::run() called twice");
    ran_ = true;

    unsigned jobs = jobs_ == 0 ? JobPool::defaultWorkers() : jobs_;
    if (jobs > 1) {
        // Debug traces from concurrent runs interleave into one
        // stream; keep them readable by serializing.
        for (const debug::DebugFlag *f : debug::DebugFlag::all()) {
            if (f->enabled()) {
                warn("debug tracing enabled; running sweep with "
                     "--jobs 1 so traces stay readable");
                jobs = 1;
                break;
            }
        }
    }
    resolved_jobs_ = jobs;

    JobPool pool(jobs);

    // With an observability directory set, each distinct
    // configuration writes sinks tagged by its config hash, so
    // parallel jobs never share a file name. A duplicate submission
    // (the same config queued twice) keeps only the first writer.
    std::vector<ObserveIndexEntry> observe_index;
    std::set<std::string> observe_seen;
    auto withObserve = [&](const std::string &workload,
                           ExperimentConfig cfg) {
        if (observe_dir_.empty())
            return cfg;
        const std::string h = configHash(workload, cfg);
        if (!observe_seen.insert(h).second) {
            cfg.observe = ObserveConfig{};
            return cfg;
        }
        setObserveBundle(observe_dir_, workload, cfg);
        observe_index.push_back(
            ObserveIndexEntry{h, configKey(workload, cfg)});
        return cfg;
    };

    // Incremental OBSERVE_INDEX: rewritten after every harvested job,
    // listing only the entries whose runs have been harvested so far
    // — a killed campaign keeps a valid index of completed artifacts.
    std::set<std::string> harvested;
    auto writeIndex = [&]() {
        if (observe_dir_.empty())
            return;
        std::vector<ObserveIndexEntry> done;
        for (const ObserveIndexEntry &e : observe_index) {
            if (harvested.count(e.hash))
                done.push_back(e);
        }
        writeObserveIndex(observe_dir_, ObserveConfig{}.metricsInterval,
                          done);
    };
    auto harvestedJob = [&](const std::string &workload,
                            const ExperimentConfig &cfg) {
        if (observe_dir_.empty())
            return;
        harvested.insert(configHash(workload, cfg));
        writeIndex();
    };

    // Campaign heartbeat: every job appends queued/started/finished
    // lines to an append-only PROGRESS.jsonl (one JSON object per
    // line) so a long campaign's health — throughput, stragglers, a
    // running ETA — is observable while it runs. Wall-clock data
    // lives only here and in PROF files, never in sim artifacts.
    std::ofstream progress;
    std::mutex prog_mu;
    std::uint64_t submitted = 0; ///< guarded by prog_mu
    std::uint64_t finished = 0;  ///< guarded by prog_mu
    const auto sweep_t0 = std::chrono::steady_clock::now();
    auto secsSince = [sweep_t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - sweep_t0)
            .count();
    };
    if (!observe_dir_.empty()) {
        progress.open(observe_dir_ + "/PROGRESS.jsonl",
                      std::ios::app);
        if (!progress)
            warn("cannot open '%s/PROGRESS.jsonl'",
                 observe_dir_.c_str());
    }
    auto submitJob = [&](const std::string &workload,
                         const ExperimentConfig &cfg) {
        if (!progress.is_open())
            return pool.submit(workload, cfg);
        const std::string h = configHash(workload, cfg);
        std::uint64_t seq = 0;
        {
            std::lock_guard<std::mutex> g(prog_mu);
            seq = submitted++;
            JsonWriter w(progress);
            w.beginObject();
            w.field("event", std::string("queued"));
            w.field("seq", seq);
            w.field("hash", h);
            w.field("workload", workload);
            w.endObject();
            progress << "\n" << std::flush;
        }
        return pool.submitTask([&, workload, cfg, h, seq]() {
            {
                std::lock_guard<std::mutex> g(prog_mu);
                JsonWriter w(progress);
                w.beginObject();
                w.field("event", std::string("started"));
                w.field("seq", seq);
                w.field("hash", h);
                w.field("workload", workload);
                w.field("tSec", secsSince());
                w.endObject();
                progress << "\n" << std::flush;
            }
            const double t0 = secsSince();
            RunResult r = runWorkload(workload, cfg);
            const double wall = secsSince() - t0;
            {
                std::lock_guard<std::mutex> g(prog_mu);
                const std::uint64_t done = ++finished;
                const double elapsed = secsSince();
                const double eta =
                    done > 0 && submitted > done
                        ? elapsed / static_cast<double>(done) *
                              static_cast<double>(submitted - done)
                        : 0.0;
                JsonWriter w(progress);
                w.beginObject();
                w.field("event", std::string("finished"));
                w.field("seq", seq);
                w.field("hash", h);
                w.field("workload", workload);
                w.field("tSec", elapsed);
                w.field("wallSec", wall);
                w.field("done", done);
                w.field("total", submitted);
                w.field("etaSec", eta);
                w.endObject();
                progress << "\n" << std::flush;
            }
            return r;
        });
    };

    // Submit in deterministic (handle, seed) order. Baselines are
    // memoized as shared futures keyed by their configKey(), so every
    // normalized request of the same unsecure run reuses one
    // simulation.
    std::map<std::string, std::shared_future<RunResult>> baselines;
    struct NormFutures
    {
        std::vector<std::future<RunResult>> secure;
        std::vector<std::shared_future<RunResult>> base;
    };
    std::vector<NormFutures> norm_futs(norm_.size());

    for (std::size_t i = 0; i < norm_.size(); ++i) {
        NormRequest &req = norm_[i];
        for (int s = 1; s <= seeds_; ++s) {
            ExperimentConfig cfg = req.cfg;
            cfg.seed = static_cast<std::uint64_t>(s);
            const ExperimentConfig base = baselineConfig(cfg);
            const std::string key = configKey(req.workload, base);
            auto it = baselines.find(key);
            if (it == baselines.end()) {
                it = baselines
                         .emplace(key,
                                  submitJob(req.workload,
                                            withObserve(
                                                req.workload, base))
                                      .share())
                         .first;
                ++baseline_runs_;
            } else {
                ++baseline_hits_;
            }
            norm_futs[i].base.push_back(it->second);
            norm_futs[i].secure.push_back(submitJob(
                req.workload, withObserve(req.workload, cfg)));
        }
    }

    std::vector<std::future<RunResult>> raw_futs;
    raw_futs.reserve(raw_.size());
    for (RawRequest &req : raw_)
        raw_futs.push_back(submitJob(
            req.workload, withObserve(req.workload, req.cfg)));

    // Seed the index right away: a campaign killed before its first
    // harvest still leaves a parseable (empty) manifest behind.
    writeIndex();

    // Harvest in submission order; the reduction below is the exact
    // arithmetic of the historical serial runNormalized() loop, so
    // converted benches reproduce their old output digit-for-digit.
    for (std::size_t i = 0; i < norm_.size(); ++i) {
        NormRequest &req = norm_[i];
        for (int s = 1; s <= seeds_; ++s) {
            const std::size_t k = static_cast<std::size_t>(s - 1);
            ExperimentConfig cfg = req.cfg;
            cfg.seed = static_cast<std::uint64_t>(s);
            const RunResult &b = norm_futs[i].base[k].get();
            harvestedJob(req.workload, baselineConfig(cfg));
            const RunResult r = norm_futs[i].secure[k].get();
            harvestedJob(req.workload, cfg);
            req.result.time += normalizedTime(r, b) / seeds_;
            req.result.traffic += normalizedTraffic(r, b) / seeds_;
            if (s == seeds_)
                req.result.sample = r;
        }
    }
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        raw_[i].result = raw_futs[i].get();
        harvestedJob(raw_[i].workload, raw_[i].cfg);
    }
}

const NormResult &
Sweep::normalized(std::size_t handle) const
{
    MGSEC_ASSERT(ran_, "Sweep::normalized before run()");
    MGSEC_ASSERT(handle < norm_.size(), "bad normalized handle");
    return norm_[handle].result;
}

const RunResult &
Sweep::raw(std::size_t handle) const
{
    MGSEC_ASSERT(ran_, "Sweep::raw before run()");
    MGSEC_ASSERT(handle < raw_.size(), "bad raw handle");
    return raw_[handle].result;
}

} // namespace mgsec
