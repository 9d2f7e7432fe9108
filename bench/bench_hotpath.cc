/**
 * @file
 * Self-measuring perf harness for the simulator's hot paths.
 *
 * Unlike the figure benches (which measure the *simulated* system),
 * this driver measures the simulator itself: raw event-queue
 * throughput, packet pool recycling, GHASH bandwidth of the
 * table-driven path against the bit-serial reference, the
 * end-to-end wall-clock of a reference workload, and the cost of
 * each observability sink alone and all together. CI runs it on every
 * push so hot-path regressions show up as numbers, not vibes.
 *
 * Usage:
 *   bench_hotpath [--json FILE] [--scale S] [--quick]
 *                 [--crypto-impl I]
 *
 * --json FILE  also emit machine-readable results (BENCH_hotpath.json)
 * --scale S    workload size multiplier for the end-to-end run (0.2)
 * --quick      cut the microbench repetition counts ~8x (smoke runs)
 * --crypto-impl I  tier for the non-crypto sections (auto|portable|
 *              simd); the cryptoTiers section always measures both
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/json_out.hh"
#include "core/system.hh"
#include "crypto/dispatch.hh"
#include "crypto/gcm.hh"
#include "crypto/ghash.hh"
#include "crypto/otp.hh"
#include "net/packet_pool.hh"
#include "sim/event_queue.hh"
#include "sim/knob.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace
{

using namespace mgsec;
using namespace mgsec::crypto;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string json;
    double scale = 0.2;
    bool quick = false;
    CryptoImpl cryptoImpl = CryptoImpl::Auto;
};

Args
parseArgs(int argc, char **argv)
{
    static const std::vector<Knob<Args>> rows = {
        text<&Args::json>("json", "also write the results as JSON"),
        number<&Args::scale>("scale", nullptr, 1e-6, 1e6,
                             "workload size multiplier"),
        choice<&Args::cryptoImpl>("crypto-impl", nullptr, kCryptoImplNames,
                                  "host crypto tier"),
    };
    Args a;
    const auto usage = [](std::ostream &os) {
        os << "usage: bench_hotpath [--FLAG VALUE]... [--quick]\n";
        printKnobHelp(os, rows, Args{});
    };
    const ParseStatus st = walkArgs(
        argc, argv, usage,
        [&](const std::string &name, const std::string &value) {
            if (name == "quick")
                return a.quick = true, ParseStatus::Ok;
            return setKnob(rows, a, name, value);
        },
        {"--quick"});
    if (st == ParseStatus::Error)
        usage(std::cerr);
    if (st != ParseStatus::Ok)
        std::exit(st == ParseStatus::Help ? 0 : 2);
    return a;
}

/** Fold a digest into a sink so the work cannot be optimized away. */
std::uint64_t g_sink = 0;

void
consume(const Block &b)
{
    g_sink ^= load64be(b.data()) ^ load64be(b.data() + 8);
}

// --------------------------------------------------------------------
// GHASH: table-driven vs. bit-serial reference over the same buffer.
// --------------------------------------------------------------------

struct GhashResult
{
    double tableMBps = 0.0;
    double bitserialMBps = 0.0;
    double speedup = 0.0;
    std::uint64_t bytesHashed = 0;
};

/** The pre-table implementation: one gfmul (128 rounds) per block. */
Block
bitserialGhash(const Block &h, const std::uint8_t *data,
               std::size_t len)
{
    const U128 hw = blockToU128(h);
    U128 y{};
    for (std::size_t off = 0; off < len; off += 16) {
        Block blk{};
        std::memcpy(blk.data(), data + off,
                    std::min<std::size_t>(16, len - off));
        const U128 x = blockToU128(blk);
        y.hi ^= x.hi;
        y.lo ^= x.lo;
        y = gfmul(y, hw);
    }
    return u128ToBlock(y);
}

GhashResult
benchGhash(bool quick)
{
    // Pin the portable tier so "table" keeps meaning the Shoup
    // path whatever the process-wide selection is; the cryptoTiers
    // section measures the SIMD tier explicitly.
    const CryptoImpl prior = requestedCryptoImpl();
    setCryptoImpl(CryptoImpl::Portable);

    const std::size_t kBufBytes = 1u << 20; // 1 MiB per pass
    const int table_reps = quick ? 8 : 64;
    const int serial_reps = quick ? 1 : 4;

    std::vector<std::uint8_t> buf(kBufBytes);
    std::mt19937_64 rng(42);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());

    Block h{};
    for (std::size_t i = 0; i < h.size(); ++i)
        h[i] = static_cast<std::uint8_t>(rng());
    const GhashKey key(h);

    GhashResult r;

    auto t0 = Clock::now();
    for (int i = 0; i < table_reps; ++i) {
        Ghash gh(key);
        gh.updateBytes(buf.data(), buf.size());
        consume(gh.digest());
    }
    const double table_s = secondsSince(t0);
    r.tableMBps = static_cast<double>(kBufBytes) * table_reps /
                  table_s / 1e6;

    t0 = Clock::now();
    for (int i = 0; i < serial_reps; ++i)
        consume(bitserialGhash(h, buf.data(), buf.size()));
    const double serial_s = secondsSince(t0);
    r.bitserialMBps = static_cast<double>(kBufBytes) * serial_reps /
                      serial_s / 1e6;

    r.speedup = r.tableMBps / r.bitserialMBps;
    r.bytesHashed =
        static_cast<std::uint64_t>(kBufBytes) * (table_reps + serial_reps);

    // Cross-check while we are here: both paths must agree.
    Ghash gh(key);
    gh.updateBytes(buf.data(), 4096);
    if (gh.digest() != bitserialGhash(h, buf.data(), 4096)) {
        std::cerr << "FATAL: table GHASH disagrees with reference\n";
        std::exit(1);
    }
    setCryptoImpl(prior);
    return r;
}

// --------------------------------------------------------------------
// Crypto tiers: portable vs. SIMD over the data-plane primitives —
// GHASH absorption, CTR keystream, and full pad derivation.
// --------------------------------------------------------------------

struct CryptoTiersResult
{
    bool aesniDetected = false;
    bool pclmulDetected = false;
    bool ssse3Detected = false;
    bool simdCompiledIn = false;
    bool simdAvailable = false;
    std::string requestedImpl;
    std::string activeImpl;

    double ghashPortableMBps = 0.0;
    double ghashSimdMBps = 0.0;
    double ghashSimdSpeedup = 0.0;
    double ctrPortableMBps = 0.0;
    double ctrSimdMBps = 0.0;
    double ctrSimdSpeedup = 0.0;
    double padDerivePortablePerSec = 0.0;
    double padDeriveSimdPerSec = 0.0;
    double padDeriveSpeedup = 0.0;
};

CryptoTiersResult
benchCryptoTiers(bool quick)
{
    const std::size_t kBufBytes = 1u << 20; // 1 MiB per pass
    std::vector<std::uint8_t> buf(kBufBytes);
    std::mt19937_64 rng(7);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());

    std::array<std::uint8_t, 16> session_key{};
    for (auto &b : session_key)
        b = static_cast<std::uint8_t>(rng());
    Block h{};
    for (auto &b : h)
        b = static_cast<std::uint8_t>(rng());
    Iv96 iv{};
    for (auto &b : iv)
        b = static_cast<std::uint8_t>(rng());

    CryptoTiersResult r;
    const CpuFeatures &feat = cpuFeatures();
    r.aesniDetected = feat.aesni;
    r.pclmulDetected = feat.pclmul;
    r.ssse3Detected = feat.ssse3;
    r.simdCompiledIn = simdCompiledIn();
    r.simdAvailable = simdAvailable();
    const CryptoImpl prior = requestedCryptoImpl();
    r.requestedImpl = cryptoImplName(prior);
    r.activeImpl = cryptoImplName(activeCryptoImpl());

    auto ghashPass = [&](CryptoImpl impl, int reps) {
        setCryptoImpl(impl);
        const GhashKey key(h);
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            Ghash gh(key);
            gh.updateBytes(buf.data(), buf.size());
            consume(gh.digest());
        }
        return static_cast<double>(kBufBytes) * reps /
               secondsSince(t0) / 1e6;
    };
    auto ctrPass = [&](CryptoImpl impl, int reps) {
        setCryptoImpl(impl);
        const AesGcm gcm(session_key);
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            gcm.keystreamTo(iv, buf.data(), buf.size());
            g_sink ^= buf[0];
        }
        return static_cast<double>(kBufBytes) * reps /
               secondsSince(t0) / 1e6;
    };
    auto padPass = [&](CryptoImpl impl, int reps) {
        setCryptoImpl(impl);
        const PadFactory pads(session_key);
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            const MessagePad p = pads.derive(
                1, 2, static_cast<std::uint64_t>(i));
            g_sink ^= p.encPad[0] ^ p.authPad[0];
        }
        return static_cast<double>(reps) / secondsSince(t0);
    };

    r.ghashPortableMBps =
        ghashPass(CryptoImpl::Portable, quick ? 8 : 64);
    r.ctrPortableMBps = ctrPass(CryptoImpl::Portable, quick ? 1 : 4);
    r.padDerivePortablePerSec =
        padPass(CryptoImpl::Portable, quick ? 2'000 : 20'000);

    if (r.simdAvailable) {
        // Cross-check first: both tiers must produce identical
        // keystream bytes and GHASH digests over this very buffer.
        std::vector<std::uint8_t> ks_p(4096), ks_s(4096);
        setCryptoImpl(CryptoImpl::Portable);
        AesGcm(session_key).keystreamTo(iv, ks_p.data(), ks_p.size());
        const GhashKey key(h);
        Ghash ghp(key);
        ghp.updateBytes(buf.data(), 4096 + 24);
        setCryptoImpl(CryptoImpl::Simd);
        AesGcm(session_key).keystreamTo(iv, ks_s.data(), ks_s.size());
        Ghash ghs(key);
        ghs.updateBytes(buf.data(), 4096 + 24);
        if (ks_p != ks_s || ghp.digest() != ghs.digest()) {
            std::cerr << "FATAL: SIMD tier disagrees with portable\n";
            std::exit(1);
        }

        r.ghashSimdMBps =
            ghashPass(CryptoImpl::Simd, quick ? 64 : 512);
        r.ctrSimdMBps = ctrPass(CryptoImpl::Simd, quick ? 32 : 256);
        r.padDeriveSimdPerSec =
            padPass(CryptoImpl::Simd, quick ? 20'000 : 200'000);
        r.ghashSimdSpeedup = r.ghashSimdMBps / r.ghashPortableMBps;
        r.ctrSimdSpeedup = r.ctrSimdMBps / r.ctrPortableMBps;
        r.padDeriveSpeedup =
            r.padDeriveSimdPerSec / r.padDerivePortablePerSec;
    }

    setCryptoImpl(prior);
    return r;
}

// --------------------------------------------------------------------
// Event queue: steady-state schedule/run throughput.
// --------------------------------------------------------------------

struct EventQueueResult
{
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
};

EventQueueResult
benchEventQueue(bool quick)
{
    // Model the simulator's steady state: a fixed population of
    // in-flight events, each rescheduling itself on execution, so the
    // queue churns at constant depth exactly like a run at peak
    // occupancy.
    const std::uint64_t kPopulation = 1024;
    const std::uint64_t kTotal = quick ? 2'000'000 : 16'000'000;

    EventQueue eq;
    eq.reserve(kPopulation);
    std::uint64_t fired = 0;

    struct Self
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t total;

        void
        operator()() const
        {
            ++*fired;
            if (*fired + 1024 <= total) {
                // Deltas of 1-13 ticks spread events over the wheel;
                // every 100th lands past its horizon, in the far heap,
                // and migrates back as time advances (simulated runs
                // schedule about 0.1% that far ahead; docs/PERF.md).
                const std::uint64_t n = *fired;
                const std::uint64_t delta =
                    n % 100 == 0 ? EventQueue::kWheelTicks + n % 7 * 97
                                 : n % 13 + 1;
                eq->scheduleIn(static_cast<Cycles>(delta), *this);
            }
        }
    };

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPopulation; ++i)
        eq.schedule(i % 7 + 1, Self{&eq, &fired, kTotal});
    eq.run();
    const double secs = secondsSince(t0);

    EventQueueResult r;
    r.events = eq.executed();
    r.eventsPerSec = static_cast<double>(r.events) / secs;
    return r;
}

// --------------------------------------------------------------------
// Packet pool: acquire/release churn, pooled vs. plain allocation.
// --------------------------------------------------------------------

struct PacketPoolResult
{
    double pooledPacketsPerSec = 0.0;
    double mallocPacketsPerSec = 0.0;
    double speedup = 0.0;
    std::uint64_t reusedPackets = 0;
    std::uint64_t freshPackets = 0;
};

double
packetChurn(std::uint64_t iters)
{
    // Eight in flight at a time — roughly a link's worth of packets
    // between a sender and its ACK.
    constexpr std::size_t kInFlight = 8;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        PacketPtr live[kInFlight];
        for (std::size_t j = 0; j < kInFlight; ++j) {
            live[j] = makePacket();
            live[j]->src = 1;
            live[j]->dst = 2;
            live[j]->payloadBytes = 128;
            live[j]->acks.push_back({2, i, 0});
        }
        g_sink += live[0]->payloadBytes;
        // Destructors release all eight back to the pool.
    }
    const double secs = secondsSince(t0);
    return static_cast<double>(iters) * kInFlight / secs;
}

PacketPoolResult
benchPacketPool(bool quick)
{
    const std::uint64_t iters = quick ? 250'000 : 2'000'000;
    PacketPoolResult r;

    PacketPool::setEnabled(true);
    PacketPool::resetStats();
    packetChurn(iters / 10); // warm the free list
    PacketPool::resetStats();
    r.pooledPacketsPerSec = packetChurn(iters);
    r.reusedPackets = PacketPool::stats().reusedPackets;
    r.freshPackets = PacketPool::stats().freshPackets;

    PacketPool::setEnabled(false);
    r.mallocPacketsPerSec = packetChurn(iters);
    PacketPool::setEnabled(true);

    r.speedup = r.pooledPacketsPerSec / r.mallocPacketsPerSec;
    return r;
}

// --------------------------------------------------------------------
// End to end: wall-clock of one reference workload.
// --------------------------------------------------------------------

struct EndToEndResult
{
    std::string workload;
    double wallSec = 0.0;
    std::uint64_t simCycles = 0;
    std::uint64_t events = 0;
    std::uint64_t packets = 0;
    double cyclesPerSec = 0.0;
    double eventsPerSec = 0.0;
    double packetsPerSec = 0.0;
};

EndToEndResult
benchEndToEnd(double scale, bool quick)
{
    // The paper's headline configuration: dynamic scheme + batching.
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.scale = quick ? scale * 0.5 : scale;

    EndToEndResult r;
    r.workload = "mm";

    const WorkloadProfile profile =
        makeProfile(r.workload, cfg.scale, cfg.numGpus);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);

    const auto t0 = Clock::now();
    const RunResult run = sys.run();
    r.wallSec = secondsSince(t0);

    r.simCycles = run.cycles;
    r.events = sys.executedEvents();
    r.packets = run.packets;
    r.cyclesPerSec = static_cast<double>(r.simCycles) / r.wallSec;
    r.eventsPerSec = static_cast<double>(r.events) / r.wallSec;
    r.packetsPerSec = static_cast<double>(r.packets) / r.wallSec;
    return r;
}

// --------------------------------------------------------------------
// Event kernel: one wide (16-GPU) simulation at 1/2/4 sim threads.
// Reports events/s and speedup over one worker, and hard-fails if the
// kernel breaks either hot-path guarantee: the executed events and
// the published result must be thread-count invariant, and warmed
// worker pools must run the whole simulation without one fresh
// allocation.
// --------------------------------------------------------------------

struct SimThreadsPoint
{
    std::uint32_t threads = 0;
    double wallSec = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double speedup = 0.0; ///< events/s over the one-worker run
    std::uint64_t pdesWindows = 0;
    std::uint64_t domainCrossings = 0;
    std::uint64_t windowStalls = 0;
    std::uint64_t poolFreshPackets = 0;
    std::uint64_t poolFreshPayloads = 0;
};

struct SimThreadsResult
{
    std::vector<SimThreadsPoint> points;
    unsigned hwThreads = 0;
};

SimThreadsResult
benchSimThreads(double scale, bool quick)
{
    // The case PDES exists for: a single wide simulation, where
    // --jobs cannot help. 16 GPUs = 17 domains; the problem size
    // deliberately does NOT shrink with the GPU count here.
    ExperimentConfig cfg;
    cfg.numGpus = 16;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.strongScaling = false;
    cfg.scale = quick ? scale * 0.5 : scale;

    SimThreadsResult r;
    r.hwThreads = std::thread::hardware_concurrency();
    std::string serial_json;
    std::uint64_t serial_events = 0;
    for (const std::uint32_t t : {1u, 2u, 4u}) {
        cfg.simThreads = t;
        const WorkloadProfile profile =
            makeProfile("mm", cfg.scale, cfg.numGpus);
        MultiGpuSystem sys(makeSystemConfig(cfg), profile);
        const auto t0 = Clock::now();
        const RunResult run = sys.run();

        SimThreadsPoint p;
        p.threads = t;
        p.wallSec = secondsSince(t0);
        p.events = sys.executedEvents();
        p.eventsPerSec = static_cast<double>(p.events) / p.wallSec;
        p.pdesWindows = run.pdesWindows;
        p.domainCrossings = run.domainCrossings;
        p.windowStalls = run.windowStalls;
        p.poolFreshPackets = run.poolFreshPackets;
        p.poolFreshPayloads = run.poolFreshPayloads;

        if (t == 1) {
            serial_json = resultToJson(run);
            serial_events = p.events;
        } else {
            // Thread-count invariance, event for event.
            if (p.events != serial_events ||
                resultToJson(run) != serial_json) {
                std::cerr << "FATAL: " << t << "-thread run diverged "
                          << "from one worker (" << p.events << " vs "
                          << serial_events << " events)\n";
                std::exit(1);
            }
            // Satellite guarantee: per-domain queues and preloaded
            // worker pools keep the hot path allocation-free.
            if (run.poolFreshPackets != 0 ||
                run.poolFreshPayloads != 0) {
                std::cerr << "FATAL: sharded run (" << t
                          << " threads) hit the allocator "
                          << run.poolFreshPackets << "+"
                          << run.poolFreshPayloads
                          << " times after preload\n";
                std::exit(1);
            }
        }
        if (!r.points.empty())
            p.speedup = p.eventsPerSec / r.points[0].eventsPerSec;
        else
            p.speedup = 1.0;
        r.points.push_back(p);
    }
    return r;
}

// --------------------------------------------------------------------
// Observability: the price of each sink. A 16-GPU nvswitch run (big
// enough that sinks-off takes ~0.2 s even under --quick) is timed
// with sinks off, then trace, metrics, attribution and the wire
// observer each alone, then all four on; configurations alternate
// and each keeps its minimum over the reps. The small reference run
// (4-GPU mm, trace + attribution + metrics) supplies the simulated
// counts BENCH_baseline.json pins. Last, a proof that compiled-in-
// but-disabled hooks stay allocation-free.
// --------------------------------------------------------------------

enum SinkMask : unsigned
{
    kSinkTrace = 1,
    kSinkMetrics = 2,
    kSinkAttr = 4,
    kSinkWire = 8,
    kSinkAll = 15,
};

/** One row of the per-sink ledger. */
struct SinkCost
{
    const char *name;
    unsigned sinks;
    double wallSec = 1e30; ///< minimum over the reps
    double pct = 0.0;      ///< over the sinks-off minimum
};

struct ObserveResult
{
    // Reference run (counts pinned by BENCH_baseline.json).
    double wallSecOff = 0.0;
    double wallSecOn = 0.0;
    double overheadPct = 0.0;
    std::uint64_t traceEvents = 0;
    std::uint64_t metricSamples = 0;
    std::uint64_t attrFolds = 0;
    std::uint64_t freshAfterTrace = 0;

    // Per-sink ledger; sinks[0] is sinks off, the last all on.
    std::uint32_t ledgerGpus = 0;
    double ledgerScale = 0.0;
    int ledgerReps = 0;
    std::vector<SinkCost> sinks;
};

/** Swallows trace bytes so only event formatting is measured. */
struct NullBuf : std::streambuf
{
    int
    overflow(int c) override
    {
        return c;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** Wall seconds of one run() with the @p sinks attached. */
double
observedRun(const ExperimentConfig &cfg, const WorkloadProfile &profile,
            unsigned sinks, ObserveResult *counts = nullptr)
{
    NullBuf nb;
    std::ostream null_os(&nb);
    MultiGpuSystem sys(makeSystemConfig(cfg), profile);
    // Attribution first: the sampler registers percentile columns
    // only for a collector that already exists.
    if (sinks & kSinkAttr)
        sys.enableAttribution();
    if (sinks & kSinkTrace)
        sys.enableTrace(null_os);
    if (sinks & kSinkWire)
        sys.enableWireObserver();
    if (sinks & kSinkMetrics)
        sys.enableMetrics(1000, 4096);
    const auto t0 = Clock::now();
    sys.run();
    const double wall = secondsSince(t0);
    if (counts) {
        counts->traceEvents = sys.traceSink()->events();
        counts->metricSamples = sys.metrics()->samples();
        counts->attrFolds = sys.attribution()->folds();
    }
    return wall;
}

ObserveResult
benchObserve(double scale, bool quick)
{
    ObserveResult r;
    {
        ExperimentConfig cfg;
        cfg.scheme = OtpScheme::Dynamic;
        cfg.batching = true;
        cfg.scale = quick ? scale * 0.5 : scale;
        const WorkloadProfile profile =
            makeProfile("mm", cfg.scale, cfg.numGpus);
        r.wallSecOff = observedRun(cfg, profile, 0);
        r.wallSecOn = observedRun(cfg, profile,
                                  kSinkTrace | kSinkAttr | kSinkMetrics,
                                  &r);
        r.overheadPct = (r.wallSecOn / r.wallSecOff - 1.0) * 100.0;
    }

    ExperimentConfig cfg;
    cfg.numGpus = 16;
    cfg.topology.kind = TopologyKind::NvSwitch;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.scale = (quick ? 2.5 : 5.0) * scale;
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);
    r.ledgerGpus = cfg.numGpus;
    r.ledgerScale = cfg.scale;
    r.ledgerReps = quick ? 3 : 5;
    r.sinks = {{"off", 0},
               {"trace", kSinkTrace},
               {"metrics", kSinkMetrics},
               {"attr", kSinkAttr},
               {"wire", kSinkWire},
               {"all", kSinkAll}};
    for (int rep = 0; rep < r.ledgerReps; ++rep) {
        for (SinkCost &c : r.sinks)
            c.wallSec = std::min(c.wallSec,
                                 observedRun(cfg, profile, c.sinks));
    }
    for (SinkCost &c : r.sinks)
        c.pct = (c.wallSec / r.sinks[0].wallSec - 1.0) * 100.0;

    // With the sinks gone, the hooks must again cost exactly one
    // null test: a warm churn may not touch the allocator.
    PacketPool::resetStats();
    packetChurn(quick ? 25'000 : 200'000);
    r.freshAfterTrace = PacketPool::stats().freshPackets;
    return r;
}

// --------------------------------------------------------------------
// Self-profiler: end-to-end with the host profiler off vs. on. Off
// must cost nothing (the hooks are one null pointer test); on must
// stay under a couple percent. A profiled sharded run must also keep
// the packet hot path allocation-free — the profiler's only memory
// is its own pre-sized lanes.
// --------------------------------------------------------------------

struct ProfilerResult
{
    double wallSecOff = 0.0;
    double wallSecOn = 0.0;
    double overheadPct = 0.0;
    std::uint64_t spans = 0;
    std::uint64_t shardedSpans = 0;
    std::uint64_t shardedWindows = 0;
    std::uint64_t poolFreshPackets = 0;  ///< profiled sharded run
    std::uint64_t poolFreshPayloads = 0; ///< profiled sharded run
};

ProfilerResult
benchProfiler(double scale, bool quick)
{
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.scale = quick ? scale * 0.5 : scale;
    const WorkloadProfile profile =
        makeProfile("mm", cfg.scale, cfg.numGpus);

    // Minimum over alternating repetitions: the delta being gated
    // (a dozen clock reads) is far below scheduler noise on one
    // 20 ms run, and min-of-N is the standard estimator for "cost
    // when nothing else interfered".
    ProfilerResult r;
    r.wallSecOff = 1e30;
    r.wallSecOn = 1e30;
    const int reps = quick ? 3 : 5;
    for (int i = 0; i < reps; ++i) {
        {
            MultiGpuSystem sys(makeSystemConfig(cfg), profile);
            const auto t0 = Clock::now();
            sys.run();
            r.wallSecOff = std::min(r.wallSecOff, secondsSince(t0));
        }
        {
            MultiGpuSystem sys(makeSystemConfig(cfg), profile);
            sys.enableProfiler();
            const auto t0 = Clock::now();
            sys.run();
            r.wallSecOn = std::min(r.wallSecOn, secondsSince(t0));
            r.spans = sys.profiler()->totalSpans();
        }
    }
    r.overheadPct = (r.wallSecOn / r.wallSecOff - 1.0) * 100.0;

    // The multi-worker allocation guarantee must survive with
    // per-window span recording on every worker.
    {
        ExperimentConfig pc = cfg;
        pc.numGpus = 16;
        pc.strongScaling = false;
        pc.simThreads = 2;
        const WorkloadProfile pp =
            makeProfile("mm", pc.scale, pc.numGpus);
        MultiGpuSystem sys(makeSystemConfig(pc), pp);
        sys.enableProfiler();
        const RunResult run = sys.run();
        r.shardedSpans = sys.profiler()->totalSpans();
        r.shardedWindows = sys.profiler()->profiledWindows();
        r.poolFreshPackets = run.poolFreshPackets;
        r.poolFreshPayloads = run.poolFreshPayloads;
        if (run.poolFreshPackets != 0 ||
            run.poolFreshPayloads != 0) {
            std::cerr << "FATAL: profiled sharded run hit the "
                      << "allocator " << run.poolFreshPackets << "+"
                      << run.poolFreshPayloads
                      << " times after preload\n";
            std::exit(1);
        }
    }
    return r;
}

void
writeJson(const std::string &path, const GhashResult &gh,
          const CryptoTiersResult &ct, const EventQueueResult &eq,
          const PacketPoolResult &pp, const EndToEndResult &e2e,
          const SimThreadsResult &st, const ObserveResult &obs,
          const ProfilerResult &pr)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", std::string("hotpath"));

    w.key("ghash").beginObject();
    w.field("tableMBps", gh.tableMBps);
    w.field("bitserialMBps", gh.bitserialMBps);
    w.field("speedup", gh.speedup);
    w.field("bytesHashed", gh.bytesHashed);
    w.endObject();

    w.key("cryptoTiers").beginObject();
    w.key("dispatch").beginObject();
    w.field("aesniDetected", ct.aesniDetected);
    w.field("pclmulDetected", ct.pclmulDetected);
    w.field("ssse3Detected", ct.ssse3Detected);
    w.field("simdCompiledIn", ct.simdCompiledIn);
    w.field("simdAvailable", ct.simdAvailable);
    w.field("requestedImpl", ct.requestedImpl);
    w.field("activeImpl", ct.activeImpl);
    w.endObject();
    w.field("ghashPortableMBps", ct.ghashPortableMBps);
    w.field("ghashSimdMBps", ct.ghashSimdMBps);
    w.field("ghashSimdSpeedup", ct.ghashSimdSpeedup);
    w.field("ctrPortableMBps", ct.ctrPortableMBps);
    w.field("ctrSimdMBps", ct.ctrSimdMBps);
    w.field("ctrSimdSpeedup", ct.ctrSimdSpeedup);
    w.field("padDerivePortablePerSec", ct.padDerivePortablePerSec);
    w.field("padDeriveSimdPerSec", ct.padDeriveSimdPerSec);
    w.field("padDeriveSpeedup", ct.padDeriveSpeedup);
    w.endObject();

    w.key("eventQueue").beginObject();
    w.field("eventsPerSec", eq.eventsPerSec);
    w.field("events", eq.events);
    w.endObject();

    w.key("packetPool").beginObject();
    w.field("pooledPacketsPerSec", pp.pooledPacketsPerSec);
    w.field("mallocPacketsPerSec", pp.mallocPacketsPerSec);
    w.field("speedup", pp.speedup);
    w.field("reusedPackets", pp.reusedPackets);
    w.field("freshPackets", pp.freshPackets);
    w.endObject();

    w.key("endToEnd").beginObject();
    w.field("workload", e2e.workload);
    w.field("wallSec", e2e.wallSec);
    w.field("simCycles", e2e.simCycles);
    w.field("events", e2e.events);
    w.field("packets", e2e.packets);
    w.field("cyclesPerSec", e2e.cyclesPerSec);
    w.field("eventsPerSec", e2e.eventsPerSec);
    w.field("packetsPerSec", e2e.packetsPerSec);
    w.endObject();

    w.key("simThreads").beginObject();
    w.field("hwThreads", static_cast<std::uint64_t>(st.hwThreads));
    for (const SimThreadsPoint &p : st.points) {
        w.key(strformat("t%u", p.threads)).beginObject();
        w.field("threads", static_cast<std::uint64_t>(p.threads));
        w.field("wallSec", p.wallSec);
        w.field("events", p.events);
        w.field("eventsPerSec", p.eventsPerSec);
        w.field("speedup", p.speedup);
        w.field("pdesWindows", p.pdesWindows);
        w.field("domainCrossings", p.domainCrossings);
        w.field("windowStalls", p.windowStalls);
        w.field("poolFreshPackets", p.poolFreshPackets);
        w.field("poolFreshPayloads", p.poolFreshPayloads);
        w.endObject();
    }
    w.endObject();

    w.key("observe").beginObject();
    w.field("wallSecOff", obs.wallSecOff);
    w.field("wallSecOn", obs.wallSecOn);
    w.field("overheadPct", obs.overheadPct);
    w.field("traceEvents", obs.traceEvents);
    w.field("metricSamples", obs.metricSamples);
    w.field("attrFolds", obs.attrFolds);
    w.field("freshAfterTrace", obs.freshAfterTrace);
    w.key("sinks").beginObject();
    w.field("gpus", static_cast<std::uint64_t>(obs.ledgerGpus));
    w.field("scale", obs.ledgerScale);
    w.field("reps", static_cast<std::uint64_t>(obs.ledgerReps));
    w.field("wallSecOff", obs.sinks[0].wallSec);
    for (std::size_t i = 1; i < obs.sinks.size(); ++i)
        w.field(std::string(obs.sinks[i].name) + "Pct",
                obs.sinks[i].pct);
    w.endObject();
    w.endObject();

    w.key("profiler").beginObject();
    w.field("wallSecOff", pr.wallSecOff);
    w.field("wallSecOn", pr.wallSecOn);
    w.field("overheadPct", pr.overheadPct);
    w.field("spans", pr.spans);
    w.field("shardedSpans", pr.shardedSpans);
    w.field("shardedWindows", pr.shardedWindows);
    w.field("poolFreshPackets", pr.poolFreshPackets);
    w.field("poolFreshPayloads", pr.poolFreshPayloads);
    w.endObject();

    w.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    setCryptoImpl(args.cryptoImpl);

    std::cout << "=== hot-path perf harness\n"
              << "    measures the simulator, not the simulated "
                 "system\n\n";

    const GhashResult gh = benchGhash(args.quick);
    std::printf("ghash       table %9.1f MB/s   bit-serial %7.1f "
                "MB/s   speedup %.1fx\n",
                gh.tableMBps, gh.bitserialMBps, gh.speedup);

    const CryptoTiersResult ct = benchCryptoTiers(args.quick);
    std::printf("crypto      aes-ni=%d pclmul=%d ssse3=%d "
                "compiled=%d -> active '%s'\n",
                ct.aesniDetected ? 1 : 0, ct.pclmulDetected ? 1 : 0,
                ct.ssse3Detected ? 1 : 0, ct.simdCompiledIn ? 1 : 0,
                ct.activeImpl.c_str());
    if (ct.simdAvailable) {
        std::printf("  ghash     %9.1f MB/s portable  %9.1f MB/s "
                    "simd   speedup %.1fx\n",
                    ct.ghashPortableMBps, ct.ghashSimdMBps,
                    ct.ghashSimdSpeedup);
        std::printf("  ctr       %9.1f MB/s portable  %9.1f MB/s "
                    "simd   speedup %.1fx\n",
                    ct.ctrPortableMBps, ct.ctrSimdMBps,
                    ct.ctrSimdSpeedup);
        std::printf("  pad       %9.0f op/s portable  %9.0f op/s "
                    "simd   speedup %.1fx\n",
                    ct.padDerivePortablePerSec,
                    ct.padDeriveSimdPerSec, ct.padDeriveSpeedup);
    } else {
        std::printf("  ghash     %9.1f MB/s portable  (no SIMD "
                    "tier)\n",
                    ct.ghashPortableMBps);
        std::printf("  ctr       %9.1f MB/s portable\n",
                    ct.ctrPortableMBps);
        std::printf("  pad       %9.0f op/s portable\n",
                    ct.padDerivePortablePerSec);
    }

    const EventQueueResult eq = benchEventQueue(args.quick);
    std::printf("event queue %9.2f Mevents/s   (%llu events)\n",
                eq.eventsPerSec / 1e6,
                static_cast<unsigned long long>(eq.events));

    const PacketPoolResult pp = benchPacketPool(args.quick);
    std::printf("packet pool %9.2f Mpkts/s pooled   %6.2f Mpkts/s "
                "malloc   speedup %.2fx\n",
                pp.pooledPacketsPerSec / 1e6,
                pp.mallocPacketsPerSec / 1e6, pp.speedup);
    if (pp.freshPackets != 0) {
        std::printf("  WARNING: %llu fresh allocations after warm-up "
                    "(expected 0)\n",
                    static_cast<unsigned long long>(pp.freshPackets));
    }

    const EndToEndResult e2e = benchEndToEnd(args.scale, args.quick);
    std::printf("end-to-end  %s: %.2f s wall   %.1f Mcycles/s   "
                "%.2f Mevents/s   %.0f kpkts/s\n",
                e2e.workload.c_str(), e2e.wallSec,
                e2e.cyclesPerSec / 1e6, e2e.eventsPerSec / 1e6,
                e2e.packetsPerSec / 1e3);

    const SimThreadsResult st = benchSimThreads(args.scale, args.quick);
    for (const SimThreadsPoint &p : st.points) {
        std::printf("sim threads %u: %6.2f s wall   %6.2f Mevents/s"
                    "   speedup %.2fx   windows=%llu crossings=%llu "
                    "stalls=%llu\n",
                    p.threads, p.wallSec, p.eventsPerSec / 1e6,
                    p.speedup,
                    static_cast<unsigned long long>(p.pdesWindows),
                    static_cast<unsigned long long>(p.domainCrossings),
                    static_cast<unsigned long long>(p.windowStalls));
    }
    if (st.hwThreads < 4) {
        std::printf("  note: only %u hardware threads — parallel "
                    "speedups are not meaningful here\n",
                    st.hwThreads);
    }

    const ObserveResult obs = benchObserve(args.scale, args.quick);
    std::printf("observe     %.2f s off   %.2f s on   overhead "
                "%+.1f%%   %llu trace events   %llu samples   "
                "%llu folds\n",
                obs.wallSecOff, obs.wallSecOn, obs.overheadPct,
                static_cast<unsigned long long>(obs.traceEvents),
                static_cast<unsigned long long>(obs.metricSamples),
                static_cast<unsigned long long>(obs.attrFolds));
    std::printf("  sinks     16-GPU nvswitch mm, min of %d: %.2f s "
                "off",
                obs.ledgerReps, obs.sinks[0].wallSec);
    for (std::size_t i = 1; i < obs.sinks.size(); ++i)
        std::printf("   %s %+.1f%%", obs.sinks[i].name, obs.sinks[i].pct);
    std::printf("\n");
    if (obs.freshAfterTrace != 0) {
        std::printf("  WARNING: %llu fresh allocations in a warm "
                    "churn after tracing (expected 0)\n",
                    static_cast<unsigned long long>(
                        obs.freshAfterTrace));
    }

    const ProfilerResult pr = benchProfiler(args.scale, args.quick);
    std::printf("profiler    %.2f s off   %.2f s on   overhead "
                "%+.1f%%   %llu spans   %llu sharded spans over "
                "%llu windows\n",
                pr.wallSecOff, pr.wallSecOn, pr.overheadPct,
                static_cast<unsigned long long>(pr.spans),
                static_cast<unsigned long long>(pr.shardedSpans),
                static_cast<unsigned long long>(pr.shardedWindows));

    if (!args.json.empty()) {
        writeJson(args.json, gh, ct, eq, pp, e2e, st, obs, pr);
        std::cout << "\nwrote " << args.json << "\n";
    }

    // Keep the sink observable so no measured loop is dead code.
    if (g_sink == 0xdeadbeefcafebabeULL)
        std::cout << "";
    return 0;
}
