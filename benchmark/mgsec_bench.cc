/**
 * @file
 * Repository benchmark program: one process measures one workload.
 *
 * A workload is a fixed list of (application, configuration) runs;
 * every secure configuration is normalized against the Unsecure run
 * of the same application, as Sweep::addNormalized does. Untraced
 * mode repeats the whole list ("a rep") until the time budget is
 * spent and reports medians over reps of the host-side cost (wall,
 * CPU, set-up, events/s, peak RSS) plus the simulated Ours/Unsecure
 * overheads. Traced mode runs the same list once more with the host
 * profiler on and a passive pre-wire recorder attached, then replays
 * the recorded traffic into standalone layers (Network, pad tables,
 * EventQueue, PadFactory, TraceSource) to split host time by layer.
 *
 * Every run is checked: it must complete, its result+stats digest
 * must repeat exactly across reps and between the traced and the
 * untraced pass, and functional-crypto runs must verify MACs with no
 * failures.
 *
 * The process pins itself to the core it starts on. On a shared
 * virtual machine, barrier wake-ups across cores moved the sharded
 * kernel's wall time by 12-32% (IQR/median) between identical runs;
 * on one core its windows, barriers and capture replay all still
 * run, and the same test read 5.6%. Parallel speedup is therefore
 * not measured here (bench_hotpath reports it).
 *
 * Usage:
 *   mgsec_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--reps N] [--smoke]
 *
 * --seed N     ExperimentConfig::seed of every run (default 1)
 * --seconds S  untraced measurement budget; reps continue while the
 *              next one fits (default 10)
 * --trace 0|1  1 = per-layer pass instead of the end-to-end one
 * --reps N     minimum untraced reps (default 3)
 * --smoke      every workload at 1/20 of its size
 *
 * Prints one JSON document ("mgsec-bench-1") on stdout. Exit status
 * 1 when a correctness check failed (after printing), 2 on bad usage
 * or a non-Release build.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/json_in.hh"
#include "core/json_out.hh"
#include "core/system.hh"
#include "crypto/dispatch.hh"
#include "crypto/otp.hh"
#include "net/network.hh"
#include "secure/pad_table.hh"
#include "sim/event_queue.hh"
#include "sim/json_writer.hh"
#include "sim/profiler.hh"
#include "workload/profile.hh"
#include "workload/source.hh"

#ifndef MGSEC_BENCH_BUILD_TYPE
#define MGSEC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MGSEC_BENCH_COMPILER
#define MGSEC_BENCH_COMPILER "unknown"
#endif

namespace
{

using namespace mgsec;
using Clock = std::chrono::steady_clock;

/** Packets the traced pass records for the layer replays. */
constexpr std::size_t kMaxRecorded = 1'000'000;
/** Hard cap on untraced reps, whatever the budget. */
constexpr int kMaxReps = 200;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
fnv1aHex(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Swallows bytes and counts them: a sink's formatting cost without
 * the disk, and its output volume as a number.
 */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes_;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** Keeps timed loops from being optimized away. */
volatile std::uint64_t g_sink = 0;

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

enum SinkBits : unsigned
{
    kSinkTrace = 1,
    kSinkMetrics = 2,
    kSinkAttr = 4,
    kSinkWire = 8,
    kSinkAll = 15,
};

/** One simulated configuration of a workload. */
struct Spec
{
    std::string app;
    /** Unsecure, Private, Cached, Dynamic or Ours (Dynamic+batching). */
    std::string label;
    ExperimentConfig cfg;
    bool functionalCrypto = false;
    /** SinkBits attached before run(). */
    unsigned sinks = 0;
};

struct Workload
{
    std::string name;
    std::vector<Spec> specs;
};

ExperimentConfig
labelled(const std::string &label, ExperimentConfig cfg)
{
    if (label == "Unsecure") {
        cfg.scheme = OtpScheme::Unsecure;
    } else if (label == "Private") {
        cfg.scheme = OtpScheme::Private;
    } else if (label == "Cached") {
        cfg.scheme = OtpScheme::Cached;
    } else {
        cfg.scheme = OtpScheme::Dynamic;
        cfg.batching = label == "Ours";
    }
    return cfg;
}

/**
 * The four workloads. Sizes are chosen so one rep takes three to six
 * seconds on one core of a 2.1 GHz Xeon (KVM guest): large
 * enough that Ours/Unsecure moves by under 2% between seeds, small
 * enough for several reps (and a median) per run. @p shrink scales
 * them all (smoke runs).
 */
bool
makeWorkload(const std::string &name, std::uint64_t seed, double shrink,
             std::uint32_t threads, Workload &w)
{
    w.name = name;
    ExperimentConfig base;
    base.seed = seed;
    base.simThreads = 1;
    std::vector<std::string> apps{"mm"};
    std::vector<std::string> labels{"Unsecure", "Ours"};
    bool functional = false;
    unsigned ours_sinks = 0;

    if (name == "fig21-p2p4") {
        // The paper's machine and Fig. 21 matrix: every pad-table
        // scheme over all 17 applications (all three RPKI classes).
        apps = workloadNames();
        labels = {"Unsecure", "Private", "Cached", "Dynamic", "Ours"};
        base.scale = 0.3;
    } else if (name == "scale64-hier-t4") {
        // The sharded kernel at its largest fabric: barrier waits,
        // window imbalance, 64-peer pad tables, trunk routing.
        base.numGpus = 64;
        base.topology.kind = TopologyKind::Hier;
        base.topology.gpusPerNode = 8;
        base.strongScaling = false;
        base.simThreads = threads;
        base.scale = 1.0;
    } else if (name == "observe16-nvswitch") {
        // Every observability sink on the secure run; the baseline
        // runs with sinks off, as mgsec_run does.
        base.numGpus = 16;
        base.topology.kind = TopologyKind::NvSwitch;
        base.scale = 4.0;
        ours_sinks = kSinkAll;
    } else if (name == "funccrypto-p2p4") {
        // Real AES-CTR/GHASH on every message: per-message MACs
        // (Private) against batched ones (Ours).
        apps = {"mm", "spmv"};
        labels = {"Unsecure", "Private", "Ours"};
        base.scale = 3.0;
        functional = true;
    } else {
        return false;
    }
    base.scale *= shrink;

    for (const std::string &app : apps) {
        for (const std::string &label : labels) {
            Spec s;
            s.app = app;
            s.label = label;
            s.cfg = labelled(label, base);
            s.functionalCrypto = functional && label != "Unsecure";
            s.sinks = label == "Ours" ? ours_sinks : 0;
            w.specs.push_back(std::move(s));
        }
    }
    return true;
}

/** Profile scale of a spec, exactly as runWorkload() derives it. */
double
profileScale(const ExperimentConfig &cfg)
{
    double scale = cfg.scale;
    if (cfg.strongScaling && cfg.numGpus != 0)
        scale *= static_cast<double>(kScalingBaselineGpus) /
                 static_cast<double>(cfg.numGpus);
    return scale;
}

// --------------------------------------------------------------------
// Stats helpers (dumpStatsJson is the one stable view of every count)
// --------------------------------------------------------------------

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Sum of scalar @p stat over every group whose name ends in @p sfx. */
double
statSum(const JsonValue &stats, const std::string &sfx,
        const std::string &stat)
{
    double total = 0.0;
    for (const auto &[group, g] : stats.fields) {
        if (!endsWith(group, sfx))
            continue;
        if (const JsonValue *s = g.find(stat)) {
            if (const JsonValue *v = s->find("value"))
                total += v->asNumber();
        }
    }
    return total;
}

// --------------------------------------------------------------------
// Passive pre-wire recorder (traced pass)
// --------------------------------------------------------------------

struct PktRec
{
    Tick tick = 0; ///< injectTick: when the message entered the channel
    NodeId src = 0;
    NodeId dst = 0;
    PacketType type = PacketType::ReadReq;
    bool secured = false;
    std::uint64_t ctr = 0;
    Bytes header = 0;
    Bytes payload = 0;
    Bytes secMeta = 0;
    Bytes ack = 0;
};

/** The packets of one recorded run, with the machine they ran on. */
struct Segment
{
    SystemConfig sys;
    std::vector<PktRec> pkts;
};

struct Recording
{
    Recording() = default;
    /** The hook attach() mounts holds this object's address. */
    Recording(const Recording &) = delete;
    Recording &operator=(const Recording &) = delete;

    std::vector<Segment> segments;
    std::size_t total = 0;
    std::uint64_t seen = 0;
    /** Event-queue depth sampled every 1024th packet. */
    double pendingSum = 0.0;
    std::uint64_t pendingSamples = 0;

    /**
     * Mount the recorder at the PreWire tamper point of @p sys. It
     * always forwards and never writes the packet, so the run's
     * results are untouched (checked through the digest). Hooks run
     * on the coordinator thread under both kernels.
     */
    void
    attach(MultiGpuSystem &sys, const SystemConfig &sc)
    {
        segments.push_back(Segment{sc, {}});
        const std::size_t idx = segments.size() - 1;
        EventQueue *eq = &sys.eventq();
        sys.network().setTamper(
            Network::TamperPoint::PreWire,
            [this, idx, eq](Packet &p) {
                if (total < kMaxRecorded) {
                    PktRec r;
                    r.tick = p.injectTick;
                    r.src = p.src;
                    r.dst = p.dst;
                    r.type = p.type;
                    r.secured = p.secured;
                    r.ctr = p.msgCtr;
                    r.header = p.headerBytes;
                    r.payload = p.payloadBytes;
                    r.secMeta = p.secMetaBytes;
                    r.ack = p.ackBytes;
                    segments[idx].pkts.push_back(r);
                    ++total;
                }
                if ((++seen & 1023) == 0) {
                    pendingSum += static_cast<double>(eq->pending());
                    ++pendingSamples;
                }
                return Network::TamperVerdict::Forward;
            });
    }
};

// --------------------------------------------------------------------
// One run
// --------------------------------------------------------------------

struct RunOut
{
    RunResult result;
    JsonValue stats;
    std::string digest;
    double wallS = 0.0;   ///< inside run()
    double cpuS = 0.0;    ///< process CPU time inside run()
    double setupS = 0.0;  ///< makeProfile + construction + enable*
    double profileS = 0.0;
    double constructS = 0.0;
    double flushS = 0.0;  ///< stats dump + sink writes after run()
    std::uint64_t events = 0;
};

/** Per-layer totals accumulated over the runs of the traced pass. */
struct Ledger
{
    // sim: the event kernel (host profiler phases)
    double execNs = 0, barrierNs = 0, replayNs = 0;
    double busyNs = 0, capacityNs = 0;
    double imbalanceSum = 0;
    std::uint64_t imbalanceWindows = 0;
    std::uint64_t events = 0, windows = 0, crossings = 0, stalls = 0;
    // crypto
    double sealNs = 0, openNs = 0, padgenNs = 0;
    double macsVerified = 0;
    // net
    std::uint64_t packets = 0, poolFresh = 0;
    std::array<double, kNumTrafficClasses> bytes{};
    // secure (Ours runs only: the mechanism under study)
    OtpStats otp;
    double wasted = 0, adjustments = 0, standaloneAcks = 0;
    double piggybacked = 0, trailers = 0;
    // gpu / mem / memsec
    double remoteOps = 0, localOps = 0, migrations = 0, latWeighted = 0;
    double l2Hits = 0, l2Misses = 0, tlbHits = 0, tlbMisses = 0;
    double walks = 0;
    // core
    double profileS = 0, constructS = 0;
    // sinks
    double traceBytes = 0, traceEvents = 0, metricSamples = 0;
    double gauges = 0, attrFolds = 0, flushS = 0;

    void
    add(const Spec &s, MultiGpuSystem &sys, const RunOut &o,
        std::uint64_t trace_bytes)
    {
        const RunResult &r = o.result;
        if (const Profiler *p = sys.profiler()) {
            execNs += static_cast<double>(
                p->phaseHist(kProfSerialExec).sum() +
                p->phaseHist(kProfDomainExec).sum());
            barrierNs +=
                static_cast<double>(p->phaseHist(kProfBarrierWait).sum());
            replayNs += static_cast<double>(
                p->phaseHist(kProfCaptureReplay).sum());
            for (unsigned l = 0; l < p->workers(); ++l)
                busyNs += static_cast<double>(p->laneBusyNs(l));
            capacityNs += static_cast<double>(p->workers()) *
                          static_cast<double>(p->wallNs());
            imbalanceSum += p->imbalance() *
                            static_cast<double>(p->profiledWindows());
            imbalanceWindows += p->profiledWindows();
            sealNs +=
                static_cast<double>(p->phaseHist(kProfCryptoSeal).sum());
            openNs +=
                static_cast<double>(p->phaseHist(kProfCryptoOpen).sum());
            padgenNs +=
                static_cast<double>(p->phaseHist(kProfPadGen).sum());
        }
        events += o.events;
        windows += r.pdesWindows;
        crossings += r.domainCrossings;
        stalls += r.windowStalls;
        macsVerified += statSum(o.stats, ".channel", "macsVerified");

        packets += r.packets;
        poolFresh += r.poolFreshPackets;
        for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
            bytes[c] += static_cast<double>(r.classBytes[c]);

        if (s.label == "Ours") {
            otp += r.otp;
            for (NodeId id = 0; id < sys.numNodes(); ++id) {
                if (const PadTable *t = sys.node(id).channel().padTable())
                    wasted += static_cast<double>(t->wastedGenerations());
            }
            adjustments += statSum(o.stats, ".pads", "adjustments");
            standaloneAcks += static_cast<double>(r.standaloneAcks);
            piggybacked += statSum(o.stats, ".channel", "piggybackedAcks");
            trailers += statSum(o.stats, ".channel", "batchTrailers");
        }

        remoteOps += static_cast<double>(r.remoteOps);
        localOps += static_cast<double>(r.localOps);
        migrations += static_cast<double>(r.migrations);
        latWeighted +=
            r.avgRemoteLatency * static_cast<double>(r.remoteOps);
        l2Hits += statSum(o.stats, ".l2", "hits");
        l2Misses += statSum(o.stats, ".l2", "misses");
        tlbHits += statSum(o.stats, ".l2tlb", "hits");
        tlbMisses += statSum(o.stats, ".l2tlb", "misses");
        for (NodeId id = 0; id < sys.numNodes(); ++id) {
            if (const MemProtectEngine *m = sys.node(id).memProtect())
                walks += static_cast<double>(m->counterMisses());
        }

        profileS += o.profileS;
        constructS += o.constructS;

        traceBytes += static_cast<double>(trace_bytes);
        if (const TraceSink *t = sys.traceSink())
            traceEvents += static_cast<double>(t->events());
        if (const MetricSampler *m = sys.metrics()) {
            metricSamples +=
                static_cast<double>(m->samples() + m->dropped());
            gauges += static_cast<double>(m->columns().size());
        }
        if (const LatencyAttribution *a = sys.attribution())
            attrFolds += static_cast<double>(a->folds());
        flushS += o.flushS;
    }
};

/**
 * Build, run and digest one spec. @p ledger (profiler on) and
 * @p rec (pre-wire recorder) are null on untraced runs.
 */
RunOut
runSpec(const Spec &s, unsigned sinks, Ledger *ledger, Recording *rec)
{
    RunOut out;
    // Declared before the system: ~TraceSink seals the JSON array
    // into this stream, so it must outlive the system.
    CountingBuf trace_buf;
    std::ostream trace_os(&trace_buf);

    const auto t0 = Clock::now();
    const WorkloadProfile profile =
        makeProfile(s.app, profileScale(s.cfg), s.cfg.numGpus);
    out.profileS = secondsSince(t0);
    SystemConfig sc = makeSystemConfig(s.cfg);
    sc.security.functionalCrypto = s.functionalCrypto;
    const auto t1 = Clock::now();
    MultiGpuSystem sys(sc, profile);
    out.constructS = secondsSince(t1);
    // Attribution first: the sampler registers percentile columns
    // only for a collector that already exists.
    if (sinks & kSinkAttr)
        sys.enableAttribution();
    if (sinks & kSinkTrace)
        sys.enableTrace(trace_os);
    if (sinks & kSinkWire)
        sys.enableWireObserver();
    if (sinks & kSinkMetrics)
        sys.enableMetrics(1000, 4096);
    if (ledger)
        sys.enableProfiler();
    if (rec)
        rec->attach(sys, sc);
    out.setupS = secondsSince(t0);

    const double c0 = cpuSeconds();
    const auto w0 = Clock::now();
    out.result = sys.run();
    out.wallS = secondsSince(w0);
    out.cpuS = cpuSeconds() - c0;
    out.events = sys.executedEvents();

    const auto f0 = Clock::now();
    std::ostringstream stats_os;
    sys.dumpStatsJson(stats_os);
    // WireObserver::writeJson is left out: on switch fabrics it reads
    // past the empty window vector of an unused link class and
    // crashes (mgsec_run --topology nvswitch --wire-json does too).
    CountingBuf flush_buf;
    std::ostream flush_os(&flush_buf);
    if (sys.metrics())
        sys.writeMetricsJson(flush_os);
    if (const LatencyAttribution *a = sys.attribution())
        a->writeJson(flush_os);
    out.flushS = secondsSince(f0);

    const std::string stats = stats_os.str();
    out.digest = fnv1aHex(resultToJson(out.result) + stats);
    std::string err;
    if (!jsonParse(stats, out.stats, err))
        out.stats = JsonValue{};
    if (ledger)
        ledger->add(s, sys, out, trace_buf.bytes());
    return out;
}

// --------------------------------------------------------------------
// Correctness accounting
// --------------------------------------------------------------------

struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /**
     * Account one run. @p expect is the digest this run must repeat
     * (null for the first run of a spec).
     */
    void
    run(const Spec &s, const RunOut &o, const std::string *expect,
        const char *pass)
    {
        ++attempted;
        std::vector<std::string> why;
        if (!o.result.completed)
            why.push_back("did not complete");
        if (o.stats.fields.empty())
            why.push_back("stats dump did not parse");
        if (expect && *expect != o.digest)
            why.push_back("digest " + o.digest + " != " + *expect);
        if (s.functionalCrypto) {
            if (statSum(o.stats, ".channel", "macsFailed") != 0.0)
                why.push_back("MAC verification failures");
            if (statSum(o.stats, ".channel", "decryptsBad") != 0.0)
                why.push_back("bad decryptions");
            if (statSum(o.stats, ".channel", "macsVerified") == 0.0)
                why.push_back("no MAC verified");
        }
        if (why.empty())
            return;
        ++failed;
        std::string msg = std::string(pass) + " " + s.app + "/" +
                          s.label + ":";
        for (const std::string &w : why)
            msg += " " + w + ";";
        failures.push_back(msg);
    }

    void
    fail(const std::string &msg)
    {
        ++attempted;
        ++failed;
        failures.push_back(msg);
    }
};

// --------------------------------------------------------------------
// Layer replays (traced pass): each layer alone, fed real traffic
// --------------------------------------------------------------------

PacketPtr
toPacket(const PktRec &r)
{
    PacketPtr p = makePacket();
    p->type = r.type;
    p->src = r.src;
    p->dst = r.dst;
    p->secured = r.secured;
    p->msgCtr = r.ctr;
    p->headerBytes = r.header;
    p->payloadBytes = r.payload;
    p->secMetaBytes = r.secMeta;
    p->ackBytes = r.ack;
    return p;
}

/**
 * Host ns per packet of a standalone Network on each recorded run's
 * fabric: the send event, routing, accounting and the delivery event.
 */
double
replayNetwork(const Recording &rec, Checks &checks)
{
    double ns = 0.0;
    std::uint64_t pkts = 0;
    for (const Segment &seg : rec.segments) {
        if (seg.pkts.empty())
            continue;
        const SystemConfig &sc = seg.sys;
        EventQueue eq;
        Network net("replay.net", eq, sc.numNodes(), sc.pcie, sc.nvlink,
                    sc.topology);
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < sc.numNodes(); ++n)
            net.setHandler(n, [&delivered](PacketPtr) { ++delivered; });
        const auto t0 = Clock::now();
        Tick t = 0;
        for (const PktRec &r : seg.pkts) {
            t = std::max(t, r.tick);
            eq.schedule(t, [&net, &r]() { net.send(toPacket(r)); });
            eq.run(t);
        }
        eq.run();
        ns += secondsSince(t0) * 1e9;
        pkts += seg.pkts.size();
        if (delivered != seg.pkts.size())
            checks.fail("network replay delivered " +
                        std::to_string(delivered) + " of " +
                        std::to_string(seg.pkts.size()) + " packets");
    }
    return ratio(ns, static_cast<double>(pkts));
}

/**
 * Host ns per secured message of the recorded claim stream replayed
 * into standalone pad tables of the run's scheme: acquireSend(dst) on
 * the sender's table, then acquireRecv(src, granted ctr) on the
 * receiver's, with simulated time advanced to each message's tick.
 */
double
replayClaims(const Recording &rec)
{
    double ns = 0.0;
    std::uint64_t claims = 0;
    for (const Segment &seg : rec.segments) {
        const SecurityConfig &sec = seg.sys.security;
        if (seg.pkts.empty() || !sec.secured())
            continue;
        const std::uint32_t n = seg.sys.numNodes();
        EventQueue eq;
        std::vector<std::unique_ptr<PadTable>> tables;
        for (NodeId id = 0; id < n; ++id)
            tables.push_back(makePadTable(
                sec.scheme, "replay.pads" + std::to_string(id), eq, id, n,
                sec.totalOtpEntries(n), sec.aesLatency, sec.dynParams));
        const auto t0 = Clock::now();
        Tick t = 0;
        for (const PktRec &r : seg.pkts) {
            if (!r.secured)
                continue;
            if (r.tick > t) {
                // Dynamic tables re-partition on a periodic event, so
                // time advances through the queue, never by fiat.
                t = r.tick;
                eq.schedule(t, []() {});
                eq.run(t);
            }
            const SendGrant g = tables[r.src]->acquireSend(r.dst);
            tables[r.dst]->acquireRecv(r.src, g.ctr,
                                       g.outcome == OtpOutcome::Miss);
            ++claims;
        }
        ns += secondsSince(t0) * 1e9;
    }
    return ratio(ns, static_cast<double>(claims));
}

/**
 * Host ns per explicit DynamicPadTable::adjust() at the node count of
 * the largest recorded run, each step fed 64 claims of the recorded
 * destination mix (untimed).
 */
double
timeAdjust(const Recording &rec, int steps)
{
    const Segment *seg = nullptr;
    for (const Segment &s : rec.segments) {
        if (!s.pkts.empty() &&
            (!seg || s.sys.numNodes() > seg->sys.numNodes()))
            seg = &s;
    }
    if (!seg)
        return 0.0;
    const SecurityConfig &sec = seg->sys.security;
    const std::uint32_t n = seg->sys.numNodes();
    const NodeId self = 1;
    EventQueue eq;
    DynamicPadTable tab("adjust.pads", eq, self, n,
                        sec.totalOtpEntries(n), sec.aesLatency,
                        sec.dynParams);
    std::vector<std::uint64_t> recv_ctr(n, 0);
    std::size_t cursor = 0;
    double ns = 0.0;
    for (int i = 0; i < steps; ++i) {
        for (int k = 0; k < 64; ++k) {
            const PktRec &r = seg->pkts[cursor++ % seg->pkts.size()];
            const NodeId peer = r.dst != self ? r.dst : r.src;
            if (k % 2 == 0)
                tab.acquireSend(peer);
            else
                tab.acquireRecv(peer, recv_ctr[peer]++);
        }
        const std::uint64_t a = Profiler::nowNs();
        tab.adjust();
        ns += static_cast<double>(Profiler::nowNs() - a);
    }
    return ratio(ns, static_cast<double>(steps));
}

/**
 * EventQueue hold model: @p depth pending events, each of which
 * reschedules itself 1..1024 ticks ahead until @p events have run.
 */
class Churn
{
  public:
    Churn(std::uint64_t depth, std::uint64_t events) : left_(events)
    {
        q_.reserve(depth * 2);
        for (std::uint64_t i = 0; i < depth; ++i)
            arm();
    }

    Churn(const Churn &) = delete;
    Churn &operator=(const Churn &) = delete;

    double
    nsPerEvent()
    {
        const auto t0 = Clock::now();
        const std::uint64_t n = q_.run();
        return ratio(secondsSince(t0) * 1e9, static_cast<double>(n));
    }

  private:
    void
    arm()
    {
        lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
        q_.scheduleIn(1 + (lcg_ >> 54), [this]() {
            if (left_ > 0) {
                --left_;
                arm();
            }
        });
    }

    EventQueue q_;
    std::uint64_t left_;
    std::uint64_t lcg_ = 1;
};

/** Host ns per PadFactory::derive on the active crypto tier. */
double
timePadDerive(std::uint64_t n)
{
    std::array<std::uint8_t, 16> key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0x5a ^ i);
    const crypto::PadFactory f(key);
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t ctr = 0; ctr < n; ++ctr)
        acc += f.derive(1, 2, ctr).encPad[ctr & 63];
    const double ns = secondsSince(t0) * 1e9;
    g_sink = g_sink + acc;
    return ratio(ns, static_cast<double>(n));
}

/**
 * Host ns per functional seal (pad XOR + MsgMAC) of one 64-B block on
 * the active tier, and per open (XOR + MsgMAC + tag compare) in
 * @p open_ns; pad derivation is left to timePadDerive().
 */
double
timeSealOpen(std::uint64_t n, double &open_ns)
{
    std::array<std::uint8_t, 16> key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0xa5 ^ i);
    const crypto::PadFactory f(key);
    const crypto::MessagePad pad = f.derive(1, 2, 0);
    crypto::BlockPayload data{};
    std::vector<crypto::BlockPayload> cipher(64);
    std::vector<crypto::MsgMac> mac(cipher.size());
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t k = i % cipher.size();
        data[k] = static_cast<std::uint8_t>(i);
        cipher[k] = crypto::PadFactory::crypt(data, pad);
        mac[k] = f.mac(cipher[k], 1, 2, i, pad);
    }
    const double seal = secondsSince(t0) * 1e9;
    std::uint64_t ok = 0;
    const auto t1 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t k = i % cipher.size();
        const crypto::BlockPayload plain =
            crypto::PadFactory::crypt(cipher[k], pad);
        ok += f.mac(cipher[k], 1, 2, i, pad) == mac[k] ? plain[k] : 0;
    }
    open_ns = ratio(secondsSince(t1) * 1e9, static_cast<double>(n));
    g_sink = g_sink + ok;
    return ratio(seal, static_cast<double>(n));
}

/**
 * Host ns per TraceSource::next(), draining every GPU's source of
 * each application (the Ours configuration) to exhaustion.
 */
double
timeTraceSource(const Workload &w, std::uint64_t &ops)
{
    double ns = 0.0;
    ops = 0;
    for (const Spec &s : w.specs) {
        if (s.label != "Ours")
            continue;
        const WorkloadProfile profile =
            makeProfile(s.app, profileScale(s.cfg), s.cfg.numGpus);
        const std::uint32_t n = s.cfg.numGpus + 1;
        for (NodeId gpu = 1; gpu < n; ++gpu) {
            TraceSource src(profile, gpu, n, s.cfg.seed);
            RemoteOp op;
            std::uint64_t acc = 0;
            const auto t0 = Clock::now();
            while (src.next(op)) {
                acc += op.addr;
                ++ops;
            }
            ns += secondsSince(t0) * 1e9;
            g_sink = g_sink + acc;
        }
    }
    return ratio(ns, static_cast<double>(ops));
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::vector<double> samples; ///< per-rep values (end-to-end only)
};

void
writeMetrics(JsonWriter &w, const std::vector<Metric> &ms)
{
    w.key("metrics").beginObject();
    for (const Metric &m : ms) {
        w.key(m.name).beginObject();
        // A non-finite value is written as a string, which the
        // front end rejects as a non-number.
        if (std::isfinite(m.value))
            w.field("value", m.value);
        else
            w.field("value", std::string("non-finite"));
        w.field("unit", m.unit);
        if (!m.samples.empty()) {
            w.field("n", static_cast<std::uint64_t>(m.samples.size()));
            w.beginArray("samples");
            for (double v : m.samples)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    w.endObject();
}

/** Per-app Ours/Unsecure (and every other label's) normalization. */
struct Fidelity
{
    std::vector<std::string> labels;
    std::vector<double> time;    ///< mean over apps, per label
    std::vector<double> traffic; ///< mean over apps, per label
    double oursTime = 0.0;
    double oursTraffic = 0.0;
};

Fidelity
normalize(const Workload &w, const std::vector<RunOut> &runs)
{
    Fidelity f;
    std::vector<std::vector<double>> t, b;
    const RunOut *base = nullptr;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const Spec &s = w.specs[i];
        if (s.label == "Unsecure") {
            base = &runs[i];
            continue;
        }
        const auto it =
            std::find(f.labels.begin(), f.labels.end(), s.label);
        const std::size_t k = it - f.labels.begin();
        if (it == f.labels.end()) {
            f.labels.push_back(s.label);
            t.emplace_back();
            b.emplace_back();
        }
        t[k].push_back(normalizedTime(runs[i].result, base->result));
        b[k].push_back(normalizedTraffic(runs[i].result, base->result));
    }
    for (std::size_t k = 0; k < f.labels.size(); ++k) {
        f.time.push_back(mean(t[k]));
        f.traffic.push_back(mean(b[k]));
        if (f.labels[k] == "Ours") {
            f.oursTime = f.time.back();
            f.oursTraffic = f.traffic.back();
        }
    }
    return f;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int reps = 3;
    bool smoke = false;
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--reps N] [--smoke]\n"
                 "workloads: fig21-p2p4 scale64-hier-t4 "
                 "observe16-nvswitch funccrypto-p2p4\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string f = argv[i];
            const bool has = i + 1 < argc;
            if (f == "--workload" && has) {
                o.workload = argv[++i];
            } else if (f == "--seed" && has) {
                o.seed = std::stoull(argv[++i]);
            } else if (f == "--seconds" && has) {
                o.seconds = std::stod(argv[++i]);
            } else if (f == "--trace" && has) {
                const std::string v = argv[++i];
                if (v != "0" && v != "1")
                    return false;
                o.trace = v == "1";
            } else if (f == "--reps" && has) {
                o.reps = std::stoi(argv[++i]);
            } else if (f == "--smoke") {
                o.smoke = true;
            } else {
                return false;
            }
        }
    } catch (const std::exception &) {
        return false;
    }
    return !o.workload.empty() && o.seconds >= 0.0 && o.reps >= 1 &&
           o.reps <= kMaxReps && std::isfinite(o.seconds);
}

void
writeEnv(JsonWriter &w, std::uint32_t threads, int core)
{
    const crypto::CpuFeatures &cpu = crypto::cpuFeatures();
    w.key("env").beginObject();
    w.field("buildType", std::string(MGSEC_BENCH_BUILD_TYPE));
    w.field("compiler", std::string(MGSEC_BENCH_COMPILER));
    w.field("cryptoTier", std::string(crypto::cryptoImplName(
                              crypto::activeCryptoImpl())));
    w.field("simdCompiledIn", crypto::simdCompiledIn());
    w.field("aesni", cpu.aesni);
    w.field("pclmul", cpu.pclmul);
    w.field("ssse3", cpu.ssse3);
    w.field("hwThreads", static_cast<std::uint64_t>(
                             std::thread::hardware_concurrency()));
    w.field("simThreads", static_cast<std::uint64_t>(threads));
    w.field("pinnedCore", static_cast<double>(core));
    w.endObject();
}

/**
 * Wall-time cost (%) of each sink alone and of all of them against
 * none, on the workload's sink-carrying run, in rotating order so
 * drift hits every variant alike; medians over rounds. Index 0 is
 * the sinks-off reference (always 0).
 */
std::array<double, 6>
sinkCosts(const Workload &w, const std::vector<RunOut> &first, bool smoke,
          Checks &checks)
{
    const std::array<unsigned, 6> variants{
        0, kSinkTrace, kSinkMetrics, kSinkAttr, kSinkWire, kSinkAll};
    std::array<double, 6> pct{};
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const Spec &s = w.specs[i];
        if (s.sinks == 0)
            continue;
        std::array<std::vector<double>, 6> t;
        const int rounds = smoke ? 1 : 3;
        for (int r = 0; r < rounds; ++r) {
            for (std::size_t k = 0; k < variants.size(); ++k) {
                const std::size_t v = (k + r) % variants.size();
                RunOut out = runSpec(s, variants[v], nullptr, nullptr);
                checks.run(s, out,
                           variants[v] == s.sinks ? &first[i].digest
                                                  : nullptr,
                           "sink-variant");
                t[v].push_back(out.wallS);
            }
        }
        const double off = median(t[0]);
        for (std::size_t v = 1; v < variants.size(); ++v)
            pct[v] = (ratio(median(t[v]), off) - 1.0) * 100.0;
    }
    return pct;
}

/**
 * The per-layer pass: the workload's runs once more with the profiler
 * on and the recorder on Ours, then the layer replays. @p first holds
 * the untraced digests, @p untraced_wall the untraced rep wall times.
 */
std::vector<Metric>
tracedPass(const Workload &w, const Options &o,
           const std::vector<RunOut> &first,
           const std::vector<double> &untraced_wall, Checks &checks)
{
    Ledger led;
    Recording rec;
    double traced_wall = 0.0;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const Spec &s = w.specs[i];
        RunOut out = runSpec(s, s.sinks, &led,
                             s.label == "Ours" ? &rec : nullptr);
        checks.run(s, out, &first[i].digest, "traced");
        traced_wall += out.wallS;
    }
    const double net_ns = replayNetwork(rec, checks);
    const double claim_ns = replayClaims(rec);
    const double adjust_ns = timeAdjust(rec, o.smoke ? 256 : 4096);
    const std::uint64_t depth = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(
                ratio(rec.pendingSum,
                      static_cast<double>(rec.pendingSamples))));
    Churn churn(depth, o.smoke ? 200'000 : 2'000'000);
    const double eq_ns = churn.nsPerEvent();
    const std::uint64_t crypto_ops = o.smoke ? 20'000 : 200'000;
    const double derive_ns = timePadDerive(crypto_ops);
    double open_ns = 0.0;
    const double seal_ns = timeSealOpen(crypto_ops, open_ns);
    std::uint64_t ops = 0;
    const double next_ns = timeTraceSource(w, ops);

    const std::array<double, 6> pct = sinkCosts(w, first, o.smoke, checks);

    const double ns2s = 1e-9;
    const OtpStats &otp = led.otp;
    std::vector<Metric> metrics = {
        {"trace_overhead_pct",
         (ratio(traced_wall, median(untraced_wall)) - 1.0) * 100.0, "%", {}},
        {"sim.events", static_cast<double>(led.events), "count", {}},
        {"sim.exec_s", led.execNs * ns2s, "s", {}},
        {"sim.barrier_frac",
         ratio(led.barrierNs, led.barrierNs + led.execNs), "ratio",
         {}},
        {"sim.imbalance",
         ratio(led.imbalanceSum,
               static_cast<double>(led.imbalanceWindows)),
         "ratio", {}},
        {"sim.parallel_eff_pct",
         100.0 * ratio(led.busyNs, led.capacityNs), "%", {}},
        {"sim.replay_frac", ratio(led.replayNs * ns2s, traced_wall),
         "ratio", {}},
        {"sim.windows", static_cast<double>(led.windows), "count", {}},
        {"sim.events_per_window",
         led.windows ? ratio(static_cast<double>(led.events),
                             static_cast<double>(led.windows))
                     : 0.0,
         "events", {}},
        {"sim.domain_crossings", static_cast<double>(led.crossings),
         "count", {}},
        {"sim.window_stalls", static_cast<double>(led.stalls), "count",
         {}},
        {"sim.eq_ns_per_event", eq_ns, "ns", {}},
        {"net.packets", static_cast<double>(led.packets), "count", {}},
        {"net.bytes_header", led.bytes[0], "bytes", {}},
        {"net.bytes_payload", led.bytes[1], "bytes", {}},
        {"net.bytes_secmeta", led.bytes[2], "bytes", {}},
        {"net.bytes_secack", led.bytes[3], "bytes", {}},
        {"net.replay_ns_per_pkt", net_ns, "ns", {}},
        {"net.pool_fresh_packets", static_cast<double>(led.poolFresh),
         "count", {}},
        {"secure.send_hit_frac", otp.frac(Direction::Send, OtpOutcome::Hit),
         "ratio", {}},
        {"secure.send_miss_frac",
         otp.frac(Direction::Send, OtpOutcome::Miss), "ratio", {}},
        {"secure.recv_hit_frac", otp.frac(Direction::Recv, OtpOutcome::Hit),
         "ratio", {}},
        {"secure.recv_miss_frac",
         otp.frac(Direction::Recv, OtpOutcome::Miss), "ratio", {}},
        {"secure.exposed_send_cycles", otp.exposedCycles[0], "cycles",
         {}},
        {"secure.exposed_recv_cycles", otp.exposedCycles[1], "cycles",
         {}},
        {"secure.wasted_generations", led.wasted, "count", {}},
        {"secure.adjustments", led.adjustments, "count", {}},
        {"secure.standalone_acks", led.standaloneAcks, "count", {}},
        {"secure.piggybacked_acks", led.piggybacked, "count", {}},
        {"secure.batch_trailers", led.trailers, "count", {}},
        {"secure.claim_ns", claim_ns, "ns", {}},
        {"secure.adjust_ns", adjust_ns, "ns", {}},
        {"crypto.seal_frac", ratio(led.sealNs * ns2s, traced_wall),
         "ratio", {}},
        {"crypto.open_frac", ratio(led.openNs * ns2s, traced_wall),
         "ratio", {}},
        {"crypto.padgen_frac", ratio(led.padgenNs * ns2s, traced_wall),
         "ratio", {}},
        {"crypto.seal_ns", seal_ns, "ns", {}},
        {"crypto.open_ns", open_ns, "ns", {}},
        {"crypto.pad_derive_ns", derive_ns, "ns", {}},
        {"crypto.macs_verified", led.macsVerified, "count", {}},
        {"gpu.remote_ops", led.remoteOps, "count", {}},
        {"gpu.local_ops", led.localOps, "count", {}},
        {"gpu.migrations", led.migrations, "count", {}},
        {"gpu.remote_latency_cycles",
         ratio(led.latWeighted, led.remoteOps), "cycles", {}},
        {"mem.l2_hit_frac", ratio(led.l2Hits, led.l2Hits + led.l2Misses),
         "ratio", {}},
        {"mem.tlb_hit_frac",
         ratio(led.tlbHits, led.tlbHits + led.tlbMisses), "ratio", {}},
        {"memsec.walks", led.walks, "count", {}},
        {"workload.ops", static_cast<double>(ops), "count", {}},
        {"workload.next_ns", next_ns, "ns", {}},
        {"core.profile_s", led.profileS, "s", {}},
        {"core.construct_s", led.constructS, "s", {}},
        {"sinks.trace_pct", pct[1], "%", {}},
        {"sinks.metrics_pct", pct[2], "%", {}},
        {"sinks.attr_pct", pct[3], "%", {}},
        {"sinks.wire_pct", pct[4], "%", {}},
        {"sinks.all_pct", pct[5], "%", {}},
        {"sinks.trace_bytes", led.traceBytes, "bytes", {}},
        {"sinks.trace_events", led.traceEvents, "count", {}},
        {"sinks.metric_samples", led.metricSamples, "count", {}},
        {"sinks.gauges", led.gauges, "count", {}},
        {"sinks.attr_folds", led.attrFolds, "count", {}},
        {"sinks.flush_s", led.flushS, "s", {}},
    };
    metrics.push_back({"recorded_packets",
                       static_cast<double>(rec.total), "count", {}});
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage(argv[0]);
    if (std::string(MGSEC_BENCH_BUILD_TYPE) != "Release") {
        std::cerr << "mgsec_bench: refusing to measure a "
                  << MGSEC_BENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    // Before any thread exists, so every kernel worker inherits it.
    const int core = sched_getcpu();
    if (core >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(core, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }
    // The sharded workload asks for 4 kernel threads; never more than
    // the host has (hier fabric results are thread-count invariant).
    const std::uint32_t threads = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(
               4, std::thread::hardware_concurrency()));
    Workload w;
    if (!makeWorkload(o.workload, o.seed, o.smoke ? 0.05 : 1.0, threads,
                      w)) {
        std::cerr << "mgsec_bench: unknown workload '" << o.workload
                  << "'\n";
        return usage(argv[0]);
    }
    const std::size_t nspec = w.specs.size();

    Checks checks;
    std::vector<RunOut> first(nspec);
    std::vector<double> wall, cpu, setup, evps;
    std::vector<Metric> metrics;

    // Untraced reps. The traced pass needs two of them: one digest to
    // repeat and a wall-time reference for the tracing overhead.
    const int min_reps = o.trace ? 2 : o.reps;
    const auto start = Clock::now();
    for (int rep = 0; rep < kMaxReps; ++rep) {
        double rw = 0, rc = 0, rs = 0, re = 0;
        for (std::size_t i = 0; i < nspec; ++i) {
            RunOut out = runSpec(w.specs[i], w.specs[i].sinks, nullptr,
                                 nullptr);
            checks.run(w.specs[i], out, rep ? &first[i].digest : nullptr,
                       "untraced");
            rw += out.wallS;
            rc += out.cpuS;
            rs += out.setupS;
            re += static_cast<double>(out.events);
            if (rep == 0)
                first[i] = std::move(out);
        }
        wall.push_back(rw);
        cpu.push_back(rc);
        setup.push_back(rs);
        evps.push_back(ratio(re, rw));
        const int done = rep + 1;
        if (done < min_reps)
            continue;
        const double el = secondsSince(start);
        if (o.trace || el + el / done > o.seconds)
            break;
    }
    const Fidelity fid = normalize(w, first);

    if (!o.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"wall_s", median(wall), "s", wall},
            {"events_per_s", median(evps), "events/s", evps},
            {"cpu_s", median(cpu), "s", cpu},
            {"setup_s", median(setup), "s", setup},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
             "MB", {}},
            {"sim_overhead_x", fid.oursTime, "ratio", {}},
            {"traffic_overhead_x", fid.oursTraffic, "ratio", {}},
        };
    } else {
        metrics = tracedPass(w, o, first, wall, checks);
    }

    std::ostringstream doc;
    doc.precision(17);
    {
        JsonWriter jw(doc);
        jw.beginObject();
        jw.field("schema", std::string("mgsec-bench-1"));
        jw.field("workload", w.name);
        jw.field("seed", o.seed);
        jw.field("trace", static_cast<std::uint64_t>(o.trace ? 1 : 0));
        jw.field("smoke", o.smoke);
        writeEnv(jw, threads, core);
        jw.key("checks").beginObject();
        jw.field("attempted", checks.attempted);
        jw.field("failed", checks.failed);
        jw.beginArray("failures");
        for (const std::string &f : checks.failures)
            jw.value(f);
        jw.endArray();
        jw.endObject();
        jw.key("fidelity").beginObject();
        for (std::size_t k = 0; k < fid.labels.size(); ++k) {
            jw.key(fid.labels[k]).beginObject();
            jw.field("time", fid.time[k]);
            jw.field("traffic", fid.traffic[k]);
            jw.endObject();
        }
        jw.endObject();
        jw.beginArray("runs");
        for (std::size_t i = 0; i < nspec; ++i) {
            const RunOut &r = first[i];
            jw.beginObject();
            jw.field("app", w.specs[i].app);
            jw.field("label", w.specs[i].label);
            jw.field("digest", r.digest);
            jw.field("cycles", static_cast<std::uint64_t>(r.result.cycles));
            jw.field("bytes",
                     static_cast<std::uint64_t>(r.result.totalBytes));
            jw.field("events", r.events);
            jw.endObject();
        }
        jw.endArray();
        writeMetrics(jw, metrics);
        jw.endObject();
    }
    std::cout << doc.str() << "\n";
    return checks.failed == 0 ? 0 : 1;
}
