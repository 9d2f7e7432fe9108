#include "core/system.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "core/knobs.hh"
#include "net/packet_pool.hh"
#include "sim/debug.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/parallel_kernel.hh"

namespace mgsec
{

namespace
{

/**
 * 0 = auto: MGSEC_SIM_THREADS if set (mirroring the
 * MGSEC_CRYPTO_IMPL override), else one worker. Clamped to the
 * domain count — extra threads would only idle at barriers — and to
 * one while debug tracing is on: its flags and stream are process-
 * global and unsynchronized, as the sweep's --jobs fallback notes.
 */
std::uint32_t
resolveSimThreads(std::uint32_t cfg_threads, std::uint32_t num_domains)
{
    std::uint64_t t = cfg_threads;
    if (t == 0) {
        t = 1;
        // Read through --sim-threads' own row, range and all.
        ExperimentConfig e;
        if (const char *env = std::getenv("MGSEC_SIM_THREADS")) {
            if (findKnob(experimentKnobs(), "sim-threads")->parse(e, env))
                t = e.simThreads;
            else
                warn("ignoring invalid MGSEC_SIM_THREADS='%s'", env);
        }
    }
    if (t > 1) {
        for (const debug::DebugFlag *f : debug::DebugFlag::all()) {
            if (f->enabled()) {
                warn("debug tracing enabled; running the event kernel "
                     "on one worker");
                return 1;
            }
        }
    }
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(t, num_domains));
}

/**
 * Hand a fresh file at @p path to @p write; an empty path is a
 * disabled sink, and a file that cannot be opened only warns.
 */
template <class Write>
void
writeArtifact(const std::string &path, const char *what, Write &&write)
{
    if (path.empty())
        return;
    std::ofstream f(path);
    if (!f) {
        warn("cannot open %s output '%s'", what, path.c_str());
        return;
    }
    write(f);
}

} // namespace

MultiGpuSystem::MultiGpuSystem(const SystemConfig &cfg,
                               const WorkloadProfile &profile)
    : cfg_(cfg), profile_(profile)
{
    const std::uint32_t n = cfg_.numNodes();
    // Select the host crypto tier before any Aes128/GhashKey is
    // built (process-global; last system constructed wins, which is
    // fine — every tier computes identical bytes).
    crypto::setCryptoImpl(cfg_.security.cryptoImpl);
    sim_threads_ = resolveSimThreads(cfg_.simThreads, n);

    // One event domain per GPU node plus the host/fabric domain
    // (CPU + network + page table on eq_). Wire hops are the only
    // cross-domain edges, so the Network is the explicit
    // cross-domain channel (capture mode below).
    domains_.reserve(n);
    domains_.push_back(std::make_unique<Domain>(0, eq_));
    for (NodeId id = 1; id < n; ++id)
        domains_.push_back(std::make_unique<Domain>(id));
    // Pre-size the queues: each domain hosts one node, whose pending
    // population is bounded by its outstanding-request window plus
    // per-peer ACK/batch timers and in-flight link deliveries; 2x
    // covers lazily cancelled leftovers still parked in the heap.
    const std::uint64_t window =
        std::max(cfg_.gpu.maxOutstanding, cfg_.cpu.maxOutstanding);
    for (auto &d : domains_)
        d->eq().reserve((window + 64) * 2);
    burst16_.resize(n);
    burst32_.resize(n);

    net_ = std::make_unique<Network>("net", eq_, n, cfg_.pcie,
                                     cfg_.nvlink, cfg_.topology);
    net_->setParallelCapture(true);
    pt_ = std::make_unique<PageTable>("pt", eq_, cfg_.pageTable, n);
    pt_->setConcurrent(sim_threads_ > 1);

    nodes_.resize(n);
    for (NodeId id = 0; id < n; ++id) {
        const bool is_cpu = id == 0;
        const NodeParams &np = is_cpu ? cfg_.cpu : cfg_.gpu;
        const std::string nm =
            is_cpu ? std::string("cpu") : strformat("gpu%u", id);
        nodes_[id] = std::make_unique<Node>(
            nm, domains_[id]->eq(), id, *net_, *pt_, cfg_.security, np);
        if (!is_cpu) {
            nodes_[id]->attachWorkload(std::make_unique<TraceSource>(
                profile_, id, n, cfg_.seed));
            nodes_[id]->setOnDone([this]() { ++done_gpus_; });
        }
        nodes_[id]->channel().setBlockObserver(
            [this, id](NodeId dst, Tick t) {
                recordBlock(id, dst, t);
            });
    }
    burst_state_.resize(static_cast<std::size_t>(n) * n);
    prev_sends_to_.assign(n, 0);
}

MultiGpuSystem::~MultiGpuSystem()
{
    // RAII flush: a run that threw (or a driver that bailed before
    // run() finished) still seals its trace/metrics/stats files into
    // parseable JSON instead of losing the buffered tail.
    if (observ_opened_ && !observ_flushed_)
        flushObservability();
}

void
MultiGpuSystem::recordBlock(NodeId src, NodeId dst, Tick t)
{
    BurstState &bs =
        burst_state_[static_cast<std::size_t>(src) * cfg_.numNodes() +
                     dst];
    // Non-overlapping windows: time for 16 (and 32) consecutive data
    // blocks on this pair to accumulate, appended per source (only
    // src's domain thread writes the (src, *) rows) and concatenated
    // in node order at harvest.
    std::vector<Cycles> &b16 = burst16_[src];
    std::vector<Cycles> &b32 = burst32_[src];
    if (bs.blocks++ == 0)
        bs.first = t;
    if (bs.blocks == 32) {
        b32.push_back(t - bs.first);
        // The first 16 of this window already closed a 16-window.
        bs.blocks = 0;
    } else if (bs.blocks == 16) {
        b16.push_back(t - bs.first);
    }
}

void
MultiGpuSystem::sampleComm(Tick tick)
{
    const Node &g1 = *nodes_[1];
    CommSample s;
    s.tick = tick;
    s.sendsTo.resize(cfg_.numNodes(), 0);
    std::uint64_t sends = 0;
    for (NodeId d = 0; d < cfg_.numNodes(); ++d) {
        s.sendsTo[d] = g1.sendsTo()[d] - prev_sends_to_[d];
        sends += s.sendsTo[d];
        prev_sends_to_[d] = g1.sendsTo()[d];
    }
    std::uint64_t recvs_now = 0;
    for (NodeId d = 0; d < cfg_.numNodes(); ++d)
        recvs_now += g1.recvsFrom()[d];
    s.sends = sends;
    s.recvs = recvs_now - prev_recvs_;
    prev_recvs_ = recvs_now;
    comm_series_.push_back(std::move(s));
}

void
MultiGpuSystem::replaceWorkload(NodeId gpu,
                                std::unique_ptr<OpSource> src)
{
    MGSEC_ASSERT(gpu >= 1 && gpu < cfg_.numNodes(),
                 "only GPUs run workloads");
    nodes_[gpu]->attachWorkload(std::move(src));
}

void
MultiGpuSystem::dumpStats(std::ostream &os) const
{
    // Registered only when attribution is enabled, keeping the
    // figure-bench dumps byte-identical with profiling off (same
    // contract as the conditional ctrGaps registration).
    if (attr_)
        attr_->statGroup().dump(os);
    net_->statGroup().dump(os);
    pt_->statGroup().dump(os);
    for (const auto &n : nodes_) {
        n->statGroup().dump(os);
        n->channel().statGroup().dump(os);
        if (const PadTable *padt = n->channel().padTable())
            padt->statGroup().dump(os);
        n->l2().statGroup().dump(os);
        n->memory().statGroup().dump(os);
        const_cast<Node &>(*n).l2Tlb().statGroup().dump(os);
    }
}

void
MultiGpuSystem::dumpStatsJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    if (attr_)
        attr_->statGroup().dumpJson(w);
    net_->statGroup().dumpJson(w);
    pt_->statGroup().dumpJson(w);
    for (const auto &n : nodes_) {
        n->statGroup().dumpJson(w);
        n->channel().statGroup().dumpJson(w);
        if (const PadTable *padt = n->channel().padTable())
            padt->statGroup().dumpJson(w);
        n->l2().statGroup().dumpJson(w);
        n->memory().statGroup().dumpJson(w);
        const_cast<Node &>(*n).l2Tlb().statGroup().dumpJson(w);
    }
    w.endObject();
    os << "\n";
}

void
MultiGpuSystem::resetStats()
{
    if (attr_)
        attr_->reset();
    net_->statGroup().resetAll();
    pt_->statGroup().resetAll();
    for (auto &n : nodes_) {
        n->statGroup().resetAll();
        n->channel().statGroup().resetAll();
        if (PadTable *padt = n->channel().padTable())
            padt->statGroup().resetAll();
        n->l2().statGroup().resetAll();
        n->memory().statGroup().resetAll();
        n->l2Tlb().statGroup().resetAll();
    }
}

void
MultiGpuSystem::enableTrace(std::ostream &os)
{
    MGSEC_ASSERT(!trace_, "trace sink already attached");
    trace_ = std::make_unique<TraceSink>(os);
    for (auto &d : domains_)
        d->eq().setTraceSink(trace_.get());
    // Named lanes: without the metadata, about:tracing shows bare
    // tids.
    trace_->metadata(0, "process_name", "mgsec " + profile_.name);
    for (const auto &n : nodes_)
        trace_->metadata(n->nodeId(), "thread_name", n->name());
}

void
MultiGpuSystem::enableMetrics(Cycles interval, std::size_t capacity)
{
    MGSEC_ASSERT(!sampler_, "metric sampler already attached");
    sampler_ = std::make_unique<MetricSampler>(interval, capacity);
    MetricSampler &ms = *sampler_;

    ms.addGauge("eq.pending", [this](Tick) {
        // The pending population spans every domain queue.
        double p = 0.0;
        for (const auto &d : domains_)
            p += static_cast<double>(d->eq().pending());
        return p;
    });
    ms.addGauge("net.inFlight", [this](Tick) {
        return static_cast<double>(net_->inFlight());
    });
    // Window-sync overhead pair: how much cross-domain traffic the
    // barriers replay vs how often a domain sat idle inside a window
    // other domains were executing.
    ms.addGauge("pdes.domainCrossings", [this](Tick) {
        return static_cast<double>(pdes_crossings_);
    });
    ms.addGauge("pdes.windowStalls", [this](Tick) {
        return static_cast<double>(pdes_stalls_);
    });

    std::vector<std::string> node_names;
    for (const auto &n : nodes_)
        node_names.push_back(n->name());
    for (auto &nptr : nodes_) {
        Node &n = *nptr;
        const std::string nm = n.name();
        SecureChannel &ch = n.channel();

        ms.addGauge(nm + ".replay.outstanding", [&ch](Tick) {
            return static_cast<double>(
                ch.replayWindow().outstandingTotal());
        });

        if (const PadTable *ptab = ch.padTable()) {
            // Pad-buffer occupancy per (pair, direction): the quota
            // the pair owns and how many of those pads exist now;
            // then the Dynamic table's EWMA weights. One block reader
            // fills them all.
            ms.addBlock(ptab->gaugeNames(nm, node_names),
                        [ptab](Tick t, double *out) {
                            ptab->readGauges(t, out);
                        });
        }

        if (const BatchAssembler *ba = ch.assembler()) {
            ms.addGauge(nm + ".batch.open", [ba](Tick) {
                return static_cast<double>(ba->openCount());
            });
            ms.addGauge(nm + ".batch.fill", [ba](Tick) {
                return static_cast<double>(ba->fillTotal());
            });
        }
        if (const MsgMacStorage *mss = ch.macStorage()) {
            ms.addGauge(nm + ".macstore.parked", [mss](Tick) {
                return static_cast<double>(mss->occupancyTotal());
            });
        }
        if (const PadTable *ptab = ch.padTable()) {
            ms.addGauge(nm + ".pads.wasted", [ptab](Tick) {
                return static_cast<double>(
                    ptab->wastedGenerations());
            });
        }
    }

    if (attr_) {
        // Running-percentile columns: each sample reads the
        // histogram accumulated so far (call enableAttribution()
        // first, as openObservability() does).
        const LatencyAttribution *attr = attr_.get();
        for (std::size_t l = 0; l < attr_->numLinks(); ++l) {
            const LinkType link = static_cast<LinkType>(l);
            const std::string base =
                std::string("attr.") + linkTypeName(link);
            ms.addGauge(base + ".e2e.p50", [attr, link](Tick) {
                return attr->e2e(link).percentile(50.0);
            });
            ms.addGauge(base + ".e2e.p99", [attr, link](Tick) {
                return attr->e2e(link).percentile(99.0);
            });
            ms.addGauge(base + ".padWait.p99", [attr, link](Tick) {
                return attr->stage(link, 1).percentile(99.0);
            });
            ms.addGauge(base + ".recvVerify.p99",
                        [attr, link](Tick) {
                return attr->stage(link, 4).percentile(99.0);
            });
        }
    }

    // One column per Scalar stat of the traffic- and security-
    // critical groups (cache/memory scalars stay in the stats dump).
    ms.addScalars(net_->statGroup());
    for (auto &n : nodes_) {
        ms.addScalars(n->statGroup());
        ms.addScalars(n->channel().statGroup());
        if (const PadTable *ptab = n->channel().padTable())
            ms.addScalars(ptab->statGroup());
    }
}

void
MultiGpuSystem::writeMetricsJson(std::ostream &os) const
{
    MGSEC_ASSERT(sampler_ != nullptr, "metrics were never enabled");
    sampler_->writeJson(os);
}

void
MultiGpuSystem::enableAttribution()
{
    MGSEC_ASSERT(!attr_, "attribution already enabled");
    attr_ = std::make_unique<LatencyAttribution>(
        otpSchemeName(cfg_.security.scheme),
        net_->topology().numLinkClasses());
    // One shared collector across every domain, folding under an
    // internal mutex when workers run concurrently: histogram
    // accumulation commutes, so the values stay deterministic, and
    // the conservation telescope remains a single global identity.
    attr_->setConcurrent(sim_threads_ > 1);
    for (auto &d : domains_)
        d->eq().setAttribution(attr_.get());
}

void
MultiGpuSystem::enableProfiler()
{
    if (prof_)
        return;
    // One span lane per kernel worker: the kernel pins domain d to
    // worker d % threads, so lane attribution must be built from the
    // same (already clamped) thread count to keep every lane
    // single-writer.
    prof_ = std::make_unique<Profiler>(
        sim_threads_, static_cast<unsigned>(domains_.size()));
    for (auto &d : domains_)
        d->eq().setProfiler(prof_.get());
    prof_->start();
}

void
MultiGpuSystem::enableWireObserver()
{
    if (wire_)
        return;
    // Tag flows with the fabric's own link classes.
    const Topology *topo = &net_->topology();
    std::vector<std::string> names;
    for (std::size_t l = 0; l < topo->numLinkClasses(); ++l)
        names.emplace_back(linkTypeName(static_cast<LinkType>(l)));
    wire_ = std::make_unique<WireObserver>(
        cfg_.numNodes(), std::move(names),
        [topo](NodeId src, NodeId dst) {
            return static_cast<std::size_t>(topo->linkType(src, dst));
        });
    net_->setWireObserver(wire_.get());
}

void
MultiGpuSystem::openObservability()
{
    observ_opened_ = true;
    observ_flushed_ = false;
    if ((cfg_.observe.latencyAttr ||
         !cfg_.observe.histJsonOut.empty()) &&
        !attr_)
        enableAttribution();
    if (!cfg_.observe.traceOut.empty() && !trace_) {
        trace_file_ =
            std::make_unique<std::ofstream>(cfg_.observe.traceOut);
        if (!*trace_file_) {
            warn("cannot open trace output '%s'",
                 cfg_.observe.traceOut.c_str());
            trace_file_.reset();
        } else {
            enableTrace(*trace_file_);
        }
    }
    if (!cfg_.observe.metricsOut.empty() && !sampler_)
        enableMetrics(cfg_.observe.metricsInterval,
                      cfg_.observe.metricsRing);
    if (!cfg_.observe.wireOut.empty())
        enableWireObserver();
    if (!cfg_.observe.profOut.empty())
        enableProfiler();
}

void
MultiGpuSystem::flushObservability()
{
    observ_flushed_ = true;
    const ObserveConfig &obs = cfg_.observe;
    {
        // The profiler times the flush itself (it is real wall time
        // a sweep job spends off the hot path); the span must close
        // before the profiler's own dump is written.
        ProfSpan span(prof_.get(), 0, kProfSinkFlush);
        if (sampler_) {
            // Final snapshot so short runs and run tails are
            // captured.
            sampler_->sampleAt(kernelNow());
            writeArtifact(obs.metricsOut, "metrics",
                          [&](std::ostream &os) {
                              sampler_->writeJson(os);
                          });
        }
        writeArtifact(obs.statsJsonOut, "stats",
                      [&](std::ostream &os) { dumpStatsJson(os); });
        if (attr_)
            writeArtifact(obs.histJsonOut, "histogram",
                          [&](std::ostream &os) {
                              attr_->writeJson(os);
                          });
        if (wire_)
            writeArtifact(obs.wireOut, "wire-observer",
                          [&](std::ostream &os) {
                              wire_->writeJson(os);
                          });
    }
    if (prof_) {
        prof_->finish();
        writeArtifact(obs.profOut, "profiler", [&](std::ostream &os) {
            prof_->writeJson(os);
        });
    }
    if (trace_)
        trace_->finish();
}

std::uint64_t
MultiGpuSystem::executedEvents() const
{
    std::uint64_t total = 0;
    for (const auto &d : domains_)
        total += d->eq().executed();
    return total;
}

Tick
MultiGpuSystem::kernelNow() const
{
    Tick t = 0;
    for (const auto &d : domains_)
        t = std::max(t, d->eq().now());
    return t;
}

void
MultiGpuSystem::runKernel()
{
    // With several workers, GPU domains buffer trace events
    // privately and the coordinator splices the buffers into the
    // master sink in domain order, ahead of the window's wire replay.
    // A lone worker executes the domains in that same order, so it
    // writes straight into the master sink and emits the same bytes
    // without the copy.
    const bool buffer_trace = trace_ && sim_threads_ > 1;
    if (buffer_trace) {
        for (std::size_t d = 1; d < domains_.size(); ++d)
            domains_[d]->enableTraceBuffer();
    }
    // Next due ticks of the barrier-driven samplers.
    Tick metrics_due = sampler_ ? sampler_->interval() : MaxTick;
    Tick comm_due = cfg_.commSampleInterval > 0
                        ? cfg_.commSampleInterval
                        : MaxTick;

    ParallelKernelConfig kc;
    kc.domains.reserve(domains_.size());
    for (auto &d : domains_)
        kc.domains.push_back(d.get());
    kc.threads = sim_threads_;
    kc.profiler = prof_.get();
    // Conservative lookahead: no domain can affect another sooner
    // than the fastest cross-domain wire of the selected fabric.
    kc.lookahead = net_->topology().minLatency();
    kc.maxCycles = cfg_.maxCycles;
    kc.done = [this]() { return done_gpus_ >= cfg_.numGpus; };
    kc.exchange = [this, buffer_trace]() {
        if (buffer_trace) {
            for (std::size_t d = 1; d < domains_.size(); ++d)
                trace_->splice(*domains_[d]->traceBuffer());
        }
        return net_->replayCaptured(
            [this](NodeId dst) -> EventQueue & {
                return domains_[dst]->eq();
            });
    };

    // Each worker records its own fresh-allocation delta in its slot;
    // the slots are summed once the workers have joined.
    std::vector<PacketPool::Stats> fresh(sim_threads_);
    kc.workerStart = [&fresh](unsigned w) {
        fresh[w] = PacketPool::stats();
    };
    kc.workerEnd = [&fresh](unsigned w) {
        const PacketPool::Stats s = PacketPool::stats();
        fresh[w].freshPackets = s.freshPackets - fresh[w].freshPackets;
        fresh[w].freshPayloads =
            s.freshPayloads - fresh[w].freshPayloads;
    };

    ParallelKernel *kptr = nullptr;
    kc.atBarrier = [&](Tick window_end) {
        pdes_crossings_ = kptr->domainCrossings();
        pdes_stalls_ = kptr->windowStalls();
        // Catch up the samplers on every due tick the closed window
        // covered (idle-window skips can cover many).
        for (; metrics_due <= window_end;
             metrics_due += sampler_->interval())
            sampler_->sampleAt(metrics_due);
        for (; comm_due <= window_end;
             comm_due += cfg_.commSampleInterval)
            sampleComm(comm_due);
    };

    ParallelKernel kernel(std::move(kc));
    kptr = &kernel;
    kernel.run(0);

    for (const PacketPool::Stats &f : fresh) {
        pool_fresh_packets_ += f.freshPackets;
        pool_fresh_payloads_ += f.freshPayloads;
    }
    pdes_windows_ = kernel.windows();
    pdes_crossings_ = kernel.domainCrossings();
    pdes_stalls_ = kernel.windowStalls();
}

RunResult
MultiGpuSystem::run()
{
    openObservability();
    for (auto &n : nodes_)
        n->start();
    if (sampler_)
        sampler_->start();
    runKernel();
    flushObservability();

    RunResult r;
    r.workload = profile_.name;
    r.completed = done_gpus_ == cfg_.numGpus;
    if (!r.completed) {
        warn("run of %s did not complete within %llu cycles",
             profile_.name.c_str(),
             static_cast<unsigned long long>(cfg_.maxCycles));
    }

    Tick finish = 0;
    for (NodeId id = 1; id < cfg_.numNodes(); ++id)
        finish = std::max(finish, nodes_[id]->finishTick());
    r.cycles = r.completed ? finish : kernelNow();

    r.totalBytes = net_->totalBytes();
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
        r.classBytes[c] =
            net_->classBytes(static_cast<TrafficClass>(c));
    r.packets = net_->totalPackets();

    std::uint64_t lat_sum = 0;
    std::uint64_t lat_n = 0;
    for (auto &n : nodes_) {
        if (const PadTable *pt = n->channel().padTable())
            r.otp += pt->otpStats();
        r.remoteOps += n->remoteOps();
        r.localOps += n->localOps();
        r.standaloneAcks += n->channel().standaloneAcks();
        r.packetsSent += n->channel().packetsSent();
        lat_sum += n->latency().sum();
        lat_n += n->latency().count();
    }
    r.migrations = pt_->migrations();
    r.avgRemoteLatency =
        lat_n > 0 ? static_cast<double>(lat_sum) /
                        static_cast<double>(lat_n)
                  : 0.0;

    for (auto &v : burst16_)
        r.burst16.insert(r.burst16.end(), v.begin(), v.end());
    for (auto &v : burst32_)
        r.burst32.insert(r.burst32.end(), v.begin(), v.end());
    r.commSeries = std::move(comm_series_);

    r.simThreads = sim_threads_;
    r.pdesWindows = pdes_windows_;
    r.domainCrossings = pdes_crossings_;
    r.windowStalls = pdes_stalls_;
    r.poolFreshPackets = pool_fresh_packets_;
    r.poolFreshPayloads = pool_fresh_payloads_;
    return r;
}

} // namespace mgsec
