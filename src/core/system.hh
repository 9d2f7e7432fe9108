/**
 * @file
 * The full simulated system: CPU + N GPUs + interconnect + unified
 * memory + secure channels, assembled per Table III and driven by a
 * workload profile.
 */

#ifndef MGSEC_CORE_SYSTEM_HH
#define MGSEC_CORE_SYSTEM_HH

#include <array>
#include <atomic>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "gpu/node.hh"
#include "mem/page_table.hh"
#include "net/network.hh"
#include "secure/security_config.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/latency_attr.hh"
#include "sim/metric_sampler.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"
#include "sim/wire_observer.hh"
#include "workload/profile.hh"

namespace mgsec
{

/**
 * Observability sinks for one run. Empty paths disable a sink; with
 * every sink disabled the only run-time cost is one null-pointer
 * test per trace hook (the zero-allocation hot path is untouched).
 */
struct ObserveConfig
{
    /** METRICS time-series JSON (MetricSampler ring flush). */
    std::string metricsOut;
    /** Chrome trace_event JSON (chrome://tracing / Perfetto). */
    std::string traceOut;
    /** Full stats dump as one JSON object. */
    std::string statsJsonOut;
    /** Standalone latency-attribution histogram JSON. */
    std::string histJsonOut;
    /** Passive wire-observer dump (WIRE_<hash>.json schema). */
    std::string wireOut;
    /** Host-side self-profiler dump (PROF_<hash>.json schema). */
    std::string profOut;
    /** Cycles between metric samples. */
    Cycles metricsInterval = 1000;
    /** Metric ring rows kept (oldest rows drop beyond this). */
    std::uint32_t metricsRing = 4096;
    /**
     * Collect per-message lifecycle histograms even without a
     * histJsonOut file (they then ride statsJsonOut / dumpStats).
     */
    bool latencyAttr = false;
};

struct SystemConfig
{
    std::uint32_t numGpus = 4;

    /**
     * Table III quotes aggregate channel rates (PCIe v4 32 GB/s,
     * NVLink2-class 50 GB/s); at 1 GHz each direction of the
     * full-duplex channel carries half, and cache-block-sized
     * transfers only realize ~70-75 % of that as payload bandwidth
     * (flit/TLP framing). Each GPU has a dedicated PCIe channel to
     * the CPU and one NVLink port shared across peers.
     */
    LinkParams pcie{12.0, 500};
    LinkParams nvlink{18.0, 100};

    /**
     * Fabric topology carrying the links above (net/topology.hh).
     * The default p2p fabric is the paper's target system;
     * nvswitch/hier model the scale-out machines of the 8/16/64-GPU
     * studies.
     */
    TopologyConfig topology{};

    NodeParams gpu{
        HbmParams{512.0, 120},
        CacheParams{2 * 1024 * 1024, 16, kBlockBytes, 20},
        20,
        256, // 64 CUs x 4 outstanding remote misses each
        64,  // compute units (Table III)
        ComputeUnitParams{},
        TlbParams{1024, 8},
        100,
    };
    NodeParams cpu{
        HbmParams{64.0, 160},
        CacheParams{8 * 1024 * 1024, 16, kBlockBytes, 30},
        30,
        64,
        0, // no CUs: the host only serves
        ComputeUnitParams{},
        TlbParams{1024, 8},
        100,
    };

    PageTableParams pageTable{};
    SecurityConfig security{};

    std::uint64_t seed = 1;
    /** Safety valve: abort runs that exceed this many cycles. */
    Tick maxCycles = 500'000'000;
    /** >0: sample GPU 1's communication mix every N cycles. */
    Cycles commSampleInterval = 0;

    /**
     * Worker threads of the event kernel (sim/parallel_kernel.hh).
     * Every run shards the simulation into one event domain per GPU
     * plus a host/fabric domain, synchronized conservatively at
     * barrier windows of the minimum cross-domain link latency; this
     * only picks how many threads execute the domains. Results are
     * byte-identical for every value. 0 = auto: the
     * MGSEC_SIM_THREADS environment variable if set, else 1. Thread
     * counts beyond the domain count (numGpus + 1) are clamped.
     */
    std::uint32_t simThreads = 0;

    /** Observability sinks (all disabled by default). */
    ObserveConfig observe{};

    std::uint32_t numNodes() const { return numGpus + 1; }
};

/** One sampling point of GPU 1's communication mix (Fig. 13/14). */
struct CommSample
{
    Tick tick = 0;
    std::vector<std::uint64_t> sendsTo; ///< delta per destination
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
};

/** Everything a bench needs from one simulation. */
struct RunResult
{
    std::string workload;
    bool completed = false;
    Tick cycles = 0;

    Bytes totalBytes = 0;
    std::array<Bytes, kNumTrafficClasses> classBytes{};
    std::uint64_t packets = 0;

    OtpStats otp;
    std::uint64_t remoteOps = 0;
    std::uint64_t localOps = 0;
    std::uint64_t migrations = 0;
    std::uint64_t standaloneAcks = 0;
    /** Data packets the channels sent (each carries a MsgCTR). */
    std::uint64_t packetsSent = 0;
    double avgRemoteLatency = 0.0;

    /** Non-overlapping per-pair accumulation times (Fig. 15/16). */
    std::vector<Cycles> burst16;
    std::vector<Cycles> burst32;

    /** GPU 1 communication mix over time (Fig. 13/14). */
    std::vector<CommSample> commSeries;

    /**
     * @name Event-kernel run accounting. The window counts do not
     * depend on the worker count; the pool deltas do (one thread-
     * local pool per worker).
     */
    /// @{
    std::uint32_t simThreads = 1;
    std::uint64_t pdesWindows = 0;
    std::uint64_t domainCrossings = 0;
    std::uint64_t windowStalls = 0;
    /** Fresh packet-pool allocations summed over worker threads. */
    std::uint64_t poolFreshPackets = 0;
    std::uint64_t poolFreshPayloads = 0;
    /// @}
};

class MultiGpuSystem
{
  public:
    MultiGpuSystem(const SystemConfig &cfg,
                   const WorkloadProfile &profile);

    /**
     * Flushes the observability sinks if run() never got to (an
     * exception mid-run, a bailing driver): partial artifacts beat
     * silently truncated ones.
     */
    ~MultiGpuSystem();

    /** Run to completion (or the cycle cap) and harvest results. */
    RunResult run();

    /**
     * Substitute a GPU's traffic source before run() — e.g. replay
     * a recorded trace instead of the synthetic profile.
     */
    void replaceWorkload(NodeId gpu, std::unique_ptr<OpSource> src);

    /** Dump every component's statistics ("component.stat value"). */
    void dumpStats(std::ostream &os) const;

    /** Dump every component's statistics as one JSON object. */
    void dumpStatsJson(std::ostream &os) const;

    /** Zero every registered stat (explicit per-job collection). */
    void resetStats();

    /**
     * Attach a Chrome-trace sink writing to @p os. Call before
     * run(); the stream must outlive the system.
     */
    void enableTrace(std::ostream &os);

    /**
     * Register the standard gauge set (pad occupancy per (pair,
     * direction), EWMA weights, batch fill, replay span, in-flight
     * packets, every Scalar stat) on a fresh sampler. Sampling
     * starts inside run().
     */
    void enableMetrics(Cycles interval, std::size_t capacity);

    /** Flush collected metric samples as JSON. */
    void writeMetricsJson(std::ostream &os) const;

    /**
     * Attach the passive wire observer to the network. Call before
     * run(); a null observer pointer in the Network is the entire
     * cost when disabled. Idempotent.
     */
    void enableWireObserver();

    /**
     * Attach the per-message latency-attribution collector. Call
     * before run() — and before enableMetrics() if the percentile
     * gauge columns are wanted. Stamping/folding costs nothing when
     * this is never called (one null test per hook).
     */
    void enableAttribution();

    /**
     * Attach the host-side self-profiler (sim/profiler.hh). Call
     * before run(); idempotent. Never touches sim results or
     * deterministic artifacts — its wall-clock data goes only to
     * observe.profOut.
     */
    void enableProfiler();

    const TraceSink *traceSink() const { return trace_.get(); }
    const MetricSampler *metrics() const { return sampler_.get(); }
    const Profiler *profiler() const { return prof_.get(); }
    const WireObserver *wireObserver() const { return wire_.get(); }
    const LatencyAttribution *attribution() const
    {
        return attr_.get();
    }

    /** The host/fabric domain's queue (CPU, network, page table). */
    EventQueue &eventq() { return eq_; }
    Network &network() { return *net_; }
    PageTable &pageTable() { return *pt_; }
    Node &node(NodeId id) { return *nodes_[id]; }
    std::uint32_t numNodes() const { return cfg_.numNodes(); }

    /** Resolved worker-thread count (config / env, clamped). */
    std::uint32_t simThreads() const { return sim_threads_; }
    /** Events executed across every domain queue. */
    std::uint64_t executedEvents() const;

  private:
    void recordBlock(NodeId src, NodeId dst, Tick t);
    void sampleComm(Tick tick);
    /** Drive every domain through the windowed event kernel. */
    void runKernel();
    /** Latest domain clock: where the kernel stopped. */
    Tick kernelNow() const;
    /** Open the file-backed sinks cfg_.observe asks for. */
    void openObservability();
    /** Flush and close them at the end of run(). */
    void flushObservability();

    SystemConfig cfg_;
    WorkloadProfile profile_;
    EventQueue eq_;
    /**
     * Event domains: [0] wraps eq_ (host/fabric), [1..numGpus] own
     * one queue per GPU node.
     */
    std::vector<std::unique_ptr<Domain>> domains_;
    std::uint32_t sim_threads_ = 1;
    std::unique_ptr<Network> net_;
    std::unique_ptr<PageTable> pt_;
    std::vector<std::unique_ptr<Node>> nodes_;

    /**
     * Declared before trace_: ~TraceSink seals the JSON array, so
     * the stream it writes to must still be alive when the sink is
     * destroyed (members destruct in reverse declaration order).
     */
    std::unique_ptr<std::ofstream> trace_file_;
    std::unique_ptr<TraceSink> trace_;
    std::unique_ptr<MetricSampler> sampler_;
    std::unique_ptr<LatencyAttribution> attr_;
    std::unique_ptr<WireObserver> wire_;
    std::unique_ptr<Profiler> prof_;
    /** openObservability() ran (destructor may need to flush). */
    bool observ_opened_ = false;
    /** flushObservability() already ran (flush exactly once). */
    bool observ_flushed_ = false;

    /** Atomic: GPU done callbacks fire on domain threads. */
    std::atomic<std::uint32_t> done_gpus_{0};

    /** Burst accumulation state per (src, dst): the open window's
     *  first block tick and its block count. */
    struct BurstState
    {
        Tick first = 0;
        std::uint32_t blocks = 0;
    };
    std::vector<BurstState> burst_state_;
    /**
     * Burst windows per source node (the only writer of a (src, *)
     * row is src's domain thread), concatenated in node order at
     * harvest — deterministic without a lock.
     */
    std::vector<std::vector<Cycles>> burst16_;
    std::vector<std::vector<Cycles>> burst32_;

    std::vector<std::uint64_t> prev_sends_to_;
    std::uint64_t prev_recvs_ = 0;
    std::vector<CommSample> comm_series_;

    /** @name Event-kernel run state */
    /// @{
    std::uint64_t pdes_windows_ = 0;
    std::uint64_t pdes_crossings_ = 0;
    std::uint64_t pdes_stalls_ = 0;
    /** Worker packet-pool deltas, summed after the kernel joins. */
    std::uint64_t pool_fresh_packets_ = 0;
    std::uint64_t pool_fresh_payloads_ = 0;
    /// @}
};

} // namespace mgsec

#endif // MGSEC_CORE_SYSTEM_HH
