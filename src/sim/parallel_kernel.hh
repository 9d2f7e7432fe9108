/**
 * @file
 * Conservative parallel discrete-event kernel (barrier-window PDES).
 *
 * Domains (sim/domain.hh) execute their event queues concurrently in
 * fixed windows of `lookahead` cycles: during window [T, T + L) no
 * domain can affect another before T + L, because the only
 * cross-domain edges are wire hops whose latency is at least L (the
 * minimum cross-domain link latency — the classic conservative-PDES
 * lookahead). Cross-domain messages are therefore not sent inline;
 * the Network captures them into per-writer-domain SPSC lanes, and at
 * each barrier a single coordinator thread replays every captured
 * send — tamper hooks, byte accounting, port serialization, trace
 * stamps, and delivery scheduling into the destination domain's queue
 * — in a fixed deterministic order: (send tick, src, dst, capture
 * order). Replayed deliveries always land at or after the next
 * window's start, so the schedule-into-the-past assertion holds by
 * construction.
 *
 * This is the simulator's only event kernel. Determinism contract:
 * a run is run-to-run deterministic AND thread-count invariant — 1,
 * 2 and 8 workers execute the same events in the same per-domain
 * order and produce byte-identical results and artifacts — because
 * the domain partition, per-domain execution order, the window
 * bounds and the barrier merge order are all independent of the
 * thread count. Termination is polled at window boundaries only, so
 * every run finishes the window that completed its workload
 * (tests/test_parallel_kernel.cc pins byte equality down on every
 * fabric).
 *
 * One worker is the serial case: the calling thread runs every
 * domain in index order, no thread is spawned and no barrier is
 * crossed. With more, threads are spawned per run() and statically
 * pinned: domain d runs on worker d % threads, so a domain's events
 * — and its thread-local packet-pool traffic — stay on one thread
 * for the whole run. The calling thread doubles as worker 0 and
 * coordinator.
 */

#ifndef MGSEC_SIM_PARALLEL_KERNEL_HH
#define MGSEC_SIM_PARALLEL_KERNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/domain.hh"
#include "sim/types.hh"

namespace mgsec
{

class Profiler;

struct ParallelKernelConfig
{
    /** The shards; index == DomainId. Not owned. */
    std::vector<Domain *> domains;
    /** Worker threads (>= 1); clamped to the domain count. */
    unsigned threads = 2;
    /**
     * Window length == conservative lookahead: the minimum latency
     * of any cross-domain link, in cycles (> 0).
     */
    Tick lookahead = 1;
    /** Stop once the next window would start past this tick. */
    Tick maxCycles = MaxTick;
    /**
     * Optional termination predicate checked between windows (e.g.
     * "all GPUs reported done"). Without one the kernel runs until
     * every queue drains or maxCycles passes.
     */
    std::function<bool()> done;
    /**
     * Replay captured cross-domain messages; runs single-threaded at
     * every barrier, must return how many messages it delivered.
     */
    std::function<std::uint64_t()> exchange;
    /**
     * Post-exchange barrier hook (observability merges, metric
     * samples); @p window_end is the last tick of the closed window.
     */
    std::function<void(Tick window_end)> atBarrier;
    /**
     * Per-worker hooks running on the worker's own thread right
     * after spawn / right before join — allocator-stat harvesting
     * lives here. Worker 0 is the calling thread; its hooks run too.
     */
    std::function<void(unsigned worker)> workerStart;
    std::function<void(unsigned worker)> workerEnd;
    /**
     * Host-side self-profiler, or nullptr when profiling is off.
     * Must have been constructed with the same worker count the
     * kernel ends up using (threads clamped to the domain count), so
     * each profiler lane is written by exactly one thread.
     */
    Profiler *profiler = nullptr;
};

class ParallelKernel
{
  public:
    explicit ParallelKernel(ParallelKernelConfig cfg);

    /**
     * Run barrier windows until done()/maxCycles/drain, starting at
     * the window containing @p from. Returns the first tick of the
     * window that would have run next (the "kernel time" at exit).
     */
    Tick run(Tick from = 0);

    /** Barrier windows executed (including idle-skipped-to ones). */
    std::uint64_t windows() const { return windows_; }
    /** Cross-domain messages replayed at barriers. */
    std::uint64_t domainCrossings() const { return crossings_; }
    /**
     * (domain, window) pairs where the domain sat idle while at
     * least one other domain executed events — the price of
     * conservative synchronization.
     */
    std::uint64_t windowStalls() const { return stalls_; }

  private:
    void runDomains(unsigned worker, Tick window_end);

    ParallelKernelConfig cfg_;
    unsigned threads_ = 1;
    std::uint64_t windows_ = 0;
    std::uint64_t crossings_ = 0;
    std::uint64_t stalls_ = 0;
    /** Events executed per domain in the current window. */
    std::vector<std::uint64_t> executed_;
};

} // namespace mgsec

#endif // MGSEC_SIM_PARALLEL_KERNEL_HH
