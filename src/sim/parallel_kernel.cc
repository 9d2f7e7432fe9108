#include "sim/parallel_kernel.hh"

#include <algorithm>
#include <barrier>
#include <exception>
#include <thread>

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace mgsec
{

ParallelKernel::ParallelKernel(ParallelKernelConfig cfg)
    : cfg_(std::move(cfg))
{
    MGSEC_ASSERT(!cfg_.domains.empty(), "kernel needs domains");
    MGSEC_ASSERT(cfg_.lookahead > 0, "lookahead must be positive");
    MGSEC_ASSERT(cfg_.threads >= 1, "kernel needs a thread");
    threads_ = std::min<unsigned>(
        cfg_.threads, static_cast<unsigned>(cfg_.domains.size()));
    executed_.assign(cfg_.domains.size(), 0);
}

void
ParallelKernel::runDomains(unsigned worker, Tick window_end)
{
    Profiler *prof = cfg_.profiler;
    for (std::size_t d = worker; d < cfg_.domains.size();
         d += threads_) {
        Domain &dom = *cfg_.domains[d];
        Domain::Scope scope(dom);
        // Clock only domains with runnable work: run() is a no-op on
        // an idle domain, so skipping the clock there keeps the
        // per-window profiling cost proportional to actual work.
        if (prof && dom.eq().nextPendingTick() <= window_end) {
            const std::uint64_t t0 = Profiler::nowNs();
            executed_[d] = dom.eq().run(window_end);
            prof->domainExec(static_cast<DomainId>(d), t0,
                             Profiler::nowNs(), executed_[d]);
        } else {
            executed_[d] = dom.eq().run(window_end);
        }
    }
}

Tick
ParallelKernel::run(Tick from)
{
    const Tick L = cfg_.lookahead;
    Tick window_start = (from / L) * L;
    // The coordinator publishes the window bound before releasing
    // the workers and reads their results after they arrive; both
    // arrive_and_wait() pairs give the necessary happens-before.
    Tick window_end = 0;
    bool stop = false;

    // An exception inside a window (a throwing event callback) must
    // not escape on a worker thread or unwind past a barrier other
    // threads still wait on — either is std::terminate. Every side
    // captures instead; the coordinator notices at the next barrier,
    // shuts the pool down cleanly, and rethrows on the caller so
    // abnormal exits behave exactly like a one-worker run's.
    std::vector<std::exception_ptr> errors(threads_);

    std::barrier<> sync(threads_);
    std::vector<std::thread> pool;
    pool.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w) {
        pool.emplace_back([this, w, &sync, &window_end, &stop,
                           &errors]() {
            Profiler *prof = cfg_.profiler;
            if (cfg_.workerStart)
                cfg_.workerStart(w);
            // A worker's parked stretch runs from finishing its last
            // domain (or thread start) to waking at the next window
            // release — spanning the closed-window barrier AND the
            // coordinator's single-threaded barrier phase, which is
            // exactly the time this worker could not use.
            std::uint64_t bw0 = prof ? Profiler::nowNs() : 0;
            while (true) {
                sync.arrive_and_wait(); // window published
                if (stop)
                    break;
                if (prof)
                    prof->record(w, kProfBarrierWait, bw0,
                                 Profiler::nowNs());
                try {
                    runDomains(w, window_end);
                } catch (...) {
                    errors[w] = std::current_exception();
                }
                if (prof)
                    bw0 = Profiler::nowNs();
                sync.arrive_and_wait(); // window closed
            }
            if (cfg_.workerEnd)
                cfg_.workerEnd(w);
        });
    }
    if (cfg_.workerStart)
        cfg_.workerStart(0);

    while (true) {
        if ((cfg_.done && cfg_.done()) || window_start > cfg_.maxCycles)
            break;
        window_end = window_start + L - 1;
        if (threads_ > 1)
            sync.arrive_and_wait(); // release workers
        try {
            runDomains(0, window_end);
        } catch (...) {
            errors[0] = std::current_exception();
        }
        // The coordinator's barrier wait is the straggler gap: time
        // between finishing its own domains and the slowest worker
        // quiescing. Not measured with one worker (no barrier, the
        // wait is identically zero).
        Profiler *const prof = cfg_.profiler;
        if (threads_ > 1) {
            if (prof) {
                const std::uint64_t bw0 = Profiler::nowNs();
                sync.arrive_and_wait(); // all domains quiesced
                prof->record(0, kProfBarrierWait, bw0,
                             Profiler::nowNs());
            } else {
                sync.arrive_and_wait(); // all domains quiesced
            }
        }
        ++windows_;

        bool failed = false;
        for (const std::exception_ptr &e : errors)
            failed = failed || static_cast<bool>(e);
        if (failed)
            break;

        std::uint64_t active = 0;
        for (std::uint64_t n : executed_)
            active += n > 0 ? 1 : 0;
        if (active > 0)
            stalls_ += cfg_.domains.size() - active;

        // Single-threaded barrier phase: replay cross-domain sends
        // (deliveries land at >= window_start + L), then run the
        // observability hook on the quiesced system. Captured like
        // window execution: workers are parked at the next barrier
        // and must be released before the exception can unwind.
        try {
            if (cfg_.exchange) {
                ProfSpan span(prof, 0, kProfCaptureReplay);
                crossings_ += cfg_.exchange();
            }
            if (cfg_.atBarrier) {
                ProfSpan span(prof, 0, kProfMetricFlush);
                cfg_.atBarrier(window_end);
            }
        } catch (...) {
            errors[0] = std::current_exception();
            break;
        }
        if (prof)
            prof->barrierEpilogue();

        // Advance, skipping windows no domain has work in. The
        // exchange above already scheduled every in-flight delivery,
        // so the minimum pending tick is a true global lower bound.
        Tick tmin = MaxTick;
        for (Domain *d : cfg_.domains)
            tmin = std::min(tmin, d->eq().nextPendingTick());
        if (tmin == MaxTick) {
            window_start += L;
            break; // drained
        }
        window_start = std::max(window_start + L, (tmin / L) * L);
    }

    if (threads_ > 1) {
        stop = true;
        sync.arrive_and_wait();
        for (std::thread &t : pool)
            t.join();
    }
    if (cfg_.workerEnd)
        cfg_.workerEnd(0);
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return window_start;
}

} // namespace mgsec
