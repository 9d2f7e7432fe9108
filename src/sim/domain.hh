/**
 * @file
 * Event domains of the conservative-PDES kernel.
 *
 * A Domain is one shard of the discrete-event kernel: an EventQueue
 * plus the per-domain observability buffers that let a multi-threaded
 * run produce deterministic artifacts. Domains never share SimObjects
 * — core/system.cc partitions objects so that the only cross-domain
 * edges are wire hops through the Network, which the parallel kernel
 * turns into captured messages replayed at barrier windows
 * (sim/parallel_kernel.hh).
 *
 * Domain 0 is the host/fabric domain. It wraps an externally owned
 * queue (the system's `eq_`, which the CPU, network and page table
 * are bound to); GPU domains own their queues.
 *
 * The thread-local current() pointer tells code running inside a
 * window which domain's clock it is on — Network::send() uses it to
 * timestamp captured cross-domain messages with the *sender's* local
 * time rather than the host queue's stale clock.
 */

#ifndef MGSEC_SIM_DOMAIN_HH
#define MGSEC_SIM_DOMAIN_HH

#include <memory>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mgsec
{

class TraceSink;

class Domain
{
  public:
    /** Wrap an externally owned queue (the host domain). */
    Domain(DomainId id, EventQueue &host_eq);
    /** Own a fresh queue (per-GPU domains). */
    explicit Domain(DomainId id);
    ~Domain();

    Domain(const Domain &) = delete;
    Domain &operator=(const Domain &) = delete;

    DomainId id() const { return id_; }
    EventQueue &eq() { return *eq_; }
    const EventQueue &eq() const { return *eq_; }

    /**
     * Domain whose window the calling thread is currently executing,
     * or nullptr outside a window (barrier phases, code driving a
     * queue directly).
     */
    static Domain *current();

    /** RAII current()-setter the kernel wraps window execution in. */
    class Scope
    {
      public:
        explicit Scope(Domain &d);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Domain *prev_;
    };

    /**
     * @name Per-domain trace buffering
     *
     * Each domain writes trace events into a private embedded
     * TraceSink; the coordinator splices the buffers into the master
     * sink at every barrier, in domain order, so the merged file is
     * run-to-run deterministic.
     */
    /// @{
    /** Create the buffer sink and attach it to this domain's queue. */
    void enableTraceBuffer();
    TraceSink *traceBuffer() { return trace_.get(); }
    /// @}

  private:
    DomainId id_;
    std::unique_ptr<EventQueue> owned_; ///< null for the host domain
    EventQueue *eq_;
    std::unique_ptr<TraceSink> trace_;
};

} // namespace mgsec

#endif // MGSEC_SIM_DOMAIN_HH
