/**
 * @file
 * Chrome trace_event sink for simulation timelines.
 *
 * Emits the JSON Array Format understood by chrome://tracing and
 * Perfetto: one process (pid 0) whose threads are the simulated
 * nodes, with simulated cycles mapped 1:1 onto microseconds.
 * Components reach the sink through EventQueue::traceSink(); a null
 * pointer there is the entire cost of disabled tracing, so the
 * zero-allocation hot-path guarantee is preserved when no sink is
 * attached.
 *
 * Event vocabulary (category / name):
 *  - "packet"  complete: one span per delivered data packet, from
 *              injection at the sender to readiness at the receiver.
 *  - "net"     complete: wire occupancy of each hop (serialization
 *              plus link latency), with a bytes argument.
 *  - "pad"     complete "sendWait"/"recvWait": cycles a packet
 *              stalled waiting for pad material; instant
 *              "sendMiss"/"recvMiss": pad-buffer misses.
 *  - "ewma"    counter "S": Dynamic send-weight after each EWMA
 *              update; instant "repartition": an actual quota move.
 *  - "batch"   instant "close" (batch reached its declared size) and
 *              "flush" (idle-timeout or drain trailer).
 *  - "replay"  instant "overflow": replay-window span exceeded.
 *  - "memprot" complete "walk": host integrity-tree walk latency.
 *  - "attr"    complete: one span per nonzero lifecycle stage of a
 *              delivered message (padClaim/padWait/xmit/wire/
 *              recvVerify), emitted when latency attribution is on.
 */

#ifndef MGSEC_SIM_TRACE_SINK_HH
#define MGSEC_SIM_TRACE_SINK_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/types.hh"

namespace mgsec
{

/** Streaming Chrome trace_event writer (JSON Array Format). */
class TraceSink
{
  public:
    /** The stream must outlive the sink; finish() seals the JSON. */
    explicit TraceSink(std::ostream &os);
    ~TraceSink();

    /** Tag selecting the embedded (buffer) mode. */
    struct Embedded
    {
    };

    /**
     * Embedded mode, used for the per-domain buffers of multi-worker
     * kernel runs: no document header or footer is written, and every
     * event is prefixed with ",\n" so the buffered bytes can be
     * spliced verbatim into a master sink's traceEvents array with
     * appendRaw().
     */
    TraceSink(std::ostream &os, Embedded);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Duration ("X") event: [start, start + dur) on thread tid. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur);
    /** Duration event with one integer argument. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur, const char *arg_key,
                  std::uint64_t arg_val);

    /** Thread-scoped instant ("i") event. */
    void instant(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts);
    /** Instant event with one numeric argument. */
    void instant(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts, const char *arg_key, double arg_val);

    /** Counter ("C") event: plots a per-thread series over time. */
    void counter(std::uint32_t tid, const char *cat, const char *name,
                 Tick ts, double value);

    /**
     * Metadata ("M") event naming a lane: @p what is
     * "process_name" or "thread_name", @p name the label shown by
     * about:tracing / Perfetto instead of the bare pid/tid.
     */
    void metadata(std::uint32_t tid, const char *what,
                  const std::string &name);

    /**
     * @name Host (wall-clock) track — pid 1
     * The self-profiler's spans live in a second process track so
     * wall-clock microseconds sit beside (never mixed into) the
     * sim-tick lanes of pid 0. tid is the kernel worker lane.
     */
    /// @{
    void hostComplete(std::uint32_t tid, const char *cat,
                      const char *name, std::uint64_t start_us,
                      std::uint64_t dur_us);
    void hostMetadata(std::uint32_t tid, const char *what,
                      const std::string &name);
    /// @}

    /** Close the traceEvents array; idempotent, called by ~TraceSink. */
    void finish();

    std::uint64_t events() const { return events_; }

    /**
     * Splice @p nevents events captured by an embedded sink into
     * this (non-embedded) sink's array. The leading comma of the
     * buffer is dropped when this sink has emitted nothing yet.
     */
    void appendRaw(const std::string &buf, std::uint64_t nevents);

    /**
     * Embedded sinks only: return the buffered event count and reset
     * it, pairing with the owner draining the underlying buffer.
     */
    std::uint64_t takeEvents();

  private:
    /** Common prefix up to (but not including) the closing brace. */
    void prefix(char ph, std::uint32_t tid, const char *cat,
                const char *name, Tick ts)
    {
        prefixPid(ph, 0, tid, cat, name, ts);
    }
    void prefixPid(char ph, unsigned pid, std::uint32_t tid,
                   const char *cat, const char *name, Tick ts);

    std::ostream &os_;
    std::uint64_t events_ = 0;
    bool embedded_ = false;
    bool finished_ = false;
};

} // namespace mgsec

#endif // MGSEC_SIM_TRACE_SINK_HH
