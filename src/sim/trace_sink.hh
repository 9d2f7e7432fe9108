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
 *  - "packet"  complete: the one event of a delivered data packet,
 *              on the receiver's row from Enqueue to DeliverReady
 *              (sim/lifecycle.hh). Its args are the sender "src",
 *              the wire "bytes" and the five stage durations
 *              "padClaim"/"padWait"/"xmit"/"wire"/"recvVerify",
 *              which sum to "dur".
 *  - "net"     complete: wire occupancy (serialization plus link
 *              latency) of a SecAck or BatchMac packet, with a bytes
 *              argument; these never reach delivery, so this is their
 *              only record. Shaping chaff is not traced.
 *  - "pad"     instant "sendMiss"/"recvMiss": pad-buffer misses.
 *  - "ewma"    counter "S": Dynamic send-weight after each EWMA
 *              update; instant "repartition": an actual quota move.
 *  - "batch"   instant "close" (batch reached its declared size) and
 *              "flush" (idle-timeout or drain trailer).
 *  - "replay"  instant "overflow": replay-window span exceeded.
 *  - "memprot" complete "walk": host integrity-tree walk latency.
 *
 * A data packet used to leave up to nine events (a "packet" and a
 * "net" span, "pad" sendWait/recvWait spans and one "attr" span per
 * nonzero stage); the stage args of its one "packet" event carry the
 * same times. On the benchmark's observe16-nvswitch run that cut the
 * trace from 255.3 to 83.2 MB and from 3.12M to 0.57M events.
 */

#ifndef MGSEC_SIM_TRACE_SINK_HH
#define MGSEC_SIM_TRACE_SINK_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/lifecycle.hh"
#include "sim/types.hh"

namespace mgsec
{

/**
 * Streaming Chrome trace_event writer (JSON Array Format).
 *
 * Events are formatted with std::to_chars into a string the sink
 * owns; a master sink writes that buffer to its stream in one
 * write() whenever it passes kDrainBytes, and finish() drains the
 * rest. Doubles print as `%g` (six significant digits), the bytes an
 * ostream produces at its default precision.
 */
class TraceSink
{
  public:
    /** Buffered bytes past which a master sink writes them out. */
    static constexpr std::size_t kDrainBytes = 64 * 1024;

    /** The stream must outlive the sink; finish() seals the JSON. */
    explicit TraceSink(std::ostream &os);
    ~TraceSink();

    /** Tag selecting the embedded (buffer) mode. */
    struct Embedded
    {
    };

    /**
     * Embedded mode, used for the per-domain buffers of multi-worker
     * kernel runs: no stream, no document header or footer, and
     * every event is prefixed with ",\n" so the buffered bytes can
     * be spliced verbatim into a master sink's traceEvents array
     * with splice().
     */
    explicit TraceSink(Embedded);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Duration ("X") event: [start, start + dur) on thread tid. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur);
    /** Duration event with one integer argument. */
    void complete(std::uint32_t tid, const char *cat, const char *name,
                  Tick start, Tick dur, const char *arg_key,
                  std::uint64_t arg_val);

    /**
     * The one "packet" event of a delivered data packet: a complete
     * event on receiver @p tid from the Enqueue to the DeliverReady
     * stamp of @p st, with args src, bytes and the five stage
     * durations.
     */
    void packet(std::uint32_t tid, const char *name, std::uint32_t src,
                std::uint64_t bytes, const LifeStamps &st);

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
     * Drain the buffer and close the traceEvents array; idempotent,
     * called by ~TraceSink. A no-op on embedded sinks.
     */
    void finish();

    std::uint64_t events() const { return events_; }

    /**
     * Move every event buffered in embedded sink @p from to the end
     * of this (master) sink's array and empty @p from, keeping its
     * buffer's capacity for the next window. The leading comma of
     * the spliced bytes is dropped when this sink has emitted
     * nothing yet.
     */
    void splice(TraceSink &from);

  private:
    /**
     * Make room for one event of at most @p n bytes, write its
     * separator and count it; returns the cursor after the separator.
     */
    char *open(std::size_t n);
    /**
     * open() plus the common prefix up to the closing brace; @p extra
     * is the length of the caller's strings still to be written.
     */
    char *begin(char ph, std::uint32_t tid, const char *cat,
                const char *name, Tick ts, std::size_t extra);
    /** Close the event ending at @p end; drains past kDrainBytes. */
    void commit(char *end);
    /** Grow buf_ so @p n more bytes fit after the first len_. */
    void reserve(std::size_t n);
    void drain();

    std::ostream *os_ = nullptr; ///< null for embedded sinks
    /**
     * Formatted bytes are buf_[0, len_). buf_'s size is the room
     * events are formatted into, grown geometrically and never
     * shrunk, so steady-state formatting writes through a pointer
     * without reallocating or zero-filling.
     */
    std::string buf_;
    std::size_t len_ = 0;
    std::uint64_t events_ = 0;
    bool finished_ = false;
};

} // namespace mgsec

#endif // MGSEC_SIM_TRACE_SINK_HH
