/**
 * @file
 * Passive wire-level observer: what an adversary on the fabric sees.
 *
 * A WireObserver subscribes to the same wire-occupancy stream the
 * TraceSink's "net" category records — one callback per packet
 * crossing a link — but is deliberately restricted to the passive
 * adversary's view: source, destination, wire size in bytes, and
 * timing (departure and arrival ticks). No payload, no header
 * fields, no security metadata are visible; batch structure must be
 * *inferred* from size and timing alone, exactly as NVBleed-style
 * link probes must (see PAPERS.md).
 *
 * The observer folds the stream online into per-directed-flow state
 * (inter-packet-gap, wire-size, burst-length, and control-gap
 * histograms) plus per-link-class utilization windows (the fabric's
 * classes: pcie / nvlink on the point-to-point machine, plus switch /
 * inter on the scale-out fabrics). Everything is a commutative
 * multiset fold over packets keyed by departure tick, so the
 * serialized output is byte-identical
 * across --sim-threads worker counts that produce the same wire
 * schedule (the kernel's barrier merge replays captured wire
 * events in a deterministic total order; see docs/OBSERVABILITY.md).
 *
 * "Control-sized" packets (wire size <= ctlMaxBytes) approximate the
 * adversary's batch-close signature: batch MAC trailers and
 * standalone ACKs are the only tiny packets on the wire, so the gap
 * distribution between consecutive control-sized packets of a flow
 * traces the batching cadence without reading any header bit.
 *
 * Like the TraceSink, a null observer pointer in the Network is the
 * entire cost of the disabled feature. Enabled, it costs what the run
 * sends: a flow's state, link class included, is allocated at the
 * flow's first packet, so an n-node observer starts at O(n) bytes.
 */

#ifndef MGSEC_SIM_WIRE_OBSERVER_HH
#define MGSEC_SIM_WIRE_OBSERVER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mgsec
{

/** Folds the passive wire view into leakage-analysis features. */
class WireObserver
{
  public:
    struct Params
    {
        /** Width of one utilization window in cycles. */
        Tick windowCycles = 1024;
        /** Retained windows per link class; later bins are dropped
         *  (and counted) so a long run bounds memory. */
        std::size_t maxWindows = 16384;
        /** A gap > burstGap cycles closes the current burst. */
        Tick burstGap = 64;
        /** Wire size <= this is counted as a control-sized packet. */
        Bytes ctlMaxBytes = 32;
    };

    using Classifier = std::function<std::size_t(NodeId, NodeId)>;

    /**
     * Nodes are 0 (CPU) .. num_nodes-1; flows are directed pairs.
     * @p class_names labels the fabric's link classes 0..n-1 (class 0
     * is the CPU-side pcie class, which the fan-out features
     * exclude) and @p classify maps a flow's endpoints to its class,
     * once per flow, at its first packet.
     */
    WireObserver(std::uint32_t num_nodes,
                 std::vector<std::string> class_names,
                 Classifier classify)
        : WireObserver(num_nodes, std::move(class_names),
                       std::move(classify), Params{})
    {
    }
    WireObserver(std::uint32_t num_nodes,
                 std::vector<std::string> class_names,
                 Classifier classify, Params p);

    /**
     * One packet crossing the wire: src -> dst, @p bytes on the
     * link, departing at @p send_tick and fully delivered at
     * @p arrive_tick. Calls must be ordered by the wire schedule
     * (nondecreasing send_tick per flow); the Network guarantees
     * this at every kernel worker count.
     */
    void onWirePacket(NodeId src, NodeId dst, Bytes bytes,
                      Tick send_tick, Tick arrive_tick);

    std::uint64_t packets() const { return packets_; }
    std::uint64_t bytes() const { return bytes_; }

    /**
     * The adversary-visible feature vector: fixed-order
     * (name, value) pairs derived from the folded state. Names and
     * order are part of the WIRE_*.json schema (the classifier in
     * src/verify and the report tooling consume them positionally).
     */
    std::vector<std::pair<std::string, double>> features() const;

    /**
     * Serialize the full observer state as one JSON document
     * (WIRE_<hash>.json; schema in docs/OBSERVABILITY.md).
     */
    void writeJson(std::ostream &os) const;

  private:
    /** Per directed (src, dst) flow, folded online. */
    struct Flow
    {
        explicit Flow(std::size_t link_class);

        std::size_t cls; ///< link class, fixed at the first packet
        std::uint64_t packets = 0;
        std::uint64_t bytes = 0;
        std::uint64_t busy = 0; ///< sum of (arrive - send)
        Tick firstSend = 0;
        Tick lastSend = 0;
        Tick lastArrive = 0;

        Tick lastCtl = 0;
        bool ctlSeen = false;
        std::uint64_t ctlPackets = 0;

        Tick burstStart = 0;
        std::uint64_t burstLen = 0;

        stats::Histogram gap;    ///< send-to-send deltas (cycles)
        stats::Histogram size;   ///< wire bytes per packet
        stats::Histogram burst;  ///< packets per burst
        stats::Histogram ctlGap; ///< deltas between ctl-sized packets
    };

    /** Per link class (pcie / nvlink / switch / ...) accumulation. */
    struct LinkClass
    {
        std::uint64_t packets = 0;
        std::uint64_t bytes = 0;
        std::uint64_t busy = 0;
        /** bytes per windowCycles bin, indexed by send_tick bin. */
        std::vector<std::uint64_t> windowBytes;
        std::uint64_t droppedWindows = 0;
    };

    /** flows_ index of (src, dst); kNoFlow before its first packet. */
    static constexpr std::uint32_t kNoFlow = ~std::uint32_t{0};

    /** The (src, dst) flow, created at its first packet. */
    Flow &touch(NodeId src, NodeId dst);
    /** The (src, dst) flow, or null if it never carried a packet. */
    const Flow *find(NodeId src, NodeId dst) const;

    /** Merge every flow of a link class into fresh histograms. */
    void mergeClass(std::size_t cls, stats::Histogram &gap,
                    stats::Histogram &size, stats::Histogram &burst,
                    stats::Histogram &ctl_gap,
                    std::uint64_t &ctl_packets) const;

    std::uint32_t num_nodes_;
    Params params_;
    /** Flows in first-packet order; flow_ix_ finds them by pair. */
    std::vector<Flow> flows_;
    /**
     * flow_ix_[src][dst] indexes flows_; a source's row of num_nodes
     * entries is allocated at that source's first packet.
     */
    std::vector<std::vector<std::uint32_t>> flow_ix_;
    std::vector<std::string> class_names_;
    Classifier classify_;
    std::vector<LinkClass> classes_;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    Tick first_send_ = 0;
    Tick last_arrive_ = 0;
    bool any_ = false;
};

} // namespace mgsec

#endif // MGSEC_SIM_WIRE_OBSERVER_HH
