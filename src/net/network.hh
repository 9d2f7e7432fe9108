/**
 * @file
 * System interconnect: CPU + N GPUs.
 *
 * The Network owns everything every fabric shares — accounting,
 * tamper points, capture/replay, FIFO delivery — and delegates the
 * routing/port-sharing decision (who serializes where, for how
 * long) to a Topology (net/topology.hh). The default p2p topology
 * is the paper's target system (Fig. 2 / Table III):
 *   - every GPU owns one NVLink-class port (50 GB/s per direction at
 *     1 GHz => 50 B/cycle) shared by its traffic to/from all peer
 *     GPUs: egress serializes at the sender's port, ingress at the
 *     receiver's;
 *   - each GPU additionally has a dedicated PCIe v4 channel to the
 *     CPU (32 GB/s per direction => 32 B/cycle).
 *
 * Delivery is FIFO per (src, dst) on every topology, which the
 * secure channel's counter protocol relies on.
 */

#ifndef MGSEC_NET_NETWORK_HH
#define MGSEC_NET_NETWORK_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/sim_object.hh"

namespace mgsec
{

class WireObserver;

class Network : public SimObject
{
  public:
    using Handler = std::function<void(PacketPtr)>;

    /**
     * @param num_nodes total processors (CPU is node 0), >= 2.
     * @param pcie per-direction parameters of each CPU<->GPU channel.
     * @param nvlink per-direction parameters of each GPU's shared
     *               inter-GPU port.
     * @param topo the fabric carrying them (net/topology.hh); the
     *             default is the paper's p2p machine.
     */
    Network(const std::string &name, EventQueue &eq,
            std::uint32_t num_nodes, LinkParams pcie, LinkParams nvlink,
            const TopologyConfig &topo = {});

    std::uint32_t numNodes() const { return num_nodes_; }

    /** The fabric carrying this network's packets (and owning its
     *  ports, for utilization analyses). */
    const Topology &topology() const { return *topo_; }
    /** Link class of an (src, dst) crossing on this fabric. */
    LinkType
    linkType(NodeId src, NodeId dst) const
    {
        return topo_->linkType(src, dst);
    }

    /** Install the receive handler for a node. */
    void setHandler(NodeId node, Handler h);

    /** Route a packet from pkt->src to pkt->dst. */
    void send(PacketPtr pkt);

    /**
     * @name Wire order: capture and replay
     *
     * send() never crosses the wire inline. It records {packet,
     * sender-local tick} into a writer lane, and replayCaptured()
     * later performs the whole crossing (tamper points, byte
     * accounting, port serialization, trace/lifecycle stamps,
     * delivery) in one canonical order: (send tick, src, dst, lane,
     * push order). Every delivery is scheduled at kPriWire, ahead of
     * local work at its arrival tick. Wire order, port reservations
     * and the interleaving at the receiver are therefore a pure
     * function of simulation state, on every fabric and for every
     * kernel thread count.
     *
     * With capture on (the event kernel, sim/parallel_kernel.hh),
     * nodes live in per-node domains and every send() crosses
     * domains, so the network is the explicit cross-domain message
     * channel. A send lands in the *calling domain's* lane (one
     * writer per lane regardless of the src the packet carries, so
     * an attacker model injecting foreign-src traffic from its own
     * domain stays race-free), and the kernel replays all lanes at
     * each barrier on the quiesced coordinator thread. A window's
     * deliveries always land in a later window: with lookahead L =
     * min link latency and sends at tick >= window start T, arrival
     * >= T + L, past the window end T + L - 1.
     *
     * With capture off (a standalone network on one queue, as in unit
     * tests), sends buffer in the overflow lane and a same-tick flush
     * event replays them onto the home queue; the sort and the
     * crossing are the same code as under the kernel.
     */
    /// @{
    void setParallelCapture(bool on);
    bool parallelCapture() const { return capture_; }

    /**
     * Replay every captured send through the wire, delivering into
     * the destination's own queue (@p queue_of maps node -> domain
     * queue). Single-threaded: call only at a barrier, with all
     * domain threads quiesced. @return packets replayed (the
     * window's domain-crossing count; tamper-dropped packets count
     * as crossings attempted).
     */
    std::uint64_t
    replayCaptured(const std::function<EventQueue &(NodeId)> &queue_of);
    /// @}

    /**
     * @name In-flight meddling — the physical attacker of the
     * threat model.
     *
     * Two distinct mount points along a packet's wire crossing:
     *
     *   PreWire  - before byte accounting and port serialization.
     *              Mutations (including byte-class fields) fully take
     *              effect: they change what is accounted, how long
     *              the ports are busy, and what arrives. A Drop here
     *              suppresses the packet before it touches the wire.
     *   PostWire - after accounting and serialization: the hook sees
     *              the exact bytes the wire carried (what a probe on
     *              the exposed interconnect captures), so replay
     *              capture records true wire images. Mutations alter
     *              only what is delivered, never the traffic
     *              accounting or timing already committed; a Drop
     *              models in-flight loss (the bytes crossed the
     *              wire but nothing arrives).
     *
     * Hooks run on every packet crossing the exposed interconnect;
     * used by the adversarial validation subsystem (src/verify).
     */
    /// @{
    enum class TamperPoint : std::uint8_t { PreWire = 0, PostWire = 1 };
    enum class TamperVerdict : std::uint8_t { Forward, Drop };
    using TamperHook = std::function<TamperVerdict(Packet &)>;
    void
    setTamper(TamperPoint point, TamperHook h)
    {
        tamper_[static_cast<std::size_t>(point)] = std::move(h);
    }

    /** Packets a tamper hook dropped (either point). */
    std::uint64_t droppedPackets() const { return dropped_; }
    /// @}

    /**
     * Attach a passive wire observer (null detaches). The observer
     * sees each packet's (src, dst, wire bytes, send tick, arrive
     * tick) after the wire crossing is committed — the same view a
     * probe on the exposed interconnect captures — and nothing else.
     * Like the trace sink, a null pointer is the entire cost of the
     * disabled feature.
     */
    void setWireObserver(WireObserver *obs) { wire_obs_ = obs; }
    WireObserver *wireObserver() const { return wire_obs_; }

    /** @name Aggregate traffic accounting */
    /// @{
    Bytes totalBytes() const;
    Bytes classBytes(TrafficClass c) const
    {
        return static_cast<Bytes>(
            class_bytes_[static_cast<std::size_t>(c)].value());
    }
    std::uint64_t totalPackets() const
    {
        return static_cast<std::uint64_t>(packets_.value());
    }
    /** Bytes sent on the (src -> dst) flow. */
    Bytes pairBytes(NodeId src, NodeId dst) const;
    /** Packets currently between send() and delivery. */
    std::uint64_t inFlight() const { return in_flight_.load(); }
    /// @}

  private:
    void deliver(Tick when, PacketPtr pkt, EventQueue &eq);
    /** The full wire crossing, parameterized so capture replay can
     *  run it with the sender's tick and the receiver's queue. */
    void sendOnWire(PacketPtr pkt, Tick send_tick, EventQueue &dst_eq);
    struct CapturedSend
    {
        PacketPtr pkt;
        Tick sendTick;
        /** Position in the concatenated window (replay tie-break). */
        std::size_t seq = 0;
    };

    std::uint32_t num_nodes_;
    std::unique_ptr<Topology> topo_;

    std::vector<Handler> handlers_;
    WireObserver *wire_obs_ = nullptr;
    std::array<TamperHook, 2> tamper_;
    std::uint64_t dropped_ = 0;

    std::vector<double> pair_bytes_;
    /** Atomic: delivery callbacks decrement on domain threads. */
    std::atomic<std::uint64_t> in_flight_{0};

    bool capture_ = false;
    /** A standalone same-tick flush is pending (capture off). */
    bool flush_scheduled_ = false;
    /** Per-writer capture lanes, indexed by the sending domain's id.
     *  The last lane takes sends outside any Domain scope (drains run
     *  between kernel windows on the main thread, and every send of a
     *  standalone network). Single-writer each; the kernel barrier
     *  orders writes before the coordinator reads. Keyed by writer
     *  rather than (src, dst) because the verify testbed's adversary
     *  injects foreign-src packets from its own domain. */
    std::vector<std::vector<CapturedSend>> lanes_;
    /** replayCaptured()'s merge buffer, kept to reuse its capacity. */
    std::vector<CapturedSend> window_;

    stats::Scalar packets_{"packets", "packets sent"};
    std::array<stats::Scalar, kNumTrafficClasses> class_bytes_{
        stats::Scalar{"bytesHeader", "header bytes"},
        stats::Scalar{"bytesPayload", "payload bytes"},
        stats::Scalar{"bytesSecMeta", "security metadata bytes"},
        stats::Scalar{"bytesSecAck", "security ACK bytes"},
    };
};

} // namespace mgsec

#endif // MGSEC_NET_NETWORK_HH
