/**
 * @file
 * Fabric topology models: who serializes where on a packet's way
 * from src to dst.
 *
 * The Network owns packet routing policy-free: accounting, tamper
 * points, capture/replay and delivery are identical for every
 * fabric. What differs between machines is which ports a packet
 * occupies and for how long — that is a Topology:
 *
 *   p2p      - the paper's target system (Fig. 2 / Table III): every
 *              GPU owns one NVLink-class port shared by its traffic
 *              to/from all peers (egress serializes at the sender,
 *              ingress at the receiver), plus a dedicated PCIe
 *              channel to the CPU.
 *
 *                CPU ==pcie== GPUi  <--nvlink port-->  GPUj
 *
 *   hier     - two-level fabric: GPUs are grouped gpusPerNode to a
 *              node. Every GPU owns one uplink into its node's
 *              crossbar, which has one egress port per GPU where
 *              traffic from all senders contends; inter-node traffic
 *              additionally serializes through the source node's
 *              trunk-out and the destination node's trunk-in port.
 *              CPU traffic still uses the dedicated PCIe channels.
 *
 *                GPUi --uplink--> [ crossbar ] --egress[j]--> GPUj
 *                GPUi -> [ node crossbar ] -> trunk ==> trunk ->
 *                [ node crossbar ] -> GPUj
 *
 *   nvswitch - an NVSwitch-class crossbar: hier with every GPU on
 *              one node (gpusPerNode = the GPU count), so no packet
 *              crosses a trunk.
 *
 * Every topology delivers FIFO per (src, dst): a flow's packets pass
 * through the same serializer chain in send order, and
 * Serializer::reserve() is monotone, so arrival order per flow
 * matches send order — the property the secure channel's counter
 * protocol relies on.
 */

#ifndef MGSEC_NET_TOPOLOGY_HH
#define MGSEC_NET_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/serializer.hh"
#include "sim/latency_attr.hh"
#include "sim/knob.hh"
#include "sim/types.hh"

namespace mgsec
{

/** Static channel parameters. */
struct LinkParams
{
    double bytesPerCycle = 1.0;
    Cycles latency = 1;
};

enum class TopologyKind : std::uint8_t
{
    P2p = 0,      ///< shared per-GPU NVLink ports + per-GPU PCIe
    NvSwitch = 1, ///< single crossbar, contention at switch egress
    Hier = 2,     ///< per-node crossbars + inter-node trunk links
};

inline constexpr EnumName<TopologyKind> kTopologyKindNames[] = {
    {TopologyKind::P2p, "p2p"},
    {TopologyKind::NvSwitch, "nvswitch"},
    {TopologyKind::Hier, "hier"}};

inline const char *
topologyKindName(TopologyKind k)
{
    return nameIn(kTopologyKindNames, k);
}

/** Fabric selection + the knobs of the non-p2p fabrics. */
struct TopologyConfig
{
    TopologyKind kind = TopologyKind::P2p;

    /** @name nvswitch / hier crossbar knobs */
    /// @{
    /** Max GPUs one crossbar accepts (Hier: per node). */
    std::uint32_t switchRadix = 64;
    /** Uplink wire + crossbar traversal (cycles). */
    Cycles switchLatency = 60;
    /** Bandwidth of one switch egress port (bytes/cycle). */
    double switchBytesPerCycle = 50.0;
    /// @}

    /** @name hier fabric knobs */
    /// @{
    std::uint32_t gpusPerNode = 8;
    /** One-way trunk traversal between nodes (cycles). */
    Cycles interLatency = 300;
    /** Bandwidth of one node's trunk port per direction. */
    double interBytesPerCycle = 25.0;
    /// @}

    bool operator==(const TopologyConfig &) const = default;
};

/**
 * Routing/port-sharing model of one fabric. Owns every serializer a
 * packet can occupy; the Network delegates the timing decision here
 * and keeps everything else (accounting, tamper, capture, delivery).
 */
class Topology
{
  public:
    Topology(const TopologyConfig &cfg, std::uint32_t num_nodes,
             LinkParams pcie, LinkParams nvlink);
    virtual ~Topology() = default;

    TopologyKind kind() const { return cfg_.kind; }
    std::uint32_t numNodes() const { return num_nodes_; }

    /**
     * Serialize a src -> dst crossing of @p bytes starting no
     * earlier than @p send_tick through the fabric's ports.
     * @return the arrival tick of the last byte.
     */
    virtual Tick route(NodeId src, NodeId dst, Bytes bytes,
                       Tick send_tick) = 0;

    /** Link class of the (src, dst) crossing, for attribution and
     *  wire-observer tagging. */
    virtual LinkType linkType(NodeId src, NodeId dst) const = 0;

    /**
     * Smallest latency any crossing can experience: the conservative
     * PDES lookahead bound (a send at tick >= T arrives at
     * >= T + minLatency()).
     */
    virtual Cycles minLatency() const = 0;

    /**
     * Link classes this fabric can emit, contiguous from
     * LinkType 0 (pcie). p2p -> 2; a switch fabric -> 3 with one
     * fabric node (nvswitch, or hier with every GPU on one node)
     * and 4 with trunks; attribution registers histograms for
     * exactly this many.
     */
    virtual std::size_t numLinkClasses() const = 0;

    /**
     * @name Per-GPU port accessors (utilization analyses)
     * Every fabric gives each GPU a PCIe down/up pair and a fabric
     * egress/ingress pair: for p2p the shared NVLink port's two
     * sides, for nvswitch/hier the uplink into the crossbar and the
     * crossbar's egress port toward the GPU.
     */
    /// @{
    const Serializer &fabricEgress(NodeId gpu) const;
    const Serializer &fabricIngress(NodeId gpu) const;
    const Serializer &pcieDown(NodeId gpu) const; ///< CPU -> GPU
    const Serializer &pcieUp(NodeId gpu) const;   ///< GPU -> CPU
    /// @}

  protected:
    /** CPU-traffic crossing shared by every fabric: one dedicated
     *  per-GPU PCIe serialization. Asserts src or dst is the CPU. */
    Tick routePcie(NodeId src, NodeId dst, Bytes bytes,
                   Tick send_tick);

    void checkGpu(NodeId gpu) const;

    TopologyConfig cfg_;
    std::uint32_t num_nodes_;
    LinkParams pcie_;
    LinkParams nvlink_;

    /** Indexed by node id; entry 0 unused. */
    std::vector<Serializer> fab_egress_;
    std::vector<Serializer> fab_ingress_;
    std::vector<Serializer> pcie_down_;
    std::vector<Serializer> pcie_up_;
};

/**
 * Why @p num_nodes nodes (node 0 plus the GPUs) do not fit @p cfg, or
 * "". Parsers call it; the topology constructors assert the same.
 */
std::string checkFabric(std::uint32_t num_nodes, const TopologyConfig &cfg);

/** Build the fabric @p cfg selects. */
std::unique_ptr<Topology> makeTopology(const TopologyConfig &cfg,
                                       std::uint32_t num_nodes,
                                       LinkParams pcie,
                                       LinkParams nvlink);

} // namespace mgsec

#endif // MGSEC_NET_TOPOLOGY_HH
