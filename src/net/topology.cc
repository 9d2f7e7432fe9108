#include "net/topology.hh"

#include "sim/logging.hh"

namespace mgsec
{

std::string
checkFabric(std::uint32_t num_nodes, const TopologyConfig &cfg)
{
    if (num_nodes < 2)
        return "need a CPU and at least one GPU";
    if (cfg.kind == TopologyKind::NvSwitch &&
        num_nodes - 1 > cfg.switchRadix)
        return strformat("%u GPUs exceed switch radix %u",
                         num_nodes - 1, cfg.switchRadix);
    if (cfg.kind == TopologyKind::Hier &&
        cfg.gpusPerNode > cfg.switchRadix)
        return strformat("%u GPUs per node exceed switch radix %u",
                         cfg.gpusPerNode, cfg.switchRadix);
    return "";
}

Topology::Topology(const TopologyConfig &cfg, std::uint32_t num_nodes,
                   LinkParams pcie, LinkParams nvlink)
    : cfg_(cfg), num_nodes_(num_nodes), pcie_(pcie), nvlink_(nvlink)
{
    MGSEC_ASSERT(num_nodes_ >= 2, "need a CPU and at least one GPU");
    pcie_down_.assign(num_nodes_, Serializer(pcie_.bytesPerCycle));
    pcie_up_.assign(num_nodes_, Serializer(pcie_.bytesPerCycle));
}

Tick
Topology::routePcie(NodeId src, NodeId dst, Bytes bytes,
                    Tick send_tick)
{
    MGSEC_ASSERT(src == 0 || dst == 0, "not a CPU crossing: %u -> %u",
                 src, dst);
    // Dedicated per-GPU PCIe channel: one serialization.
    const NodeId gpu = src == 0 ? dst : src;
    Serializer &ser = src == 0 ? pcie_down_[gpu] : pcie_up_[gpu];
    return ser.reserve(send_tick, bytes) + pcie_.latency;
}

void
Topology::checkGpu(NodeId gpu) const
{
    MGSEC_ASSERT(gpu >= 1 && gpu < num_nodes_, "not a GPU: %u", gpu);
}

const Serializer &
Topology::fabricEgress(NodeId gpu) const
{
    checkGpu(gpu);
    return fab_egress_[gpu];
}

const Serializer &
Topology::fabricIngress(NodeId gpu) const
{
    checkGpu(gpu);
    return fab_ingress_[gpu];
}

const Serializer &
Topology::pcieDown(NodeId gpu) const
{
    checkGpu(gpu);
    return pcie_down_[gpu];
}

const Serializer &
Topology::pcieUp(NodeId gpu) const
{
    checkGpu(gpu);
    return pcie_up_[gpu];
}

namespace
{

/**
 * The paper's point-to-point fabric: shared per-GPU NVLink ports.
 * Egress serializes at the sender's port and ingress at the
 * receiver's, as in Fig. 2.
 */
class P2pTopology : public Topology
{
  public:
    P2pTopology(const TopologyConfig &cfg, std::uint32_t num_nodes,
                LinkParams pcie, LinkParams nvlink)
        : Topology(cfg, num_nodes, pcie, nvlink)
    {
        fab_egress_.assign(num_nodes_,
                           Serializer(nvlink_.bytesPerCycle));
        fab_ingress_.assign(num_nodes_,
                            Serializer(nvlink_.bytesPerCycle));
    }

    Tick
    route(NodeId src, NodeId dst, Bytes bytes, Tick send_tick) override
    {
        if (src == 0 || dst == 0)
            return routePcie(src, dst, bytes, send_tick);
        // Shared NVLink ports: sender egress, then receiver ingress.
        const Tick sent = fab_egress_[src].reserve(send_tick, bytes);
        return fab_ingress_[dst].reserve(sent + nvlink_.latency,
                                         bytes);
    }

    LinkType
    linkType(NodeId src, NodeId dst) const override
    {
        return src == 0 || dst == 0 ? LinkType::Pcie
                                    : LinkType::Nvlink;
    }

    Cycles
    minLatency() const override
    {
        return std::min(pcie_.latency, nvlink_.latency);
    }

    std::size_t
    numLinkClasses() const override
    {
        return 2;
    }
};

/**
 * Two-level fabric: per-node crossbars joined by trunk links. GPU g
 * lives on node (g - 1) / gpusPerNode. Traffic to a GPU contends at
 * its crossbar's egress port (fab_ingress_). With every GPU on one
 * node this is the nvswitch fabric: one crossbar, no trunk.
 */
class HierTopology : public Topology
{
  public:
    HierTopology(const TopologyConfig &cfg, std::uint32_t num_nodes,
                 LinkParams pcie, LinkParams nvlink)
        : Topology(cfg, num_nodes, pcie, nvlink)
    {
        MGSEC_ASSERT(cfg_.gpusPerNode >= 1, "empty fabric nodes");
        MGSEC_ASSERT(cfg_.gpusPerNode <= cfg_.switchRadix,
                     "%u GPUs per node exceed switch radix %u",
                     cfg_.gpusPerNode, cfg_.switchRadix);
        node_of_.assign(num_nodes_, 0);
        for (NodeId g = 1; g < num_nodes_; ++g)
            node_of_[g] = (g - 1) / cfg_.gpusPerNode;
        const std::uint32_t fabric_nodes = node_of_.back() + 1;
        fab_egress_.assign(num_nodes_,
                           Serializer(nvlink_.bytesPerCycle));
        fab_ingress_.assign(num_nodes_,
                            Serializer(cfg_.switchBytesPerCycle));
        trunk_out_.assign(fabric_nodes,
                          Serializer(cfg_.interBytesPerCycle));
        trunk_in_.assign(fabric_nodes,
                         Serializer(cfg_.interBytesPerCycle));
    }

    Tick
    route(NodeId src, NodeId dst, Bytes bytes, Tick send_tick) override
    {
        if (src == 0 || dst == 0)
            return routePcie(src, dst, bytes, send_tick);
        const std::uint32_t hs = node_of_[src], hd = node_of_[dst];
        Tick t = fab_egress_[src].reserve(send_tick, bytes);
        if (hs != hd) {
            // Source crossbar to trunk, trunk crossing, trunk into
            // the destination crossbar.
            t = trunk_out_[hs].reserve(t + cfg_.switchLatency, bytes);
            t = trunk_in_[hd].reserve(t + cfg_.interLatency, bytes);
        }
        // The crossbar's egress wire adds the NVLink hop latency.
        const Tick out =
            fab_ingress_[dst].reserve(t + cfg_.switchLatency, bytes);
        return out + nvlink_.latency;
    }

    LinkType
    linkType(NodeId src, NodeId dst) const override
    {
        if (src == 0 || dst == 0)
            return LinkType::Pcie;
        return node_of_[src] == node_of_[dst] ? LinkType::Switch
                                              : LinkType::Inter;
    }

    Cycles
    minLatency() const override
    {
        return std::min(pcie_.latency,
                        cfg_.switchLatency + nvlink_.latency);
    }

    std::size_t
    numLinkClasses() const override
    {
        // A single fabric node never emits Inter.
        return trunk_out_.size() == 1 ? 3 : 4;
    }

  private:
    /** Fabric node of each GPU; entry 0 (the CPU) unused. */
    std::vector<std::uint32_t> node_of_;
    std::vector<Serializer> trunk_out_;
    std::vector<Serializer> trunk_in_;
};

} // namespace

std::unique_ptr<Topology>
makeTopology(const TopologyConfig &cfg, std::uint32_t num_nodes,
             LinkParams pcie, LinkParams nvlink)
{
    switch (cfg.kind) {
      case TopologyKind::P2p:
        return std::make_unique<P2pTopology>(cfg, num_nodes, pcie,
                                             nvlink);
      case TopologyKind::NvSwitch: {
        // One crossbar for every GPU: a one-node hier fabric.
        TopologyConfig one = cfg;
        one.gpusPerNode = num_nodes - 1;
        return std::make_unique<HierTopology>(one, num_nodes, pcie,
                                              nvlink);
      }
      case TopologyKind::Hier:
        return std::make_unique<HierTopology>(cfg, num_nodes, pcie,
                                              nvlink);
    }
    MGSEC_ASSERT(false, "unknown topology kind");
    return nullptr;
}

} // namespace mgsec
