/**
 * @file
 * Routing unit tests for the Topology abstraction: every fabric must
 * deliver every (src, dst) pair exactly once, preserve FIFO per pair
 * under switch contention, and the default p2p fabric must reproduce
 * the pre-refactor Network's arrival ticks bit for bit. Plus the
 * serial-vs-sharded stats equality gate at 16 GPUs on the new
 * fabrics, and nvswitch as a one-node hier fabric.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/json_out.hh"
#include "net/network.hh"
#include "net/serializer.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

using namespace mgsec;

namespace
{

constexpr LinkParams kPcie{12.0, 500};
constexpr LinkParams kNvlink{18.0, 100};

TopologyConfig
topoOf(TopologyKind kind)
{
    TopologyConfig t;
    t.kind = kind;
    // Two fabric nodes at every test size, so hier actually crosses
    // the inter-node trunk instead of degenerating to one crossbar.
    if (kind == TopologyKind::Hier)
        t.gpusPerNode = 2;
    return t;
}

PacketPtr
plainPacket(NodeId src, NodeId dst, Bytes header = 16)
{
    auto p = makePacket();
    p->src = src;
    p->dst = dst;
    p->headerBytes = header;
    return p;
}

} // anonymous namespace

// ------------------------------------------------------- reachability

class TopologyReach
    : public ::testing::TestWithParam<
          std::tuple<TopologyKind, std::uint32_t>>
{};

TEST_P(TopologyReach, EveryPairArrivesExactlyOnce)
{
    const auto [kind, nodes] = GetParam();
    EventQueue eq;
    Network net("net", eq, nodes, kPcie, kNvlink, topoOf(kind));

    std::map<std::pair<NodeId, NodeId>, std::uint64_t> arrived;
    for (NodeId n = 0; n < nodes; ++n) {
        net.setHandler(n, [&arrived, n](PacketPtr p) {
            ASSERT_EQ(p->dst, n);
            ++arrived[{p->src, p->dst}];
        });
    }

    std::uint64_t sent = 0;
    for (NodeId s = 0; s < nodes; ++s) {
        for (NodeId d = 0; d < nodes; ++d) {
            if (s == d)
                continue;
            net.send(plainPacket(s, d));
            ++sent;
        }
    }
    eq.run();

    EXPECT_EQ(arrived.size(), sent);
    for (const auto &[pair, count] : arrived)
        EXPECT_EQ(count, 1u) << pair.first << " -> " << pair.second;
    EXPECT_EQ(net.totalPackets(), sent);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, TopologyReach,
    ::testing::Combine(::testing::Values(TopologyKind::P2p,
                                         TopologyKind::NvSwitch,
                                         TopologyKind::Hier),
                       ::testing::Values(5u, 9u, 17u)),
    [](const auto &info) {
        return strformat("%s_n%u",
                         topologyKindName(std::get<0>(info.param)),
                         std::get<1>(info.param));
    });

// ---------------------------------------------------- link classing

TEST(TopologyLinkClass, ClassesFollowTheFabric)
{
    EventQueue eq;
    const std::uint32_t nodes = 9; // 8 GPUs, 2 hier fabric nodes of 2
    Network p2p("p2p", eq, nodes, kPcie, kNvlink,
                topoOf(TopologyKind::P2p));
    Network sw("sw", eq, nodes, kPcie, kNvlink,
               topoOf(TopologyKind::NvSwitch));
    Network hier("hier", eq, nodes, kPcie, kNvlink,
                 topoOf(TopologyKind::Hier));

    // CPU legs are PCIe on every fabric.
    for (const Network *n : {&p2p, &sw, &hier}) {
        EXPECT_EQ(n->linkType(0, 3), LinkType::Pcie);
        EXPECT_EQ(n->linkType(3, 0), LinkType::Pcie);
    }
    // GPU-GPU depends on the fabric.
    EXPECT_EQ(p2p.linkType(1, 2), LinkType::Nvlink);
    EXPECT_EQ(sw.linkType(1, 2), LinkType::Switch);
    // gpusPerNode=2: GPUs 1-2 share a node, GPU 3 is one hop away.
    EXPECT_EQ(hier.linkType(1, 2), LinkType::Switch);
    EXPECT_EQ(hier.linkType(1, 3), LinkType::Inter);
    EXPECT_EQ(hier.linkType(3, 1), LinkType::Inter);

    EXPECT_EQ(p2p.topology().numLinkClasses(), kP2pLinkClasses);
    EXPECT_EQ(sw.topology().numLinkClasses(), 3u);
    EXPECT_EQ(hier.topology().numLinkClasses(), 4u);

    // Hier with every GPU on one node never crosses a trunk, so it
    // has nvswitch's three classes.
    TopologyConfig one = topoOf(TopologyKind::Hier);
    one.gpusPerNode = nodes - 1;
    Network flat("flat", eq, nodes, kPcie, kNvlink, one);
    EXPECT_EQ(flat.linkType(1, nodes - 1), LinkType::Switch);
    EXPECT_EQ(flat.topology().numLinkClasses(), 3u);
    EXPECT_EQ(sw.topology().kind(), TopologyKind::NvSwitch);
}

// ------------------------------------------- FIFO under contention

TEST(TopologyFifo, PerPairOrderSurvivesSwitchContention)
{
    // Every GPU hammers GPU 1 through the shared switch egress port;
    // per-(src, dst) sequence numbers must still arrive in order.
    EventQueue eq;
    const std::uint32_t nodes = 9;
    Network net("net", eq, nodes, kPcie, kNvlink,
                topoOf(TopologyKind::NvSwitch));

    std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>>
        order;
    std::map<std::pair<NodeId, NodeId>, Tick> last_arrival;
    for (NodeId n = 0; n < nodes; ++n) {
        net.setHandler(n, [&, n](PacketPtr p) {
            const auto key = std::make_pair(p->src, p->dst);
            order[key].push_back(p->msgCtr);
            // Arrival ticks per pair are non-decreasing (FIFO).
            auto it = last_arrival.find(key);
            if (it != last_arrival.end()) {
                EXPECT_GE(eq.now(), it->second);
            }
            last_arrival[key] = eq.now();
        });
    }

    std::mt19937_64 rng(42);
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> next_seq;
    for (int burst = 0; burst < 40; ++burst) {
        for (NodeId s = 2; s < nodes; ++s) {
            // Hot destination plus background pairs.
            const NodeId d =
                (rng() % 4 == 0) ? static_cast<NodeId>(
                                       1 + (s + 1) % (nodes - 1))
                                 : 1;
            if (d == s)
                continue;
            auto p = plainPacket(s, d, 16 + rng() % 200);
            p->msgCtr = next_seq[{s, d}]++;
            net.send(std::move(p));
        }
        eq.run(eq.now() + rng() % 30);
    }
    eq.run();

    ASSERT_FALSE(order.empty());
    std::uint64_t checked = 0;
    for (const auto &[pair, seqs] : order) {
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            EXPECT_EQ(seqs[i], i)
                << pair.first << " -> " << pair.second;
            ++checked;
        }
    }
    EXPECT_GT(checked, 200u);
}

// ------------------------------------- p2p == pre-refactor Network

TEST(TopologyP2p, ArrivalTicksMatchTheHistoricalFormula)
{
    // Mirror of the pre-refactor routing block: a PCIe leg is one
    // serialization plus latency on the pair's dedicated lane; a
    // GPU-GPU leg serializes at the sender's egress, flies for the
    // link latency, then serializes again at the receiver's ingress.
    EventQueue eq;
    const std::uint32_t nodes = 6;
    Network net("net", eq, nodes, kPcie, kNvlink);

    std::vector<Serializer> pcie_down(nodes,
                                      Serializer(kPcie.bytesPerCycle));
    std::vector<Serializer> pcie_up(nodes,
                                    Serializer(kPcie.bytesPerCycle));
    std::vector<Serializer> egress(nodes,
                                   Serializer(kNvlink.bytesPerCycle));
    std::vector<Serializer> ingress(nodes,
                                    Serializer(kNvlink.bytesPerCycle));

    struct Arrival
    {
        NodeId src, dst;
        Tick predicted, actual;
    };
    std::vector<Arrival> log;
    for (NodeId n = 0; n < nodes; ++n) {
        net.setHandler(n, [&log, &eq](PacketPtr p) {
            for (Arrival &a : log) {
                if (a.src == p->src && a.dst == p->dst &&
                    a.actual == 0) {
                    a.actual = eq.now();
                    break;
                }
            }
        });
    }

    std::mt19937_64 rng(7);
    Tick t = 0;
    for (int i = 0; i < 400; ++i) {
        const NodeId src = static_cast<NodeId>(rng() % nodes);
        NodeId dst = static_cast<NodeId>(rng() % (nodes - 1));
        if (dst >= src)
            ++dst;
        const Bytes bytes = 8 + rng() % 300;
        Tick predicted;
        if (src == 0 || dst == 0) {
            const NodeId gpu = src == 0 ? dst : src;
            Serializer &ser = src == 0 ? pcie_down[gpu] : pcie_up[gpu];
            predicted = ser.reserve(t, bytes) + kPcie.latency;
        } else {
            const Tick out = egress[src].reserve(t, bytes);
            predicted =
                ingress[dst].reserve(out + kNvlink.latency, bytes);
        }
        log.push_back(Arrival{src, dst, predicted, 0});
        eq.schedule(t, [&net, src, dst, bytes]() {
            net.send(plainPacket(src, dst, bytes));
        });
        t += rng() % 40;
        // Keep the mirror's reservation order aligned with the
        // network's (same tick => same schedule order).
        eq.run(t);
    }
    eq.run();

    for (const Arrival &a : log)
        EXPECT_EQ(a.actual, a.predicted)
            << a.src << " -> " << a.dst;
}

TEST(TopologyP2p, LegacyCtorIsTheDefaultTopology)
{
    // The 5-arg constructor and an explicit default TopologyConfig
    // must be the same machine.
    EventQueue eq_a, eq_b;
    Network a("a", eq_a, 5, kPcie, kNvlink);
    Network b("b", eq_b, 5, kPcie, kNvlink, TopologyConfig{});
    EXPECT_EQ(a.topology().kind(), TopologyKind::P2p);
    EXPECT_EQ(b.topology().kind(), TopologyKind::P2p);

    std::vector<Tick> arr_a, arr_b;
    for (NodeId n = 0; n < 5; ++n) {
        a.setHandler(n, [&](PacketPtr) { arr_a.push_back(eq_a.now()); });
        b.setHandler(n, [&](PacketPtr) { arr_b.push_back(eq_b.now()); });
    }
    std::mt19937_64 rng(3);
    for (int i = 0; i < 200; ++i) {
        const NodeId src = static_cast<NodeId>(rng() % 5);
        NodeId dst = static_cast<NodeId>(rng() % 4);
        if (dst >= src)
            ++dst;
        const Bytes bytes = 8 + rng() % 128;
        a.send(plainPacket(src, dst, bytes));
        b.send(plainPacket(src, dst, bytes));
        const Tick upto = eq_a.now() + rng() % 25;
        eq_a.run(upto);
        eq_b.run(upto);
    }
    eq_a.run();
    eq_b.run();
    EXPECT_EQ(arr_a, arr_b);
}

// ----------------------------------------- PDES lookahead contract

TEST(TopologyLookahead, MinLatencyBoundsEveryRoute)
{
    // The conservative kernel's lookahead must never exceed the
    // fastest possible cross-domain hop — which is fabric-specific:
    // p2p's fastest hop is the faster of its two raw links, while
    // the switch fabrics insert switchLatency in front of every
    // GPU-GPU crossing, so their floor is legitimately higher (a
    // bigger window, i.e. less barrier overhead, not a bug).
    for (TopologyKind kind :
         {TopologyKind::P2p, TopologyKind::NvSwitch,
          TopologyKind::Hier}) {
        EventQueue eq;
        const TopologyConfig tc = topoOf(kind);
        Network net("net", eq, 9, kPcie, kNvlink, tc);
        const Cycles la = net.topology().minLatency();
        const Cycles want =
            kind == TopologyKind::P2p
                ? std::min(kPcie.latency, kNvlink.latency)
                : std::min(kPcie.latency,
                           tc.switchLatency + kNvlink.latency);
        EXPECT_EQ(la, want) << topologyKindName(kind);

        // The actual PDES-safety contract: no route, contended or
        // not, may deliver sooner than send + lookahead.
        std::vector<Tick> arrival(9 * 9, 0);
        for (NodeId n = 0; n < 9; ++n)
            net.setHandler(n, [&, n](PacketPtr p) {
                arrival[p->src * 9 + n] = eq.now();
            });
        for (NodeId src = 0; src < 9; ++src)
            for (NodeId dst = 0; dst < 9; ++dst)
                if (src != dst)
                    net.send(plainPacket(src, dst));
        while (eq.runOne()) {
        }
        for (NodeId src = 0; src < 9; ++src)
            for (NodeId dst = 0; dst < 9; ++dst)
                if (src != dst)
                    EXPECT_GE(arrival[src * 9 + dst], la)
                        << topologyKindName(kind) << " " << src
                        << "->" << dst;
    }
}

// -------------------------------- serial vs sharded at 16 GPUs

class TopologyShardedEquality
    : public ::testing::TestWithParam<TopologyKind>
{};

TEST_P(TopologyShardedEquality, StatsMatchSerialAt16Gpus)
{
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Dynamic;
    cfg.batching = true;
    cfg.numGpus = 16;
    cfg.scale = 0.02;
    cfg.topology.kind = GetParam();
    if (GetParam() == TopologyKind::Hier)
        cfg.topology.gpusPerNode = 4;

    cfg.simThreads = 1;
    const RunResult serial = runWorkload("mm", cfg);
    cfg.simThreads = 4;
    const RunResult sharded = runWorkload("mm", cfg);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(sharded.completed);

    EXPECT_EQ(serial.cycles, sharded.cycles);
    EXPECT_EQ(serial.totalBytes, sharded.totalBytes);
    EXPECT_EQ(serial.packets, sharded.packets);
    EXPECT_EQ(serial.remoteOps, sharded.remoteOps);
    EXPECT_EQ(serial.localOps, sharded.localOps);
    EXPECT_EQ(serial.migrations, sharded.migrations);
    EXPECT_EQ(serial.otp.counts, sharded.otp.counts);
    EXPECT_GT(sharded.pdesWindows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, TopologyShardedEquality,
                         ::testing::Values(TopologyKind::P2p,
                                           TopologyKind::NvSwitch,
                                           TopologyKind::Hier),
                         [](const auto &info) {
                             return std::string(
                                 topologyKindName(info.param));
                         });

// ------------------------------ nvswitch is a one-node hier fabric

class NvSwitchIsOneNodeHier
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>>
{};

TEST_P(NvSwitchIsOneNodeHier, EveryArtifactIsByteIdentical)
{
    // nvswitch and hier with gpusPerNode >= the GPU count are the
    // same machine: the run result, the stats dump, the attribution
    // histograms, the wire observer and the metrics must not differ
    // by a byte.
    namespace fs = std::filesystem;
    const auto [gpus, threads] = GetParam();
    const fs::path root =
        fs::temp_directory_path() /
        strformat("mgsec_test_one_node_g%u_t%u", gpus, threads);
    fs::remove_all(root);
    const auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    const char *kFiles[] = {"stats.json", "hist.json", "wire.json",
                            "metrics.json"};

    std::map<std::string, std::string> seen;
    for (const auto &[name, kind, per_node] :
         {std::tuple{"nvswitch", TopologyKind::NvSwitch, 8u},
          std::tuple{"hier", TopologyKind::Hier, gpus},
          std::tuple{"hier_wide", TopologyKind::Hier, 64u}}) {
        ExperimentConfig cfg;
        cfg.scheme = OtpScheme::Dynamic;
        cfg.batching = true;
        cfg.numGpus = gpus;
        cfg.scale = 0.05;
        cfg.simThreads = threads;
        cfg.topology.kind = kind;
        cfg.topology.gpusPerNode = per_node;
        const fs::path dir = root / name;
        fs::create_directories(dir);
        cfg.observe.latencyAttr = true;
        cfg.observe.statsJsonOut = (dir / kFiles[0]).string();
        cfg.observe.histJsonOut = (dir / kFiles[1]).string();
        cfg.observe.wireOut = (dir / kFiles[2]).string();
        cfg.observe.metricsOut = (dir / kFiles[3]).string();
        const RunResult r = runWorkload("mm", cfg);
        ASSERT_TRUE(r.completed) << name;
        std::map<std::string, std::string> got{
            {"result", resultToJson(r)}};
        for (const char *f : kFiles) {
            got[f] = slurp(dir / f);
            EXPECT_FALSE(got[f].empty()) << name << " " << f;
        }
        if (seen.empty()) {
            seen = std::move(got);
            continue;
        }
        for (const auto &[what, bytes] : seen)
            EXPECT_EQ(got[what], bytes) << name << " " << what;
    }
    fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    GpusAndWorkers, NvSwitchIsOneNodeHier,
    ::testing::Combine(::testing::Values(8u, 16u),
                       ::testing::Values(1u, 2u)),
    [](const auto &info) {
        return strformat("g%u_t%u", std::get<0>(info.param),
                         std::get<1>(info.param));
    });
