/**
 * @file
 * Serializer and Network tests: bandwidth accounting, FIFO delivery,
 * port sharing, and traffic-class bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hh"
#include "net/serializer.hh"
#include "sim/event_queue.hh"

using namespace mgsec;

namespace
{

PacketPtr
makePkt(NodeId src, NodeId dst, Bytes header, Bytes payload,
        Bytes meta = 0, Bytes ack = 0)
{
    auto p = makePacket();
    p->src = src;
    p->dst = dst;
    p->headerBytes = header;
    p->payloadBytes = payload;
    p->secMetaBytes = meta;
    p->ackBytes = ack;
    return p;
}

} // anonymous namespace

TEST(Serializer, SingleReservationTakesCeilOfBytesOverBandwidth)
{
    Serializer s(10.0);
    EXPECT_EQ(s.reserve(0, 25), 3u); // ceil(25/10)
    EXPECT_DOUBLE_EQ(s.busyCycles(), 3.0);
    EXPECT_DOUBLE_EQ(s.bytesCarried(), 25.0);
}

TEST(Serializer, BackToBackReservationsQueue)
{
    Serializer s(10.0);
    EXPECT_EQ(s.reserve(0, 10), 1u);
    EXPECT_EQ(s.reserve(0, 10), 2u);
    EXPECT_EQ(s.reserve(0, 10), 3u);
}

TEST(Serializer, IdleGapResetsStart)
{
    Serializer s(10.0);
    s.reserve(0, 10);
    EXPECT_EQ(s.reserve(100, 10), 101u);
}

TEST(Serializer, EarliestBoundRespected)
{
    Serializer s(1.0);
    EXPECT_EQ(s.reserve(50, 5), 55u);
    // Second packet cannot start before the port frees.
    EXPECT_EQ(s.reserve(10, 5), 60u);
}

TEST(SerializerDeath, ZeroBytesRejected)
{
    Serializer s(8.0);
    EXPECT_DEATH(s.reserve(0, 0), "zero-byte");
}

TEST(Network, DeliversToHandler)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 10},
                LinkParams{32.0, 5});
    NodeId got = InvalidNode;
    net.setHandler(2, [&](PacketPtr p) { got = p->src; });
    net.setHandler(1, [](PacketPtr) {});
    net.setHandler(0, [](PacketPtr) {});
    net.send(makePkt(1, 2, 16, 64));
    eq.run();
    EXPECT_EQ(got, 1u);
}

TEST(Network, GpuToGpuUsesNvlinkLatency)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 500},
                LinkParams{80.0, 100});
    Tick arrive = 0;
    net.setHandler(2, [&](PacketPtr) { arrive = eq.now(); });
    net.send(makePkt(1, 2, 80, 0)); // 1 cycle egress + 1 ingress
    eq.run();
    EXPECT_EQ(arrive, 102u);
}

TEST(Network, CpuLinkUsesPcieLatencyAndSingleSerialization)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 500},
                LinkParams{80.0, 100});
    Tick arrive = 0;
    net.setHandler(1, [&](PacketPtr) { arrive = eq.now(); });
    net.send(makePkt(0, 1, 16, 0)); // 1 cycle pcie + 500
    eq.run();
    EXPECT_EQ(arrive, 501u);
}

TEST(Network, PerPairFifoOrderPreserved)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 10},
                LinkParams{8.0, 10});
    std::vector<std::uint64_t> order;
    net.setHandler(2, [&](PacketPtr p) { order.push_back(p->id); });
    for (std::uint64_t i = 1; i <= 5; ++i) {
        auto p = makePkt(1, 2, 64, 0);
        p->id = i;
        net.send(std::move(p));
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Network, SharedEgressPortSerializesAcrossDestinations)
{
    EventQueue eq;
    // 1 B/cycle NVLink so serialization dominates.
    Network net("net", eq, 4, LinkParams{16.0, 10},
                LinkParams{1.0, 0});
    Tick t2 = 0, t3 = 0;
    net.setHandler(2, [&](PacketPtr) { t2 = eq.now(); });
    net.setHandler(3, [&](PacketPtr) { t3 = eq.now(); });
    net.send(makePkt(1, 2, 50, 0));
    net.send(makePkt(1, 3, 50, 0));
    eq.run();
    // The second packet had to wait for GPU 1's egress port.
    EXPECT_EQ(t2, 100u);  // 50 egress + 50 ingress
    EXPECT_EQ(t3, 150u);  // egress busy until 100, ingress +50
}

TEST(Network, PcieAndNvlinkAreIndependent)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{1.0, 0}, LinkParams{1.0, 0});
    Tick cpu_t = 0, gpu_t = 0;
    net.setHandler(0, [&](PacketPtr) { cpu_t = eq.now(); });
    net.setHandler(2, [&](PacketPtr) { gpu_t = eq.now(); });
    net.send(makePkt(1, 0, 50, 0)); // PCIe up
    net.send(makePkt(1, 2, 50, 0)); // NVLink
    eq.run();
    EXPECT_EQ(cpu_t, 50u);
    EXPECT_EQ(gpu_t, 100u); // not delayed by the PCIe transfer
}

TEST(Network, TrafficClassesAccounted)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    net.setHandler(2, [](PacketPtr) {});
    net.send(makePkt(1, 2, 16, 64, 17, 8));
    eq.run();
    EXPECT_EQ(net.classBytes(TrafficClass::Header), 16u);
    EXPECT_EQ(net.classBytes(TrafficClass::Payload), 64u);
    EXPECT_EQ(net.classBytes(TrafficClass::SecMeta), 17u);
    EXPECT_EQ(net.classBytes(TrafficClass::SecAck), 8u);
    EXPECT_EQ(net.totalBytes(), 105u);
    EXPECT_EQ(net.totalPackets(), 1u);
}

TEST(Network, PairBytesTracksFlows)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    net.setHandler(2, [](PacketPtr) {});
    net.setHandler(1, [](PacketPtr) {});
    net.send(makePkt(1, 2, 10, 0));
    net.send(makePkt(1, 2, 20, 0));
    net.send(makePkt(2, 1, 30, 0));
    eq.run();
    EXPECT_EQ(net.pairBytes(1, 2), 30u);
    EXPECT_EQ(net.pairBytes(2, 1), 30u);
    EXPECT_EQ(net.pairBytes(1, 0), 0u);
}

TEST(Network, PortUtilizationQueries)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{10.0, 1},
                LinkParams{10.0, 1});
    net.setHandler(2, [](PacketPtr) {});
    net.setHandler(0, [](PacketPtr) {});
    net.send(makePkt(1, 2, 100, 0));
    net.send(makePkt(1, 0, 50, 0));
    eq.run();
    const Topology &topo = net.topology();
    EXPECT_DOUBLE_EQ(topo.fabricEgress(1).busyCycles(), 10.0);
    EXPECT_DOUBLE_EQ(topo.fabricIngress(2).busyCycles(), 10.0);
    EXPECT_DOUBLE_EQ(topo.pcieUp(1).busyCycles(), 5.0);
    EXPECT_DOUBLE_EQ(topo.pcieDown(1).busyCycles(), 0.0);
}

TEST(NetworkTamper, PreWireMutationChangesAccountingAndTiming)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{1.0, 0});
    Tick arrive = 0;
    net.setHandler(2, [&](PacketPtr) { arrive = eq.now(); });
    // The attacker inflates the packet before it touches the wire:
    // both the byte accounting and the serialization must see the
    // mutated size.
    net.setTamper(Network::TamperPoint::PreWire, [](Packet &p) {
        p.headerBytes += 90;
        return Network::TamperVerdict::Forward;
    });
    net.send(makePkt(1, 2, 10, 0));
    eq.run();
    EXPECT_EQ(net.classBytes(TrafficClass::Header), 100u);
    EXPECT_EQ(net.totalBytes(), 100u);
    EXPECT_EQ(arrive, 200u); // 100 egress + 100 ingress at 1 B/cycle
}

TEST(NetworkTamper, PostWireSeesExactWireBytesAndCannotRewriteThem)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{1.0, 0});
    Tick arrive = 0;
    Bytes seen = 0;
    net.setHandler(2, [&](PacketPtr) { arrive = eq.now(); });
    net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        // Accounting is already committed: the hook observes the
        // exact wire image...
        seen = p.wireBytes();
        // ...and mutating byte fields now cannot change what the
        // wire already carried.
        p.headerBytes += 900;
        return Network::TamperVerdict::Forward;
    });
    net.send(makePkt(1, 2, 10, 0));
    eq.run();
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(net.totalBytes(), 10u);
    EXPECT_EQ(arrive, 20u); // timing reflects the true 10 wire bytes
}

TEST(NetworkTamper, BothPointsFireInOrderOnEveryPacket)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    net.setHandler(2, [](PacketPtr) {});
    std::vector<int> order;
    net.setTamper(Network::TamperPoint::PreWire, [&](Packet &) {
        order.push_back(0);
        return Network::TamperVerdict::Forward;
    });
    net.setTamper(Network::TamperPoint::PostWire, [&](Packet &) {
        order.push_back(1);
        return Network::TamperVerdict::Forward;
    });
    net.send(makePkt(1, 2, 16, 0));
    net.send(makePkt(1, 2, 16, 0));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(NetworkTamper, PreWireDropLeavesNoTraceOnTheWire)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    bool delivered = false;
    net.setHandler(2, [&](PacketPtr) { delivered = true; });
    net.setTamper(Network::TamperPoint::PreWire, [](Packet &) {
        return Network::TamperVerdict::Drop;
    });
    net.send(makePkt(1, 2, 16, 64));
    eq.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.droppedPackets(), 1u);
    // A pre-wire drop never occupied the interconnect: no bytes,
    // no packets, no port busy time.
    EXPECT_EQ(net.totalPackets(), 0u);
    EXPECT_EQ(net.totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(net.topology().fabricEgress(1).busyCycles(), 0.0);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(NetworkTamper, PostWireDropConsumesBandwidthButNeverArrives)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    bool delivered = false;
    net.setHandler(2, [&](PacketPtr) { delivered = true; });
    net.setTamper(Network::TamperPoint::PostWire, [](Packet &) {
        return Network::TamperVerdict::Drop;
    });
    net.send(makePkt(1, 2, 16, 64));
    eq.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.droppedPackets(), 1u);
    // The bytes crossed the wire (in-flight loss): accounting and
    // port occupancy reflect them.
    EXPECT_EQ(net.totalBytes(), 80u);
    EXPECT_DOUBLE_EQ(net.topology().fabricEgress(1).busyCycles(), 5.0);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(NetworkTamper, ClearedPostWireHookStopsFiring)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    net.setHandler(2, [](PacketPtr) {});
    Bytes seen = 0;
    net.setTamper(Network::TamperPoint::PostWire, [&](Packet &p) {
        seen = p.wireBytes();
        return Network::TamperVerdict::Forward;
    });
    net.send(makePkt(1, 2, 16, 64));
    eq.run();
    EXPECT_EQ(seen, 80u); // post-wire: exact accounted bytes
    // An empty hook clears the point.
    net.setTamper(Network::TamperPoint::PostWire, {});
    seen = 0;
    net.send(makePkt(1, 2, 16, 0));
    eq.run();
    EXPECT_EQ(seen, 0u);
}

TEST(Packet, CloneIsDeepIncludingCryptoMaterial)
{
    auto p = makePacket();
    p->id = 42;
    p->type = PacketType::ReadResp;
    p->src = 1;
    p->dst = 2;
    p->secured = true;
    p->msgCtr = 7;
    p->hasMac = true;
    p->headerBytes = 16;
    p->payloadBytes = 64;
    p->acks.push_back(AckRecord{2, 5, 0});
    p->func = makeFunctionalPayload();
    p->func->hasCipher = true;
    p->func->cipher[0] = 0xAB;
    p->func->hasMac = true;
    p->func->mac[0] = 0xCD;

    PacketPtr c = clonePacket(*p);
    ASSERT_NE(c->func, nullptr);
    EXPECT_NE(c->func.get(), p->func.get());
    EXPECT_EQ(c->id, 42u);
    EXPECT_EQ(c->msgCtr, 7u);
    ASSERT_EQ(c->acks.size(), 1u);
    EXPECT_EQ(c->acks[0].upToCtr, 5u);
    // Mutating the original must not leak into the clone.
    p->func->cipher[0] = 0x00;
    p->msgCtr = 99;
    EXPECT_EQ(c->func->cipher[0], 0xAB);
    EXPECT_EQ(c->func->mac[0], 0xCD);
    EXPECT_EQ(c->msgCtr, 7u);
}

TEST(NetworkDeath, RejectsSelfRoute)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    EXPECT_DEATH(net.send(makePkt(1, 1, 16, 0)), "bad route");
}

TEST(NetworkDeath, RejectsUnknownNode)
{
    EventQueue eq;
    Network net("net", eq, 3, LinkParams{16.0, 1},
                LinkParams{16.0, 1});
    EXPECT_DEATH(net.send(makePkt(1, 9, 16, 0)), "bad route");
}

TEST(Packet, WireBytesIsSumOfClasses)
{
    Packet p;
    p.headerBytes = 16;
    p.payloadBytes = 64;
    p.secMetaBytes = 17;
    p.ackBytes = 8;
    EXPECT_EQ(p.wireBytes(), 105u);
}

TEST(Packet, TypePredicates)
{
    Packet p;
    p.type = PacketType::ReadReq;
    EXPECT_TRUE(p.isRequest());
    EXPECT_FALSE(p.isResponse());
    p.type = PacketType::WriteResp;
    EXPECT_TRUE(p.isResponse());
    p.type = PacketType::SecAck;
    EXPECT_FALSE(p.isRequest());
    EXPECT_FALSE(p.isResponse());
}

TEST(Packet, TypeNamesAreDistinct)
{
    EXPECT_STRNE(packetTypeName(PacketType::ReadReq),
                 packetTypeName(PacketType::ReadResp));
    EXPECT_STRNE(packetTypeName(PacketType::SecAck),
                 packetTypeName(PacketType::BatchMac));
}
