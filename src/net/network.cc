#include "net/network.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/latency_attr.hh"
#include "sim/logging.hh"
#include "sim/trace_sink.hh"
#include "sim/wire_observer.hh"

namespace mgsec
{

Network::Network(const std::string &name, EventQueue &eq,
                 std::uint32_t num_nodes, LinkParams pcie,
                 LinkParams nvlink, const TopologyConfig &topo)
    : SimObject(name, eq), num_nodes_(num_nodes),
      topo_(makeTopology(topo, num_nodes, pcie, nvlink)),
      handlers_(num_nodes),
      pair_bytes_(static_cast<std::size_t>(num_nodes) * num_nodes,
                  0.0),
      // One lane per possible writer domain plus the overflow lane
      // (domain counts never exceed the node count in either the
      // system or the verify testbed).
      lanes_(static_cast<std::size_t>(num_nodes) + 1)
{
    MGSEC_ASSERT(num_nodes_ >= 2, "need a CPU and at least one GPU");
    regStat(packets_);
    for (auto &s : class_bytes_)
        regStat(s);
}

void
Network::setHandler(NodeId node, Handler h)
{
    MGSEC_ASSERT(node < num_nodes_, "bad node id %u", node);
    handlers_[node] = std::move(h);
}

void
Network::deliver(Tick when, PacketPtr pkt, EventQueue &eq)
{
    // Moving the owning pointer into the callback (InplaceCallback
    // takes move-only captures) means a run that stops with events
    // still queued returns its in-flight packets to the pool instead
    // of leaking them.
    ++in_flight_;
    // The delivery's place among the arrival tick's events must not
    // depend on when the replay ran — kPriWire pins deliveries ahead
    // of local work.
    eq.schedule(when, kPriWire, [this, p = std::move(pkt)]() mutable {
        --in_flight_;
        MGSEC_ASSERT(handlers_[p->dst] != nullptr,
                     "no handler for node %u", p->dst);
        handlers_[p->dst](std::move(p));
    });
}

void
Network::setParallelCapture(bool on)
{
    for (const auto &lane : lanes_)
        MGSEC_ASSERT(lane.empty(), "switching capture mode with "
                                   "unreplayed packets");
    capture_ = on;
}

std::uint64_t
Network::replayCaptured(
    const std::function<EventQueue &(NodeId)> &queue_of)
{
    // Concatenate the writer lanes in lane order, then sort by (send
    // tick, src, dst, position in the concatenation): the replay
    // order is (sendTick, src, dst, lane, push order) — a pure
    // function of simulation state, identical for every thread count
    // and run. In the system proper each (src, dst) pair has exactly
    // one writer lane, so this is exactly (sendTick, src, dst, push
    // order). The position key makes an in-place sort stable;
    // std::stable_sort would allocate a buffer every window.
    for (auto &lane : lanes_) {
        for (CapturedSend &c : lane) {
            c.seq = window_.size();
            window_.push_back(std::move(c));
        }
        lane.clear();
    }
    std::sort(window_.begin(), window_.end(),
              [](const CapturedSend &a, const CapturedSend &b) {
                  if (a.sendTick != b.sendTick)
                      return a.sendTick < b.sendTick;
                  if (a.pkt->src != b.pkt->src)
                      return a.pkt->src < b.pkt->src;
                  if (a.pkt->dst != b.pkt->dst)
                      return a.pkt->dst < b.pkt->dst;
                  return a.seq < b.seq;
              });
    const std::uint64_t n = window_.size();
    for (CapturedSend &c : window_) {
        EventQueue &dst_eq = queue_of(c.pkt->dst);
        sendOnWire(std::move(c.pkt), c.sendTick, dst_eq);
    }
    window_.clear();
    return n;
}

void
Network::send(PacketPtr pkt)
{
    MGSEC_ASSERT(pkt->src < num_nodes_ && pkt->dst < num_nodes_ &&
                     pkt->src != pkt->dst,
                 "bad route %u -> %u", pkt->src, pkt->dst);
    // Record against the *sender's* clock: under the kernel the
    // caller executes on its domain's queue, not on the network's
    // home queue.
    Domain *dom = capture_ ? Domain::current() : nullptr;
    const Tick send_tick = dom ? dom->eq().now() : now();
    const std::size_t lane = dom ? dom->id() : num_nodes_;
    MGSEC_ASSERT(lane < lanes_.size(), "capture lane %zu out of range",
                 lane);
    lanes_[lane].push_back(CapturedSend{std::move(pkt), send_tick});
    if (!capture_ && !flush_scheduled_) {
        flush_scheduled_ = true;
        eventq().schedule(now(), [this] {
            flush_scheduled_ = false;
            replayCaptured(
                [this](NodeId) -> EventQueue & { return eventq(); });
        });
    }
}

void
Network::sendOnWire(PacketPtr pkt, Tick send_tick, EventQueue &dst_eq)
{
    // Pre-wire tamper point: the packet has not touched the wire
    // yet, so mutations here change accounting and serialization,
    // and a Drop leaves no trace on the interconnect.
    if (const TamperHook &pre = tamper_[static_cast<std::size_t>(
            TamperPoint::PreWire)]) {
        if (pre(*pkt) == TamperVerdict::Drop) {
            ++dropped_;
            return;
        }
    }

    const Bytes bytes = pkt->wireBytes();
    MGSEC_ASSERT(bytes > 0, "zero-byte packet");

    ++packets_;
    class_bytes_[static_cast<std::size_t>(TrafficClass::Header)] +=
        static_cast<double>(pkt->headerBytes);
    class_bytes_[static_cast<std::size_t>(TrafficClass::Payload)] +=
        static_cast<double>(pkt->payloadBytes);
    class_bytes_[static_cast<std::size_t>(TrafficClass::SecMeta)] +=
        static_cast<double>(pkt->secMetaBytes);
    class_bytes_[static_cast<std::size_t>(TrafficClass::SecAck)] +=
        static_cast<double>(pkt->ackBytes);
    pair_bytes_[static_cast<std::size_t>(pkt->src) * num_nodes_ +
                pkt->dst] += static_cast<double>(bytes);

    // Port occupancy and arrival timing are the fabric's decision.
    const Tick arrive =
        topo_->route(pkt->src, pkt->dst, bytes, send_tick);
    if (eventq().stampsLife()) {
        // The network owns the wire boundaries of the lifecycle
        // clock; the receiving channel reads the stamps on delivery.
        lifeStamp(pkt->life, LifeStamp::WireEntry) = send_tick;
        lifeStamp(pkt->life, LifeStamp::Delivered) = arrive;
        // SecAck and BatchMac are never delivered, so the wire
        // crossing is their one trace record; a data packet's is the
        // "wire" stage of its "packet" event. Chaff is left out: at
        // constant rate it outnumbers everything else, and the stats
        // and the wire observer count it.
        TraceSink *ts = eventq().traceSink();
        if (ts && (pkt->type == PacketType::SecAck ||
                   pkt->type == PacketType::BatchMac)) {
            ts->complete(pkt->src, "net", packetTypeName(pkt->type),
                         send_tick, arrive - send_tick, "bytes", bytes);
        }
    }

    // The passive observer sees the committed wire crossing exactly
    // as a fabric probe would: endpoints, wire bytes, and timing —
    // nothing a post-wire meddler does can retroactively hide it.
    if (wire_obs_)
        wire_obs_->onWirePacket(pkt->src, pkt->dst, bytes, send_tick,
                                arrive);

    // Post-wire tamper point: accounting and port occupancy are
    // committed, so the hook observes the exact wire bytes; only
    // what arrives (or whether anything arrives) can still change.
    if (const TamperHook &post = tamper_[static_cast<std::size_t>(
            TamperPoint::PostWire)]) {
        if (post(*pkt) == TamperVerdict::Drop) {
            ++dropped_;
            return;
        }
    }
    deliver(arrive, std::move(pkt), dst_eq);
}

Bytes
Network::totalBytes() const
{
    double total = 0.0;
    for (const auto &s : class_bytes_)
        total += s.value();
    return static_cast<Bytes>(total);
}

Bytes
Network::pairBytes(NodeId src, NodeId dst) const
{
    return static_cast<Bytes>(
        pair_bytes_[static_cast<std::size_t>(src) * num_nodes_ + dst]);
}

} // namespace mgsec
