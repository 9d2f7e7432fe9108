#include "secure/secure_channel.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "sim/debug.hh"

#include "sim/latency_attr.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace mgsec
{

SecureChannel::SecureChannel(const std::string &name, EventQueue &eq,
                             Network &net, NodeId self,
                             const SecurityConfig &cfg)
    : SimObject(name, eq), net_(net), self_(self), cfg_(cfg),
      replay_(net.numNodes(), 16384), recv_batches_(net.numNodes()),
      pending_acks_(net.numNodes()), ack_timers_(net.numNodes()),
      last_departure_(net.numNodes(), 0),
      chaff_armed_(net.numNodes(), 0),
      chaff_claims_(net.numNodes())
{
    if (cfg_.secured()) {
        pad_table_ = makePadTable(
            cfg_.scheme, name + ".pads", eq, self_, net_.numNodes(),
            cfg_.totalOtpEntries(net_.numNodes()), cfg_.aesLatency,
            cfg_.dynParams);
        if (cfg_.batching) {
            assembler_ = std::make_unique<BatchAssembler>(
                name + ".batcher", eq, net_.numNodes(),
                cfg_.batchSize, cfg_.batchTimeout,
                [this](NodeId dst, std::uint64_t id,
                       std::uint8_t count) {
                    sendBatchTrailer(dst, id, count);
                });
            storage_ = std::make_unique<MsgMacStorage>(
                name + ".macstore", eq, net_.numNodes(),
                cfg_.msgMacStoragePerPeer,
                [this](NodeId src, std::uint64_t batch_id) {
                    // Lazy verification done: one cumulative ACK
                    // covers the whole batch — but only a batch
                    // whose MAC actually held. Acknowledging
                    // unverified counters would let an attacker
                    // discharge the sender's replay window with
                    // traffic that never authenticated.
                    const bool ok = factory_
                        ? finishFunctionalBatch(src, batch_id)
                        : true;
                    // The ACK carries the verified watermark, not
                    // the replay one: last_recv_ctr_ advances on
                    // sight, so a counter flipped in flight would
                    // let it acknowledge (and discharge from the
                    // peer's replay window) messages that never
                    // authenticated — or were never even sent.
                    if (ok && (!factory_ || has_verified_[src])) {
                        queueAck(src,
                                 AckRecord{self_,
                                           factory_
                                               ? verified_recv_ctr_
                                                     [src]
                                               : last_recv_ctr_[src],
                                           0});
                    }
                });
        }
    }
    if (cfg_.secured() && cfg_.functionalCrypto) {
        factory_ = std::make_unique<crypto::PadFactory>(
            cfg_.sessionKey);
        if (cfg_.batching) {
            send_batches_.resize(net_.numNodes());
            for (SendBatch &sb : send_batches_)
                sb.macs.reserve(cfg_.batchSize);
        }
    }
    last_recv_ctr_.assign(net_.numNodes(), 0);
    has_recv_.assign(net_.numNodes(), 0);
    verified_recv_ctr_.assign(net_.numNodes(), 0);
    has_verified_.assign(net_.numNodes(), 0);
    last_deliver_.assign(net_.numNodes(), 0);

    regStat(packets_sent_);
    regStat(standalone_acks_);
    regStat(piggybacked_acks_);
    regStat(trailers_);
    regStat(replay_suspects_);
    // Surfaced with the verify subsystem only, keeping figure-bench
    // stats dumps stable; the ctrGaps() accessor works regardless.
    if (cfg_.functionalCrypto)
        regStat(ctr_gaps_);
    regStat(mac_verified_);
    regStat(mac_failed_);
    regStat(decrypt_ok_);
    regStat(decrypt_bad_);
    if (shapingOn()) {
        regStat(shape_pad_bytes_);
        regStat(shape_delay_cycles_);
        regStat(shape_chaff_pkts_);
    }

    net_.setHandler(self_, [this](PacketPtr pkt) {
        handleArrival(std::move(pkt));
    });
}

void
SecureChannel::send(PacketPtr pkt)
{
    MGSEC_ASSERT(pkt->src == self_, "packet src %u from node %u",
                 pkt->src, self_);
    pkt->id = next_pkt_id_++;
    pkt->headerBytes = cfg_.headerBytes;
    pkt->injectTick = now();

    const bool stamp = eventq().stampsLife();
    if (stamp)
        lifeStamp(pkt->life, LifeStamp::Enqueue) = now();

    if (!cfg_.secured()) {
        if (stamp) {
            // No pad stages: both boundaries collapse onto enqueue.
            lifeStamp(pkt->life, LifeStamp::PadClaim) = now();
            lifeStamp(pkt->life, LifeStamp::PadReady) = now();
        }
        finishSend(std::move(pkt), now());
        return;
    }

    const SendGrant grant = pad_table_->acquireSend(pkt->dst);
    pkt->secured = true;
    pkt->msgCtr = grant.ctr;
    pkt->padFallback = grant.outcome == OtpOutcome::Miss;

    Bytes meta = cfg_.ctrBytes;
    // In batching mode every data message's MsgMAC joins its
    // destination's batch (the paper describes data responses; page
    // migration blocks and requests batch the same way — one MsgMAC
    // and one ACK per group).
    const bool batch_eligible = cfg_.batching;
    if (batch_eligible) {
        const BatchTag tag = assembler_->onSend(pkt->dst);
        pkt->batchId = tag.batchId;
        pkt->batchLast = tag.last;
        pkt->batchLen = tag.first ? tag.declaredLen : 0;
        pkt->hasMac = tag.last; // the batched MsgMAC rides the closer
        if (tag.first)
            meta += cfg_.batchLenBytes;
        if (tag.last) {
            meta += cfg_.macBytes;
            if (TraceSink *ts = eventq().traceSink()) {
                ts->instant(self_, "batch", "close", now(), "id",
                            static_cast<double>(tag.batchId));
            }
        }
        if (replay_.add(pkt->dst, grant.ctr)) {
            if (TraceSink *ts = eventq().traceSink())
                ts->instant(self_, "replay", "overflow", now());
        }
    } else {
        pkt->hasMac = true;
        meta += cfg_.macBytes;
        // Requests are implicitly acknowledged by their data
        // response; only responses join the replay window and draw
        // a dedicated ACK.
        if (pkt->isResponse() && replay_.add(pkt->dst, grant.ctr)) {
            if (TraceSink *ts = eventq().traceSink())
                ts->instant(self_, "replay", "overflow", now());
        }
    }
    if (cfg_.countMetadataBytes)
        pkt->secMetaBytes = meta;

    if (factory_)
        applyFunctionalSend(*pkt);

    MGSEC_DPRINTF(debug::Channel,
                  "send %s to %u ctr=%llu outcome=%s",
                  packetTypeName(pkt->type), pkt->dst,
                  static_cast<unsigned long long>(grant.ctr),
                  otpOutcomeName(grant.outcome));

    const Tick pad_ready = std::max(now(), grant.padReady);
    if (stamp) {
        lifeStamp(pkt->life, LifeStamp::PadClaim) = now();
        lifeStamp(pkt->life, LifeStamp::PadReady) = pad_ready;
    }

    // Pad wait plus the one-cycle XOR; clamped so a pair's packets
    // depart in counter order (the link preserves it from there).
    Tick dep = pad_ready + 1;
    dep = std::max(dep, last_departure_[pkt->dst]);
    if (shapingOn()) {
        const Tick shaped =
            shapeDeparture(pkt->dst, dep,
                           pkt->batchLast && pkt->hasMac,
                           pkt->batchId);
        shape_delay_cycles_ += static_cast<double>(shaped - dep);
        dep = shaped;
    }
    last_departure_[pkt->dst] = dep;
    if (shapingOn()) {
        claimChaffSlot(pkt->dst, dep);
        last_real_activity_ = std::max(last_real_activity_, dep);
        armChaff();
    }

    if (dep <= now()) {
        finishSend(std::move(pkt), now());
    } else {
        eventq().schedule(dep, [this, p = std::move(pkt)]() mutable {
            finishSend(std::move(p), now());
        });
    }
}

namespace
{

/** splitmix64 finalizer: a pure function of protocol state, so the
 *  "randomness" is identical across runs and thread counts. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Cycles
SecureChannel::jitterFor(std::uint64_t salt) const
{
    if (cfg_.shapeJitter == 0)
        return 0;
    return mix64((static_cast<std::uint64_t>(self_) << 48) ^ salt) %
           cfg_.shapeJitter;
}

Tick
SecureChannel::shapeDeparture(NodeId dst, Tick base, bool batch_close,
                              std::uint64_t salt)
{
    switch (cfg_.shaping) {
      case ShapingPolicy::ConstantRate: {
        const Cycles slot = cfg_.shapeInterval;
        if (slot == 0)
            return base;
        // Quantize up to the slot grid, with at most one data
        // departure per destination per slot: every busy stretch of
        // the flow shows the observer the same metronome regardless
        // of what the workload is doing.
        Tick dep = (base + slot - 1) / slot * slot;
        dep = std::max(dep, last_departure_[dst] + slot);
        return dep;
      }
      case ShapingPolicy::BatchJitter: {
        if (!batch_close)
            return base;
        // Deterministic jitter keyed on the batch identity: blurs
        // the close-to-close cadence without reordering counters
        // (the result only ever moves the departure later).
        return base + jitterFor(0x5ca1ab1eULL ^ salt ^
                                (static_cast<std::uint64_t>(dst)
                                 << 32));
      }
      default:
        return base;
    }
}

void
SecureChannel::shapePad(Packet &pkt)
{
    if (cfg_.shaping != ShapingPolicy::ConstantRate ||
        cfg_.shapePadTo == 0)
        return;
    const Bytes rem = pkt.wireBytes() % cfg_.shapePadTo;
    if (rem == 0)
        return;
    const Bytes pad = cfg_.shapePadTo - rem;
    // Pad rides the security-metadata class: it is chaff the secure
    // layer appends, indistinguishable on the wire from real
    // metadata, and the traffic accounting charges it to security.
    pkt.secMetaBytes += pad;
    shape_pad_bytes_ += static_cast<double>(pad);
}

void
SecureChannel::dispatchCtl(PacketPtr pkt, bool batch_close)
{
    if (!shapingOn()) {
        net_.send(std::move(pkt));
        return;
    }
    shapePad(*pkt);
    Tick dep = now();
    if (cfg_.shaping == ShapingPolicy::ConstantRate &&
        cfg_.shapeInterval > 0) {
        const Cycles slot = cfg_.shapeInterval;
        // Control packets claim a slot on the same one-per-slot grid
        // as data: a slot carrying two packets (data + ACK) would
        // hand the observer a sub-slot gap that scales with control
        // volume — exactly the signal constant rate must erase.
        dep = std::max((now() + slot) / slot * slot,
                       last_departure_[pkt->dst] + slot);
        last_departure_[pkt->dst] = dep;
        claimChaffSlot(pkt->dst, dep);
    } else if (cfg_.shaping == ShapingPolicy::BatchJitter &&
               batch_close) {
        dep = now() + jitterFor(0x7ea11e55ULL ^ pkt->batchId ^
                                (static_cast<std::uint64_t>(pkt->dst)
                                 << 32));
    }
    last_real_activity_ = std::max(last_real_activity_, dep);
    armChaff();
    if (dep <= now()) {
        net_.send(std::move(pkt));
        return;
    }
    shape_delay_cycles_ += static_cast<double>(dep - now());
    eventq().schedule(dep, [this, p = std::move(pkt)]() mutable {
        net_.send(std::move(p));
    });
}

void
SecureChannel::armChaff()
{
    if (!chaffOn())
        return;
    const Cycles slot = cfg_.shapeInterval;
    // First check at the next grid boundary; chaffTick steps over
    // the individual slots real departures have claimed.
    const Tick next = (now() / slot + 1) * slot;
    for (NodeId dst = 0; dst < net_.numNodes(); ++dst) {
        if (dst == self_ || chaff_armed_[dst])
            continue;
        chaff_armed_[dst] = 1;
        eventq().schedule(next, [this, dst, next]() {
            chaffTick(dst, next);
        });
    }
}

void
SecureChannel::chaffTick(NodeId dst, Tick slot_time)
{
    const Cycles slot = cfg_.shapeInterval;
    // Step past exactly the slots real departures claimed. A claim
    // can jump boundaries (a pad-wait rounds its departure up past
    // the next slot), so the chain must test slot ownership, not a
    // high-water mark: the boundary a claim skipped still needs a
    // chaff packet or the observer sees a workload-shaped hole.
    // All claims for slot_time were pushed by strictly earlier
    // events (quantization rounds up past now()), so the queue is
    // complete by the time this fires.
    auto &claims = chaff_claims_[dst];
    while (!claims.empty() && claims.front() < slot_time)
        claims.pop_front();
    if (!claims.empty() && claims.front() == slot_time) {
        claims.pop_front();
        const Tick next = slot_time + slot;
        eventq().schedule(next, [this, dst, next]() {
            chaffTick(dst, next);
        });
        return;
    }
    const Tick budget =
        static_cast<Tick>(cfg_.shapeChaffSlots) * slot;
    const Tick alive =
        std::max(last_real_activity_, last_cover_activity_);
    if (slot_time > alive && slot_time - alive > budget) {
        // The whole neighbourhood has been idle past the chaff
        // budget: go quiet so the event queue drains shortly after
        // the workload's last real packet. Keyed to node (and
        // relayed peer) activity, not this flow's — a silent flow
        // inside an active mesh is exactly what full-mesh cover
        // must hide.
        chaff_armed_[dst] = 0;
        return;
    }
    // Empty slot inside the chaff window: fill it with a dummy that
    // wears the same padded wire image as real shaped traffic. The
    // receiver drops it on arrival; it never touches last_departure_,
    // so it cannot retrigger or extend its own window.
    auto pkt = makePacket();
    pkt->id = next_pkt_id_++;
    pkt->type = PacketType::Chaff;
    pkt->src = self_;
    pkt->dst = dst;
    // Generation 0 while this node's own real clock is fresh; 1 when
    // only relayed cover keeps it alive (receivers must not relay
    // that further, or the mesh would chaff forever).
    pkt->chaffGen =
        (slot_time <= last_real_activity_ + budget) ? 0 : 1;
    pkt->injectTick = now();
    pkt->headerBytes =
        cfg_.countMetadataBytes ? cfg_.ackHeaderBytes : 1;
    shapePad(*pkt);
    ++shape_chaff_pkts_;
    net_.send(std::move(pkt));
    const Tick next = slot_time + slot;
    eventq().schedule(next, [this, dst, next]() {
        chaffTick(dst, next);
    });
}

crypto::BlockPayload
SecureChannel::synthesize(NodeId src, NodeId dst, std::uint64_t ctr)
{
    // Byte i is byte i % 8 of ctr (little-endian) ^ (src * 131) ^
    // (dst * 193) ^ (i * 7), all truncated to 8 bits; built here a
    // little-endian word of eight bytes at a time.
    static constexpr auto kIndexBytes = [] {
        std::array<std::uint64_t, 8> w{};
        for (std::size_t i = 0; i < 64; ++i)
            w[i / 8] |= static_cast<std::uint64_t>((i * 7) & 0xff)
                        << (8 * (i % 8));
        return w;
    }();
    const std::uint64_t ids = 0x0101010101010101ULL *
                              ((src * 131 ^ dst * 193) & 0xff);
    crypto::BlockPayload p;
    for (std::size_t w = 0; w < kIndexBytes.size(); ++w) {
        std::uint64_t v = ctr ^ ids ^ kIndexBytes[w];
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap64(v);
        std::memcpy(p.data() + 8 * w, &v, 8);
    }
    return p;
}

crypto::Block
SecureChannel::batchMaskPad(NodeId sender, NodeId receiver,
                            std::uint64_t batch_id) const
{
    // Both endpoints can derive this from the batch id alone.
    return factory_->authPad(sender, receiver,
                             0x8000000000000000ULL | batch_id);
}

crypto::MsgMac
SecureChannel::headerMac(NodeId src, NodeId dst, std::uint64_t ctr)
{
    crypto::Block auth;
    {
        ProfSpan gen(eventq().profiler(), eventq().domainId(),
                     kProfPadGen);
        auth = factory_->authPad(src, dst, ctr);
    }
    return factory_->mac(crypto::BlockPayload{}, src, dst, ctr, auth);
}

crypto::MsgMac
SecureChannel::sealSendBatch(NodeId dst)
{
    SendBatch &sb = send_batches_[dst];
    const crypto::MsgMac mac =
        factory_->batchMac(sb.macs.data(), sb.macs.size(),
                           batchMaskPad(self_, dst, sb.id));
    sb.id = 0;
    sb.macs.clear();
    return mac;
}

void
SecureChannel::applyFunctionalSend(Packet &pkt)
{
    ProfSpan seal(eventq().profiler(), eventq().domainId(),
                  kProfCryptoSeal);
    auto fp = makeFunctionalPayload();
    crypto::MsgMac msg_mac;
    if (pkt.payloadBytes >= kBlockBytes) {
        crypto::MessagePad pad;
        {
            ProfSpan gen(eventq().profiler(), eventq().domainId(),
                         kProfPadGen);
            pad = factory_->derive(self_, pkt.dst, pkt.msgCtr);
        }
        fp->cipher = crypto::PadFactory::crypt(
            synthesize(self_, pkt.dst, pkt.msgCtr), pad);
        fp->hasCipher = true;
        msg_mac =
            factory_->mac(fp->cipher, self_, pkt.dst, pkt.msgCtr, pad);
    } else {
        msg_mac = headerMac(self_, pkt.dst, pkt.msgCtr);
    }
    if (pkt.batchId != 0) {
        SendBatch &sb = send_batches_[pkt.dst];
        if (sb.id != pkt.batchId) {
            sb.id = pkt.batchId;
            sb.macs.clear();
        }
        sb.macs.push_back(msg_mac);
        if (pkt.batchLast && pkt.hasMac) {
            fp->mac = sealSendBatch(pkt.dst);
            fp->hasMac = true;
        }
    } else if (pkt.hasMac) {
        fp->mac = msg_mac;
        fp->hasMac = true;
    }
    pkt.func = std::move(fp);
}

void
SecureChannel::advanceVerified(NodeId src, std::uint64_t ctr)
{
    if (!has_verified_[src] || ctr > verified_recv_ctr_[src]) {
        verified_recv_ctr_[src] = ctr;
        has_verified_[src] = 1;
    }
}

bool
SecureChannel::finishFunctionalBatch(NodeId src,
                                     std::uint64_t batch_id)
{
    RecvBatch *rb = recv_batches_.find(src, batch_id);
    if (rb == nullptr)
        return false;
    if (!rb->haveTrailer)
        return false;
    ProfSpan open(eventq().profiler(), eventq().domainId(),
                  kProfCryptoOpen);
    const crypto::MsgMac expect = factory_->batchMac(
        rb->macs.data(), rb->macs.size(),
        batchMaskPad(src, self_, batch_id));
    const bool ok = expect == rb->trailer;
    if (ok) {
        ++mac_verified_;
        advanceVerified(src, rb->maxCtr);
    } else {
        ++mac_failed_;
    }
    recv_batches_.close(src, batch_id);
    return ok;
}

bool
SecureChannel::verifyFunctionalRecv(const Packet &pkt)
{
    ProfSpan open(eventq().profiler(), eventq().domainId(),
                  kProfCryptoOpen);
    crypto::MsgMac msg_mac;
    if (pkt.func && pkt.func->hasCipher) {
        const crypto::BlockPayload &cipher = pkt.func->cipher;
        crypto::MessagePad pad;
        {
            ProfSpan gen(eventq().profiler(), eventq().domainId(),
                         kProfPadGen);
            pad = factory_->derive(pkt.src, self_, pkt.msgCtr);
        }
        if (crypto::PadFactory::crypt(cipher, pad) ==
            synthesize(pkt.src, self_, pkt.msgCtr))
            ++decrypt_ok_;
        else
            ++decrypt_bad_;
        msg_mac = factory_->mac(cipher, pkt.src, self_, pkt.msgCtr, pad);
    } else {
        msg_mac = headerMac(pkt.src, self_, pkt.msgCtr);
    }
    if (pkt.batchId != 0) {
        RecvBatch &rb = recv_batches_.open(pkt.src, pkt.batchId);
        rb.macs.push_back(msg_mac);
        rb.maxCtr = std::max(rb.maxCtr, pkt.msgCtr);
        if (pkt.batchLast && pkt.func && pkt.func->hasMac) {
            rb.trailer = pkt.func->mac;
            rb.haveTrailer = true;
        }
    } else if (pkt.hasMac) {
        if (pkt.func && pkt.func->hasMac && pkt.func->mac == msg_mac) {
            ++mac_verified_;
            advanceVerified(pkt.src, pkt.msgCtr);
        } else {
            ++mac_failed_;
            return false;
        }
    }
    return true;
}

void
SecureChannel::finishSend(PacketPtr pkt, Tick departure)
{
    pkt->sendReady = departure;

    // Ride pending ACKs for this destination.
    auto &pa = pending_acks_[pkt->dst];
    const std::size_t n = std::min<std::size_t>(
        pa.size(), cfg_.maxPiggybackAcks);
    if (n > 0) {
        pkt->acks.assign(pa.begin(),
                         pa.begin() + static_cast<std::ptrdiff_t>(n));
        pa.erase(pa.begin(), pa.begin() + static_cast<std::ptrdiff_t>(n));
        piggybacked_acks_ += static_cast<double>(n);
        if (cfg_.countMetadataBytes)
            pkt->ackBytes = static_cast<Bytes>(n) * cfg_.ackBytes;
        if (pa.empty() && ack_timers_[pkt->dst].valid()) {
            eventq().cancel(ack_timers_[pkt->dst]);
            ack_timers_[pkt->dst] = EventId{};
        }
    }

    if (shapingOn())
        shapePad(*pkt); // after piggyback: pads the final wire image

    ++packets_sent_;
    if (observer_ && pkt->isResponse() &&
        pkt->payloadBytes >= kBlockBytes)
        observer_(pkt->dst, now());
    net_.send(std::move(pkt));
}

void
SecureChannel::queueAck(NodeId peer, const AckRecord &rec)
{
    auto &pa = pending_acks_[peer];
    pa.push_back(rec);
    pa.back().queuedAt = now();
    if (!ack_timers_[peer].valid()) {
        ack_timers_[peer] =
            eventq().scheduleIn(cfg_.ackTimeout, [this, peer]() {
                ack_timers_[peer] = EventId{};
                flushAcks(peer);
            });
    }
}

void
SecureChannel::flushAcks(NodeId peer)
{
    auto &pa = pending_acks_[peer];
    if (pa.empty())
        return;
    auto pkt = makePacket();
    pkt->id = next_pkt_id_++;
    pkt->type = PacketType::SecAck;
    pkt->src = self_;
    pkt->dst = peer;
    pkt->injectTick = now();
    pkt->acks.assign(pa.begin(), pa.end());
    pa.clear();
    if (cfg_.countMetadataBytes) {
        pkt->headerBytes = cfg_.ackHeaderBytes;
        pkt->ackBytes = static_cast<Bytes>(pkt->acks.size()) *
                        cfg_.ackBytes;
    } else {
        pkt->headerBytes = 1; // protocol-only packet, token cost
    }
    ++standalone_acks_;
    dispatchCtl(std::move(pkt), false);
}

void
SecureChannel::sendBatchTrailer(NodeId dst, std::uint64_t batch_id,
                                std::uint8_t count)
{
    if (TraceSink *ts = eventq().traceSink()) {
        ts->instant(self_, "batch", "flush", now(), "id",
                    static_cast<double>(batch_id));
    }
    auto pkt = makePacket();
    pkt->id = next_pkt_id_++;
    pkt->type = PacketType::BatchMac;
    pkt->src = self_;
    pkt->dst = dst;
    pkt->injectTick = now();
    pkt->batchId = batch_id;
    pkt->batchLen = count;
    pkt->hasMac = true;
    if (factory_ && send_batches_[dst].id == batch_id) {
        auto fp = makeFunctionalPayload();
        ProfSpan seal(eventq().profiler(), eventq().domainId(),
                      kProfCryptoSeal);
        fp->mac = sealSendBatch(dst);
        fp->hasMac = true;
        pkt->func = std::move(fp);
    }
    if (cfg_.countMetadataBytes) {
        pkt->headerBytes = cfg_.ackHeaderBytes;
        pkt->secMetaBytes = cfg_.macBytes + cfg_.batchLenBytes;
    } else {
        pkt->headerBytes = 1;
    }
    ++trailers_;
    dispatchCtl(std::move(pkt), true);
}

void
SecureChannel::processAcks(NodeId from, const AckList &acks)
{
    LatencyAttribution *attr = eventq().attribution();
    for (const AckRecord &rec : acks) {
        replay_.ackUpTo(from, rec.upToCtr);
        if (attr && rec.queuedAt != 0 && now() >= rec.queuedAt)
            attr->recordAckReturn(now() - rec.queuedAt);
    }
}

void
SecureChannel::handleArrival(PacketPtr pkt)
{
    MGSEC_ASSERT(pkt->dst == self_, "misrouted packet");
    if (!pkt->acks.empty())
        processAcks(pkt->src, pkt->acks);

    // Genuine arrivals refresh the cover-traffic clock too: a node
    // that is only listening must still chaff, or its silence would
    // expose the communication pattern around it.
    if (shapingOn() && pkt->type != PacketType::Chaff) {
        last_real_activity_ = std::max(last_real_activity_, now());
        armChaff();
    }

    switch (pkt->type) {
      case PacketType::Chaff:
        // Cover traffic carries nothing — but generation-0 chaff
        // relays "my sender is really active", which must keep this
        // node's own cover running (a listening-only node going
        // quiet would betray the flow pattern around it).
        if (shapingOn() && pkt->chaffGen == 0) {
            last_cover_activity_ =
                std::max(last_cover_activity_, now());
            armChaff();
        }
        return;
      case PacketType::SecAck:
        return;
      case PacketType::BatchMac:
        if (factory_ && pkt->func && pkt->func->hasMac) {
            RecvBatch &rb = recv_batches_.open(pkt->src, pkt->batchId);
            rb.trailer = pkt->func->mac;
            rb.haveTrailer = true;
        }
        if (storage_)
            storage_->onTrailer(pkt->src, pkt->batchId, pkt->batchLen);
        return;
      default:
        break;
    }

    if (!pkt->secured) {
        recordDelivery(*pkt, now());
        MGSEC_ASSERT(deliver_ != nullptr, "no deliver handler");
        deliver_(std::move(pkt));
        return;
    }

    const NodeId src = pkt->src;
    // Every scheme but Shared assigns counters contiguously per
    // (src,dst) pair, so a hole in the arriving stream means
    // something in flight went missing. Shared draws one global
    // stream per sender; its holes are routine (sends to peers).
    if (cfg_.scheme != OtpScheme::Shared) {
        const bool gap = has_recv_[src]
                             ? pkt->msgCtr > last_recv_ctr_[src] + 1
                             : pkt->msgCtr > 0;
        if (gap)
            ++ctr_gaps_;
    }
    if (has_recv_[src] && pkt->msgCtr <= last_recv_ctr_[src]) {
        ++replay_suspects_;
    } else {
        // The watermark only moves forward: letting a replayed old
        // counter rewind it would make a follow-up replay of the
        // next counter look like a fresh successor.
        last_recv_ctr_[src] = pkt->msgCtr;
    }
    has_recv_[src] = 1;

    const RecvGrant grant =
        pad_table_->acquireRecv(src, pkt->msgCtr, pkt->padFallback);
    MGSEC_DPRINTF(debug::Channel,
                  "recv %s from %u ctr=%llu outcome=%s",
                  packetTypeName(pkt->type), src,
                  static_cast<unsigned long long>(pkt->msgCtr),
                  otpOutcomeName(grant.outcome));

    const bool verified =
        factory_ == nullptr || verifyFunctionalRecv(*pkt);

    if (pkt->batchId != 0 && storage_ != nullptr) {
        storage_->onData(src, pkt->batchId, pkt->batchLen,
                         pkt->batchLast && pkt->hasMac);
    } else if (pkt->isResponse() && verified &&
               (factory_ == nullptr || has_verified_[src])) {
        // Only authenticated counters draw an ACK: a header flipped
        // in flight must not be able to mint cumulative coverage
        // for messages the receiver never verified. The record
        // carries the verified watermark for the same reason.
        queueAck(src, AckRecord{self_,
                                factory_ ? verified_recv_ctr_[src]
                                         : pkt->msgCtr,
                                0});
    }

    Tick ready = std::max(now(), grant.padReady) + 1;
    ready = std::max(ready, last_deliver_[src]);
    last_deliver_[src] = ready;

    // Decrypt and MAC check share the pad: `ready` is both the
    // delivery and the MAC-verify boundary.
    recordDelivery(*pkt, ready);

    MGSEC_ASSERT(deliver_ != nullptr, "no deliver handler");
    if (ready <= now()) {
        deliver_(std::move(pkt));
    } else {
        eventq().schedule(ready, [this, p = std::move(pkt)]() mutable {
            deliver_(std::move(p));
        });
    }
}

void
SecureChannel::recordDelivery(Packet &pkt, Tick ready)
{
    if (!eventq().stampsLife())
        return;
    lifeStamp(pkt.life, LifeStamp::DeliverReady) = ready;
    if (LatencyAttribution *attr = eventq().attribution())
        attr->fold(net_.linkType(pkt.src, self_), pkt.life);
    if (TraceSink *ts = eventq().traceSink()) {
        ts->packet(self_, packetTypeName(pkt.type), pkt.src,
                   pkt.wireBytes(), pkt.life);
    }
}

void
SecureChannel::drainBatches()
{
    if (assembler_)
        assembler_->drain();
    for (NodeId p = 0; p < net_.numNodes(); ++p)
        flushAcks(p);
}

} // namespace mgsec
