/**
 * @file
 * Per-processor secure communication endpoint.
 *
 * Sits between a node's protocol logic and the interconnect and
 * implements the paper's Fig. 5 flow:
 *
 *   send:  claim a send pad (assigning the MsgCTR), wait until the
 *          pad exists plus one XOR cycle, attach security metadata
 *          bytes (and batch fields when batching data responses),
 *          piggyback pending ACKs, and launch the packet.
 *   recv:  claim the receive pad for (src, MsgCTR), wait for it plus
 *          one XOR cycle, then deliver upward; decryption and MAC
 *          check share the pad, so no further latency is exposed.
 *          Every received data message owes an ACK: per message
 *          conventionally, per batch when batching.
 *
 * With OtpScheme::Unsecure the channel is a transparent pass-through
 * that only sets the base header size — the paper's baseline.
 */

#ifndef MGSEC_SECURE_SECURE_CHANNEL_HH
#define MGSEC_SECURE_SECURE_CHANNEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "crypto/otp.hh"
#include "net/network.hh"
#include "secure/batching.hh"
#include "secure/pad_table.hh"
#include "secure/replay_window.hh"
#include "secure/security_config.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"

namespace mgsec
{

class SecureChannel : public SimObject
{
  public:
    using Deliver = std::function<void(PacketPtr)>;

    SecureChannel(const std::string &name, EventQueue &eq,
                  Network &net, NodeId self,
                  const SecurityConfig &cfg);

    /** Handler receiving decrypted, ready packets. */
    void setDeliver(Deliver d) { deliver_ = std::move(d); }

    /**
     * Secure and transmit a packet built by the node logic (the
     * caller sets type/src/dst/payload/txnId; the channel owns
     * header/metadata bytes and all security fields).
     */
    void send(PacketPtr pkt);

    /** Entry point installed as the network handler for this node. */
    void handleArrival(PacketPtr pkt);

    NodeId nodeId() const { return self_; }
    const SecurityConfig &config() const { return cfg_; }

    /** Null when the scheme is Unsecure. */
    PadTable *padTable() { return pad_table_.get(); }
    const PadTable *padTable() const { return pad_table_.get(); }

    const ReplayWindow &replayWindow() const { return replay_; }
    const BatchAssembler *assembler() const { return assembler_.get(); }
    const MsgMacStorage *macStorage() const { return storage_.get(); }

    /** Observer for burstiness studies: (dst, tick) per data block. */
    using BlockObserver = std::function<void(NodeId, Tick)>;
    void setBlockObserver(BlockObserver o) { observer_ = std::move(o); }

    /** End-of-run: flush open batches and pending ACKs. */
    void drainBatches();

    std::uint64_t standaloneAcks() const
    {
        return static_cast<std::uint64_t>(standalone_acks_.value());
    }

    std::uint64_t packetsSent() const
    {
        return static_cast<std::uint64_t>(packets_sent_.value());
    }

    /** Stale (<= last seen) counters observed from any peer. */
    std::uint64_t replaySuspects() const
    {
        return static_cast<std::uint64_t>(replay_suspects_.value());
    }

    /**
     * Skipped counters observed on per-pair streams. Counters are
     * assigned contiguously per (src,dst) in every scheme except
     * Shared, so a hole in the arriving stream means messages were
     * suppressed in flight (or a sender skipped counters).
     */
    std::uint64_t ctrGaps() const
    {
        return static_cast<std::uint64_t>(ctr_gaps_.value());
    }

    /** @name Functional-crypto verification outcomes */
    /// @{
    std::uint64_t macsVerified() const
    {
        return static_cast<std::uint64_t>(mac_verified_.value());
    }
    std::uint64_t macsFailed() const
    {
        return static_cast<std::uint64_t>(mac_failed_.value());
    }
    std::uint64_t decryptsOk() const
    {
        return static_cast<std::uint64_t>(decrypt_ok_.value());
    }
    std::uint64_t decryptsBad() const
    {
        return static_cast<std::uint64_t>(decrypt_bad_.value());
    }
    /// @}

    /** Deterministic plaintext both endpoints can reconstruct (the
     *  verify testbed re-encrypts the packets it rewrites over it). */
    static crypto::BlockPayload synthesize(NodeId src, NodeId dst,
                                           std::uint64_t ctr);

  private:
    /** Auth pad masking a batch's MAC, derivable from the batch id. */
    crypto::Block batchMaskPad(NodeId sender, NodeId receiver,
                               std::uint64_t batch_id) const;
    /** MsgMAC of a message without a payload (zeros + header),
     *  which needs only the auth pad. */
    crypto::MsgMac headerMac(NodeId src, NodeId dst, std::uint64_t ctr);
    /** Batched MAC of the batch open toward @p dst; closes it. */
    crypto::MsgMac sealSendBatch(NodeId dst);
    void applyFunctionalSend(Packet &pkt);
    /**
     * Per-message receive crypto. Returns false only when this
     * message's MsgMAC failed right here; batched members defer
     * their verdict to finishFunctionalBatch().
     */
    bool verifyFunctionalRecv(const Packet &pkt);
    /** Lazy batch verification; true when the batched MAC held. */
    bool finishFunctionalBatch(NodeId src, std::uint64_t batch_id);
    /** Extend the verified-counter watermark toward @p src. */
    void advanceVerified(NodeId src, std::uint64_t ctr);

    void finishSend(PacketPtr pkt, Tick departure);
    /**
     * Stamp DeliverReady = @p ready on a delivered data packet, fold
     * its stamps into the attribution and write its trace event.
     */
    void recordDelivery(Packet &pkt, Tick ready);
    void queueAck(NodeId peer, const AckRecord &rec);
    void flushAcks(NodeId peer);
    void processAcks(NodeId from, const AckList &acks);
    void sendBatchTrailer(NodeId dst, std::uint64_t batch_id,
                          std::uint8_t count);

    /** @name Traffic shaping (SecurityConfig::shaping) */
    /// @{
    bool shapingOn() const
    {
        return cfg_.secured() && cfg_.shaping != ShapingPolicy::None;
    }
    /**
     * Shape a data departure: @p base is the unshaped departure
     * (already clamped to counter order); returns the shaped one,
     * never earlier than @p base. @p salt feeds the jitter policy
     * (the batch identity, so each close jitters differently).
     */
    Tick shapeDeparture(NodeId dst, Tick base, bool batch_close,
                        std::uint64_t salt);
    /** Constant-rate only: pad the wire image up to the quantum. */
    void shapePad(Packet &pkt);
    /** Deterministic jitter in [0, shapeJitter) from protocol state. */
    Cycles jitterFor(std::uint64_t salt) const;
    /**
     * Launch a protocol-only packet (trailer / standalone ACK)
     * through the shaping policy instead of calling net_.send()
     * directly; @p batch_close marks batch-close signatures for the
     * jitter policy.
     */
    void dispatchCtl(PacketPtr pkt, bool batch_close);
    /**
     * Constant-rate cover traffic: start filling empty slots toward
     * EVERY peer with chaff (no-op unless the policy and chaff
     * budget call for it). Full-mesh cover, not just the flow that
     * triggered it — per-link packet density must not reveal which
     * pairs actually communicate.
     */
    void armChaff();
    /** One chaff slot boundary for @p dst at tick @p slot_time. */
    void chaffTick(NodeId dst, Tick slot_time);
    /** Whether the constant-rate cover-traffic machinery is live. */
    bool chaffOn() const
    {
        return cfg_.shaping == ShapingPolicy::ConstantRate &&
               cfg_.shapeChaffSlots != 0 && cfg_.shapeInterval != 0;
    }
    /** Record a real shaped departure's slot for the chaff chain. */
    void claimChaffSlot(NodeId dst, Tick dep)
    {
        if (chaffOn())
            chaff_claims_[dst].push_back(dep);
    }
    /// @}

    Network &net_;
    NodeId self_;
    SecurityConfig cfg_;
    Deliver deliver_;
    BlockObserver observer_;

    std::unique_ptr<PadTable> pad_table_;
    std::unique_ptr<BatchAssembler> assembler_;
    std::unique_ptr<MsgMacStorage> storage_;
    ReplayWindow replay_;

    /** Functional-crypto state (null unless enabled). */
    std::unique_ptr<crypto::PadFactory> factory_;
    /**
     * Member MACs of the batch open toward each destination (the
     * assembler keeps at most one open per destination). Cleared,
     * never freed, when the batch closes.
     */
    struct SendBatch
    {
        std::uint64_t id = 0; ///< 0 while no batch is open
        std::vector<crypto::MsgMac> macs;
    };
    std::vector<SendBatch> send_batches_;
    struct RecvBatch
    {
        std::vector<crypto::MsgMac> macs;
        crypto::MsgMac trailer{};
        bool haveTrailer = false;
        std::uint64_t maxCtr = 0; ///< highest member counter seen

        void
        reset()
        {
            macs.clear();
            haveTrailer = false;
            maxCtr = 0;
        }
    };
    /** Batches awaiting their verdict, per source; members and
     *  trailer may arrive in any order. */
    BatchSlots<RecvBatch> recv_batches_;

    /** Pending ACK records per peer plus their flush timers. */
    std::vector<std::vector<AckRecord>> pending_acks_;
    std::vector<EventId> ack_timers_;

    /** Per-destination departure clamp keeping counters in order. */
    std::vector<Tick> last_departure_;
    /** Per-destination flag: a chaff timer chain is running. */
    std::vector<std::uint8_t> chaff_armed_;
    /**
     * Per-destination queue of grid slots claimed by real shaped
     * departures that the chaff chain has not stepped past yet.
     * last_departure_ alone cannot drive the chain: a pad-wait can
     * push a real departure two boundaries ahead, and treating the
     * high-water mark as "covered through here" would leave the
     * skipped slot empty — a wire-visible hole that scales with the
     * workload's idle-to-burst transitions. Pushed only while chaff
     * is enabled; pruned by chaffTick as slots pass.
     */
    std::vector<RingQueue<Tick>> chaff_claims_;
    /**
     * Latest real (non-chaff) shaped activity at this node — its own
     * departures and every genuine arrival. Chaff stays armed while
     * this clock is within the chaff budget, so cover lapses only
     * when the system around the node actually went quiet (chaff
     * arrivals deliberately do not refresh it, or cover would
     * sustain itself forever).
     */
    Tick last_real_activity_ = 0;
    /**
     * Latest generation-0 chaff arrival. A node whose peers are
     * still really active must keep chaffing even if nothing real
     * reaches it (or a quiet receiver's lapsed cover would expose
     * which links carry real flows), so peers' real activity is
     * relayed one hop through the generation bit on their chaff.
     * Generation-1 chaff never refreshes either clock, so the mesh
     * still drains within ~two chaff budgets of the last real
     * packet anywhere.
     */
    Tick last_cover_activity_ = 0;
    /** Per-source delivery clamp (FIFO toward the node logic). */
    std::vector<Tick> last_deliver_;
    /** Highest counter seen per source (replay detection). */
    std::vector<std::uint64_t> last_recv_ctr_;
    std::vector<std::uint8_t> has_recv_;
    /**
     * Highest counter per source whose MAC actually verified
     * (individually, or through its batch). Cumulative ACKs draw
     * from this watermark, never from last_recv_ctr_: the replay
     * watermark advances on sight and a counter flipped in flight
     * would otherwise poison it into acknowledging messages the
     * peer never sent or never authenticated. Only maintained when
     * functional crypto is on.
     */
    std::vector<std::uint64_t> verified_recv_ctr_;
    std::vector<std::uint8_t> has_verified_;

    std::uint64_t next_pkt_id_ = 1;

    stats::Scalar packets_sent_{"packetsSent", "data packets sent"};
    stats::Scalar standalone_acks_{"standaloneAcks",
                                   "ACK-only packets sent"};
    stats::Scalar piggybacked_acks_{"piggybackedAcks",
                                    "ACK records piggybacked"};
    stats::Scalar trailers_{"batchTrailers",
                            "standalone batch trailers sent"};
    stats::Scalar replay_suspects_{"replaySuspects",
                                   "stale counters observed"};
    stats::Scalar ctr_gaps_{"ctrGaps",
                            "skipped counters on per-pair streams"};
    stats::Scalar mac_verified_{"macsVerified",
                                "MsgMAC/batch MACs verified"};
    stats::Scalar mac_failed_{"macsFailed",
                              "MsgMAC/batch MAC verification failures"};
    stats::Scalar decrypt_ok_{"decryptsOk",
                              "payloads decrypted to expected data"};
    stats::Scalar decrypt_bad_{"decryptsBad",
                               "payload decryption mismatches"};
    /** Registered only when shaping is on (stats dumps stay stable
     *  for every unshaped configuration). */
    stats::Scalar shape_pad_bytes_{"shapePadBytes",
                                   "wire bytes added by shaping"};
    stats::Scalar shape_delay_cycles_{
        "shapeDelayCycles", "departure delay added by shaping"};
    stats::Scalar shape_chaff_pkts_{"shapeChaffPackets",
                                    "cover-traffic packets sent"};
};

} // namespace mgsec

#endif // MGSEC_SECURE_SECURE_CHANNEL_HH
