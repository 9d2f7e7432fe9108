/**
 * @file
 * SecurityOracle — an independent, deliberately simple shadow
 * implementation of the secure channel's AES-GCM semantics.
 *
 * The oracle watches two points on the interconnect:
 *
 *   onSent       every genuine packet before it touches the wire
 *                (pre-wire, untampered) — here it checks counter
 *                evolution per scheme and recomputes the pad,
 *                ciphertext and MsgMAC from scratch, diffing them
 *                against what the optimized src/secure + src/crypto
 *                path produced;
 *   onDelivered  every packet that actually arrives (post-wire,
 *                after the adversary) — here it replays the
 *                receiving channel's decision procedure (replay
 *                suspicion, MAC verification, batched-MAC coverage,
 *                MsgMacStorage completion, cumulative ACKs) with its
 *                own crypto and predicts every counter the real
 *                channel will report.
 *
 * Independence: GHASH is evaluated with the bit-serial gfmul()
 * reference rather than the table-driven Ghash class, pads come from
 * the vector-form AesGcm::keystream() rather than PadFactory, and
 * the IV/header layouts and the deterministic plaintext formula are
 * re-stated here. Only the AES core is shared — per the paper both
 * endpoints share that engine by construction.
 *
 * finalize() diffs predictions against the real channels and reports
 * every discrepancy, every genuine batch that lost verification,
 * and every attack that produced no detection signal.
 */

#ifndef MGSEC_VERIFY_ORACLE_HH
#define MGSEC_VERIFY_ORACLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "crypto/gcm.hh"
#include "crypto/otp.hh"
#include "net/packet.hh"
#include "secure/security_config.hh"
#include "verify/verify_types.hh"

namespace mgsec
{
class SecureChannel;
}

namespace mgsec::verify
{

class SecurityOracle
{
  public:
    SecurityOracle(std::uint32_t num_nodes, const SecurityConfig &cfg);

    /** @name Wire observation hooks (mounted by the Testbed) */
    /// @{
    /** A genuine channel send, observed pre-wire (untampered). */
    void onSent(const Packet &p);
    /** An attacker-injected packet entering the wire. */
    void onInjected(const Packet &p);
    /** A packet the wire will deliver (post-adversary content). */
    void onDelivered(const Packet &p);
    /** A packet the adversary dropped in flight. */
    void onDropped(const Packet &p);
    /// @}

    /**
     * The adversary mutated packet (src, id) in class @p cls; the
     * oracle must see a detection signal attributable to it or
     * report an UndetectedAttack at finalize().
     */
    void noteTampered(NodeId src, std::uint64_t id, AttackClass cls);

    /**
     * Record an attack the protocol neutralizes by construction
     * (duplicated or delayed cumulative ACKs are idempotent); the
     * differential window checks in finalize() still prove it.
     */
    void noteNeutralized(std::string what)
    {
        auto l = lockIfConcurrent();
        neutralized_.push_back(std::move(what));
    }

    /**
     * Guard the observation hooks with a mutex for multi-worker
     * testbeds, where deliveries land on concurrent domain threads.
     * Each hook's model updates are keyed by flow or receiver, so
     * the interleaving across domains cannot change any individual
     * verdict — only the append order of the findings/neutralized
     * vectors, never their contents or pass()/finalize() results.
     */
    void setConcurrent(bool on) { concurrent_ = on; }

    /**
     * Diff every prediction against the real channels (indexed by
     * node id) and collect the verdicts accumulated during the run.
     */
    std::vector<Finding> finalize(
        const std::vector<SecureChannel *> &channels);

    /** @name Introspection for tests and fuzz reporting */
    /// @{
    /** Genuine batches whose MAC verification never completed. */
    std::uint64_t strandedGenuineBatches() const
    {
        return stranded_batches_;
    }
    /** Attacks resolved as neutralized by protocol dynamics. */
    const std::vector<std::string> &neutralizedNotes() const
    {
        return neutralized_;
    }
    std::uint64_t packetsObserved() const { return observed_; }
    /// @}

  private:
    /** Directed pair key. */
    using PairKey = std::uint64_t;
    PairKey
    pairKey(NodeId src, NodeId dst) const
    {
        return static_cast<PairKey>(src) * num_nodes_ + dst;
    }
    /** Per-sender packet-id key (ids are unique per sender). */
    using PktKey = std::uint64_t;
    PktKey
    pktKey(NodeId src, std::uint64_t id) const
    {
        return (static_cast<PktKey>(src) << 48) | id;
    }

    /** @name Shadow crypto (reference-path GHASH, vector keystream) */
    /// @{
    crypto::Iv96 shadowIv(NodeId sender, NodeId receiver,
                          std::uint64_t ctr, std::uint8_t domain) const;
    void shadowPad(NodeId sender, NodeId receiver, std::uint64_t ctr,
                   std::uint8_t *enc64, std::uint8_t *auth16) const;
    crypto::MsgMac shadowMsgMac(const crypto::BlockPayload &cipher,
                                NodeId sender, NodeId receiver,
                                std::uint64_t ctr,
                                const std::uint8_t *auth16) const;
    crypto::MsgMac shadowBatchMac(
        const std::vector<crypto::MsgMac> &macs, NodeId sender,
        NodeId receiver, std::uint64_t batch_id) const;
    static crypto::BlockPayload shadowPlaintext(NodeId src, NodeId dst,
                                                std::uint64_t ctr);
    /// @}

    void addFinding(FindingKind k, std::string detail);
    void creditKey(PktKey key);
    /**
     * Check a (possibly deferred) flush trailer against the member
     * MACs accumulated for its batch and consume the batch entry.
     */
    void validateTrailer(PairKey pair, NodeId src, NodeId dst,
                         std::uint64_t batch_id, std::uint8_t expect,
                         const crypto::MsgMac &mac);
    void completeBatch(NodeId receiver, NodeId src,
                       std::uint64_t batch_id);
    void processDeliveredData(const Packet &p, bool injected);
    /**
     * Consume the genuine copy of @p p from its pair's sent stream,
     * resolving any ids skipped ahead of it as in-flight losses.
     * Returns true when the stream does not hold @p p — i.e. this
     * delivery is an injected clone.
     */
    bool sentStreamFrontIsNot(const Packet &p);
    /**
     * A genuine message vanished from its pair's FIFO stream.
     * @param gap_seen a later delivery on the pair exposed the hole
     *        (so per-pair-counter schemes saw it as a ctrGap too).
     */
    void resolveLost(NodeId src, NodeId dst, std::uint64_t id,
                     bool gap_seen);

    std::unique_lock<std::mutex>
    lockIfConcurrent()
    {
        return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                           : std::unique_lock<std::mutex>();
    }

    std::uint32_t num_nodes_;
    SecurityConfig cfg_;
    bool concurrent_ = false;
    std::mutex mu_;
    crypto::AesGcm gcm_; ///< shared AES core; GHASH goes via gfmul
    crypto::U128 hash_key_;

    /** @name Send-side models */
    /// @{
    /** Next expected counter per (src,dst) pair (per-pair schemes). */
    std::map<PairKey, std::uint64_t> next_pair_ctr_;
    /**
     * Shared-scheme model. One global stream per sender, drawn per
     * message but not necessarily serialized onto the wire in draw
     * order (pad pipeline and cache timing reorder across
     * destinations): the sound invariants are per-sender uniqueness,
     * per-pair monotonicity, and a hole-free stream at finalize.
     */
    std::vector<std::set<std::uint64_t>> shared_used_;
    std::vector<std::uint64_t> shared_max_;
    /** Last Shared counter seen per (src,dst) pair. */
    std::map<PairKey, std::uint64_t> shared_pair_last_;
    /** Un-ACKed counters per (owner,peer): the replay window model. */
    std::map<PairKey, std::deque<std::uint64_t>> outstanding_;
    /**
     * Every counter ever tracked per (owner,peer), in push order.
     * A cumulative ACK's coverage beyond the highest tracked
     * counter is vacuous — the receiver's verified watermark may
     * ride ahead on request counters no replay window holds — so
     * dropped-ACK resolution clamps against this history.
     */
    std::map<PairKey, std::vector<std::uint64_t>> tracked_ctrs_;
    /** Genuinely sent counters per pair, FIFO (loss detection). */
    std::map<PairKey, std::deque<std::uint64_t>> sent_stream_;
    /** Shadow member MACs of open send-side batches. */
    std::map<PairKey, std::map<std::uint64_t,
                               std::vector<crypto::MsgMac>>>
        send_batches_;
    /**
     * Flush trailers seen on the wire before all the members they
     * cover: a trailer departs immediately while member sends may
     * still be waiting on their pads, so it can legitimately
     * overtake them. Validation defers until the declared count of
     * members has been observed.
     */
    struct PendingTrailer
    {
        std::uint8_t expect = 0;
        crypto::MsgMac mac{};
    };
    std::map<std::pair<PairKey, std::uint64_t>, PendingTrailer>
        pending_trailers_;
    /** Every genuine batch opened: key -> verified yet? */
    std::map<PairKey, std::map<std::uint64_t, bool>> genuine_batches_;
    /// @}

    /** @name Receive-side models (mirror of the channel algorithm) */
    /// @{
    struct RecvPeer
    {
        std::uint64_t lastCtr = 0;
        bool has = false;
    };
    /** Indexed [receiver][src]. */
    std::vector<std::vector<RecvPeer>> recv_peer_;

    struct ShadowRecvBatch
    {
        std::vector<crypto::MsgMac> macs;
        crypto::MsgMac trailer{};
        bool haveTrailer = false;
        std::vector<PktKey> taints; ///< tampered members
        bool phantom = false;       ///< created by injected traffic
    };
    /** Key: (pairKey(src, receiver), batchId). */
    std::map<std::pair<PairKey, std::uint64_t>, ShadowRecvBatch>
        recv_batches_;

    struct ShadowPending
    {
        std::uint32_t received = 0;
        std::uint8_t declared = 0;
        std::uint8_t expected = 0;
        bool trailer = false;
        std::vector<PktKey> taints;
        bool phantom = false;
    };
    /** Mirror of MsgMacStorage, key (pairKey(src,receiver), batch). */
    std::map<std::pair<PairKey, std::uint64_t>, ShadowPending>
        storage_;

    /** Predicted per-node channel counters. */
    struct Predicted
    {
        std::uint64_t macsVerified = 0;
        std::uint64_t macsFailed = 0;
        std::uint64_t decryptsOk = 0;
        std::uint64_t decryptsBad = 0;
        std::uint64_t replaySuspects = 0;
        std::uint64_t ctrGaps = 0;
    };
    std::vector<Predicted> predicted_;
    /// @}

    /** @name Attack bookkeeping */
    /// @{
    struct TamperRec
    {
        AttackClass cls;
        bool credited = false;
    };
    std::map<PktKey, TamperRec> tampered_;
    /** Injected (replayed) packet keys awaiting a replay suspect. */
    std::map<PktKey, bool> injected_;

    struct DroppedAck
    {
        NodeId owner; ///< node whose replay window loses the ACK
        NodeId peer;
        std::uint64_t upTo;
        bool credited = false;
    };
    std::vector<DroppedAck> dropped_acks_;

    struct DroppedData
    {
        NodeId src;
        NodeId dst;
        std::uint64_t id;
        std::uint64_t ctr;
        std::uint64_t batchId;
        bool inWindow;        ///< tracked by the sender's window
        bool attributed = false; ///< loss explained (no LostMessage)
        bool detected = false;   ///< the channel saw a signal for it
    };
    std::vector<DroppedData> dropped_data_;
    /** Highest delivered cumulative ACK per (owner,peer). */
    std::map<PairKey, std::uint64_t> max_acked_;
    /// @}

    std::vector<Finding> findings_;
    std::vector<std::string> neutralized_;
    std::uint64_t stranded_batches_ = 0;
    std::uint64_t observed_ = 0;
};

} // namespace mgsec::verify

#endif // MGSEC_VERIFY_ORACLE_HH
