/**
 * @file
 * Abstract OTP buffer manager for one processor.
 *
 * Concrete schemes (Section II-C and IV-B of the paper):
 *   PrivatePadTable  - fixed per-(pair, direction) quotas.
 *   SharedPadTable   - one send slot; one receive slot per peer.
 *   CachedPadTable   - an LRU pool over (pair, direction).
 *   DynamicPadTable  - Private plus EWMA-driven re-partitioning.
 *
 * The table assigns message counters on send, classifies every pad
 * claim as hit/partial/miss, and accounts the exposed latency per
 * direction for the Fig. 10 / Fig. 22 reports.
 */

#ifndef MGSEC_SECURE_PAD_TABLE_HH
#define MGSEC_SECURE_PAD_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "secure/otp_types.hh"
#include "secure/pad_pipeline.hh"
#include "sim/knob.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"

namespace mgsec
{

/** Aggregated OTP accounting, queryable per direction. */
struct OtpStats
{
    std::array<std::array<std::uint64_t, kNumOutcomes>,
               kNumDirections> counts{};
    std::array<double, kNumDirections> exposedCycles{};

    std::uint64_t
    total(Direction d) const
    {
        const auto &row = counts[static_cast<std::size_t>(d)];
        return row[0] + row[1] + row[2];
    }

    double
    frac(Direction d, OtpOutcome o) const
    {
        const std::uint64_t t = total(d);
        if (t == 0)
            return 0.0;
        return static_cast<double>(
                   counts[static_cast<std::size_t>(d)]
                         [static_cast<std::size_t>(o)]) /
               static_cast<double>(t);
    }

    OtpStats &operator+=(const OtpStats &o);
};

class PadTable : public SimObject
{
  public:
    /**
     * @param self this processor's node id.
     * @param num_nodes total processors in the system.
     * @param total_entries OTP buffer entries this node owns.
     * @param latency AES-GCM pad generation latency (cycles).
     */
    PadTable(const std::string &name, EventQueue &eq, NodeId self,
             std::uint32_t num_nodes, std::uint32_t total_entries,
             Cycles latency);

    /**
     * Claim the pad for the next message to @p dst; assigns the
     * message counter.
     */
    virtual SendGrant acquireSend(NodeId dst) = 0;

    /**
     * Claim the pad for an arriving message (src, ctr).
     * @param sender_fallback the sender generated its pad on demand
     *        outside the pre-generated stream (Cached falls back to
     *        the Shared max-counter scheme on a miss, so the
     *        receiver cannot have the matching pad staged).
     */
    virtual RecvGrant acquireRecv(NodeId src, std::uint64_t ctr,
                                  bool sender_fallback = false) = 0;

    NodeId self() const { return self_; }
    std::uint32_t numNodes() const { return num_nodes_; }
    std::uint32_t totalEntries() const { return total_entries_; }
    Cycles aesLatency() const { return latency_; }

    const OtpStats &otpStats() const { return otp_stats_; }

    /** @name Occupancy gauges (metric sampling, not hot-path) */
    /// @{
    /** Staging slots currently assigned to (peer, direction). */
    virtual std::uint32_t padQuota(NodeId peer, Direction d) const = 0;
    /** Of those, pads already generated at @p now. */
    virtual std::uint32_t padsReady(NodeId peer, Direction d,
                                    Tick now) const = 0;
    /**
     * Pad generations discarded unconsumed (shrinking re-partitions,
     * counter resyncs) — wasted crypto work, surfaced by the
     * attribution layer. Schemes without staged pipelines report 0.
     */
    virtual std::uint64_t wastedGenerations() const { return 0; }

    /**
     * Names of the table's metric columns, each "<prefix>." + ...:
     * for each peer other than self, in id order, the send then the
     * recv "pads.<dir>.<peer>.quota" and ".ready" pair (padQuota,
     * padsReady); a table with EWMA state appends its weights.
     * @p node_names names every node by id.
     */
    virtual std::vector<std::string>
    gaugeNames(const std::string &prefix,
               const std::vector<std::string> &node_names) const;
    /**
     * Writes the gaugeNames() columns' values at @p now to @p out;
     * returns one past the last value written.
     */
    virtual double *readGauges(Tick now, double *out) const;
    /// @}

  protected:
    /** Record an outcome and the latency it exposed. */
    void record(Direction d, OtpOutcome o, Tick ready);

    NodeId self_;
    std::uint32_t num_nodes_;
    std::uint32_t total_entries_;
    Cycles latency_;

    OtpStats otp_stats_;

    stats::Scalar send_hits_{"sendHits", "send pads fully hidden"};
    stats::Scalar send_partials_{"sendPartials",
                                 "send pads partially hidden"};
    stats::Scalar send_misses_{"sendMisses", "send pads not hidden"};
    stats::Scalar recv_hits_{"recvHits", "recv pads fully hidden"};
    stats::Scalar recv_partials_{"recvPartials",
                                 "recv pads partially hidden"};
    stats::Scalar recv_misses_{"recvMisses", "recv pads not hidden"};
};

/** Private: quota / pair / direction, fixed for the whole run. */
class PrivatePadTable : public PadTable
{
  public:
    PrivatePadTable(const std::string &name, EventQueue &eq,
                    NodeId self, std::uint32_t num_nodes,
                    std::uint32_t total_entries, Cycles latency);

    SendGrant acquireSend(NodeId dst) override;
    RecvGrant acquireRecv(NodeId src, std::uint64_t ctr,
                          bool sender_fallback = false) override;

    std::uint32_t quotaPerPair() const { return quota_per_pair_; }

    std::uint32_t
    padQuota(NodeId peer, Direction d) const override
    {
        return (d == Direction::Send ? send_pipes_
                                     : recv_pipes_)[peer].quota();
    }

    std::uint32_t
    padsReady(NodeId peer, Direction d, Tick now) const override
    {
        return (d == Direction::Send ? send_pipes_
                                     : recv_pipes_)[peer].readyAt(now);
    }

    std::uint64_t
    wastedGenerations() const override
    {
        std::uint64_t n = 0;
        for (const PadPipeline &p : send_pipes_)
            n += p.wastedGenerations();
        for (const PadPipeline &p : recv_pipes_)
            n += p.wastedGenerations();
        return n;
    }

  protected:
    std::uint32_t quota_per_pair_;
    std::vector<PadPipeline> send_pipes_;
    std::vector<PadPipeline> recv_pipes_;
};

/**
 * Shared: one send slot total (seeded with the last destination, so
 * only back-to-back sends to the same peer hit) plus one receive
 * slot per peer that tracks that sender's global counter.
 */
class SharedPadTable : public PadTable
{
  public:
    SharedPadTable(const std::string &name, EventQueue &eq,
                   NodeId self, std::uint32_t num_nodes,
                   std::uint32_t total_entries, Cycles latency);

    SendGrant acquireSend(NodeId dst) override;
    RecvGrant acquireRecv(NodeId src, std::uint64_t ctr,
                          bool sender_fallback = false) override;

    std::uint32_t padQuota(NodeId peer, Direction d) const override;
    std::uint32_t padsReady(NodeId peer, Direction d,
                            Tick now) const override;

  private:
    /** Global send counter (one stream for all destinations). */
    std::uint64_t send_ctr_ = 0;
    NodeId last_dst_ = InvalidNode;
    /** Ready tick of the single pre-generated send pad. */
    Tick send_slot_ready_ = 0;

    /** Per-sender receive slot: expected counter + readiness. */
    struct RecvSlot
    {
        std::uint64_t expectCtr = 0;
        Tick ready = 0;
        bool primed = false;
    };
    std::vector<RecvSlot> recv_slots_;
};

/**
 * Cached: a pool of entries, LRU across (pair, direction). Hot pairs
 * accumulate entries (each miss steals the LRU victim's
 * highest-counter slot); a hit behaves like Private.
 */
class CachedPadTable : public PadTable
{
  public:
    CachedPadTable(const std::string &name, EventQueue &eq,
                   NodeId self, std::uint32_t num_nodes,
                   std::uint32_t total_entries, Cycles latency);

    SendGrant acquireSend(NodeId dst) override;
    RecvGrant acquireRecv(NodeId src, std::uint64_t ctr,
                          bool sender_fallback = false) override;

    /** Entries currently owned by a (peer, direction). */
    std::uint32_t owned(NodeId peer, Direction d) const;

    std::uint32_t
    padQuota(NodeId peer, Direction d) const override
    {
        return owned(peer, d);
    }

    std::uint32_t padsReady(NodeId peer, Direction d,
                            Tick now) const override;

  private:
    struct PairState
    {
        /** Ready ticks of the pads staged for this pair, counter
         *  order; size == entries owned. */
        RingQueue<Tick> ready;
        /** Counter of the front staged pad. */
        std::uint64_t frontCtr = 0;
        /** Last time this pair won a new entry (rate limit). */
        Tick lastGrow = 0;
        /** Next counter a refill generation will target. */
        std::uint64_t nextGenCtr = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t
    keyOf(NodeId peer, Direction d) const
    {
        return static_cast<std::size_t>(peer) * kNumDirections +
               static_cast<std::size_t>(d);
    }

    /** Take a free entry, else steal the LRU victim's slot. */
    bool grabEntry(std::size_t for_key);
    /** Steal the LRU pool entry; returns false when pool empty. */
    bool stealEntry(std::size_t for_key);

    Tick claimFrom(PairState &ps, Tick now);

    std::vector<PairState> pairs_;
    std::vector<std::uint64_t> send_ctrs_;
    std::uint32_t free_entries_;
    /** Set-associativity limit on entries one pair may own. */
    std::uint32_t pair_cap_;
    std::uint64_t lru_clock_ = 0;
};

/**
 * Dynamic (the paper's contribution): Private-style per-pair
 * pipelines whose quotas are re-partitioned every T cycles using
 * EWMA-weighted traffic shares (Formulas 1-4).
 */
class DynamicPadTable : public PrivatePadTable
{
  public:
    struct Params
    {
        Cycles interval = 1000;  ///< T
        double alpha = 0.9;      ///< direction EWMA weight
        double beta = 0.5;       ///< per-destination EWMA weight
        /**
         * Message-count scales at which an interval's ratio estimate
         * is trusted at half the configured alpha/beta; intervals
         * carrying few messages move the EWMA proportionally less.
         * The direction split (S) is damped hard — send and receive
         * activity arrive in queue-induced waves that a fast EWMA
         * would chase — while the per-peer weights track workload
         * phases and stay more responsive.
         */
        std::uint32_t confidenceDir = 4096;
        std::uint32_t confidencePeer = 384;
    };

    DynamicPadTable(const std::string &name, EventQueue &eq,
                    NodeId self, std::uint32_t num_nodes,
                    std::uint32_t total_entries, Cycles latency,
                    Params params);

    SendGrant acquireSend(NodeId dst) override;
    RecvGrant acquireRecv(NodeId src, std::uint64_t ctr,
                          bool sender_fallback = false) override;

    /** Run one monitoring/adjustment step (normally event-driven). */
    void adjust();

    /** Current quota of a (peer, direction) pipe. */
    std::uint32_t quota(NodeId peer, Direction d) const;

    double sendWeight() const { return s_weight_; }

    /**
     * Adds "ewma.S" (sendWeight()), then each peer's
     * "ewma.<dir>.<peer>" send and recv weight.
     */
    std::vector<std::string>
    gaugeNames(const std::string &prefix,
               const std::vector<std::string> &node_names) const override;
    double *readGauges(Tick now, double *out) const override;

    /** EWMA traffic share of @p peer in direction @p d. */
    double
    peerWeight(NodeId peer, Direction d) const
    {
        return d == Direction::Send ? s_peer_weight_[peer]
                                    : r_peer_weight_[peer];
    }

    std::uint64_t adjustments() const
    {
        return static_cast<std::uint64_t>(adjustments_.value());
    }

  private:
    void scheduleNext();

    /**
     * Split @p total entries across peers proportionally to
     * @p weights, guaranteeing one entry per peer (largest-remainder
     * rounding).
     */
    std::vector<std::uint32_t>
    partition(std::uint32_t total, const std::vector<double> &weights)
        const;

    Params params_;

    /** This-interval request counts. */
    std::uint64_t sreq_ = 0;
    std::uint64_t rreq_ = 0;
    std::vector<std::uint64_t> sreq_peer_;
    std::vector<std::uint64_t> rreq_peer_;

    /** EWMA state. */
    double s_weight_ = 0.5;
    std::vector<double> s_peer_weight_;
    std::vector<double> r_peer_weight_;

    /** Weights in force at the last applied re-partition. */
    static constexpr double kDriftThreshold = 0.05;
    double applied_s_ = 0.5;
    std::vector<double> applied_s_peer_;
    std::vector<double> applied_r_peer_;

    stats::Scalar adjustments_{"adjustments",
                               "quota re-partition steps"};
};

/** The scheme selector used by configs and benches. */
enum class OtpScheme : std::uint8_t
{
    Unsecure,
    Private,
    Shared,
    Cached,
    Dynamic,
};

/** "none" is an alias of Unsecure. */
inline constexpr EnumName<OtpScheme> kOtpSchemeNames[] = {
    {OtpScheme::Unsecure, "Unsecure"}, {OtpScheme::Unsecure, "none"},
    {OtpScheme::Private, "Private"},   {OtpScheme::Shared, "Shared"},
    {OtpScheme::Cached, "Cached"},     {OtpScheme::Dynamic, "Dynamic"}};

inline const char *
otpSchemeName(OtpScheme s)
{
    return nameIn(kOtpSchemeNames, s);
}

/** Parse a scheme name ("private", "Dynamic", ...). */
inline bool
parseScheme(const std::string &text, OtpScheme &out)
{
    return parseIn(kOtpSchemeNames, text, out);
}

/** Factory building the right table for a scheme (not Unsecure). */
std::unique_ptr<PadTable>
makePadTable(OtpScheme scheme, const std::string &name, EventQueue &eq,
             NodeId self, std::uint32_t num_nodes,
             std::uint32_t total_entries, Cycles latency,
             DynamicPadTable::Params dyn_params = {});

} // namespace mgsec

#endif // MGSEC_SECURE_PAD_TABLE_HH
