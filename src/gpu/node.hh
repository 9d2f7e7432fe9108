/**
 * @file
 * Processor node model (GPU or host CPU).
 *
 * A GPU node runs a workload-driven traffic engine: remote block
 * accesses issue into a bounded outstanding-request window (the
 * thread-level parallelism that hides latency), while accesses whose
 * page has migrated home are satisfied locally. Every node also
 * serves remote requests against its local memory, and every message
 * crosses this node's SecureChannel.
 *
 * Page migration follows the access-counter policy: when a
 * migratable page crosses the threshold, the home node streams the
 * 64 blocks of the page through the secure channel (so migrations
 * pay encryption, metadata, and — with batching — amortized MAC/ACK
 * costs), then the requester pays the TLB-shootdown stall.
 */

#ifndef MGSEC_GPU_NODE_HH
#define MGSEC_GPU_NODE_HH

#include <functional>
#include <memory>
#include <vector>

#include "gpu/txn_table.hh"
#include "mem/cache.hh"
#include "mem/hbm.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "memsec/mem_protect.hh"
#include "net/network.hh"
#include "secure/secure_channel.hh"
#include "sim/sim_object.hh"
#include "workload/source.hh"

namespace mgsec
{

/** Each CU's private L1 vector cache and L1 TLB (Table III). */
struct CuParams
{
    CacheParams l1{16 * 1024, 4, kBlockBytes, 1};
    TlbParams l1Tlb{64, 1};
};

struct NodeParams
{
    HbmParams mem;           ///< HBM (GPU) or host DRAM (CPU)
    CacheParams l2;
    Cycles serviceOverhead = 20; ///< request decode + L2 path
    std::uint32_t maxOutstanding = 64;
    /** Compute units (0 for the CPU, Table III: 64 per GPU). */
    std::uint32_t numCus = 0;
    CuParams cu{};
    TlbParams l2Tlb{1024, 8};
    /** Host-side IOMMU table-walk latency for L2 TLB misses. */
    Cycles iommuLatency = 100;
    /**
     * Off-chip memory protection (counters + integrity tree). Used
     * by the CPU, whose DRAM is outside the trust boundary; GPU HBM
     * is trusted and never pays this.
     */
    MemProtectParams memProtect{};
};

class Node : public SimObject
{
  public:
    Node(const std::string &name, EventQueue &eq, NodeId id,
         Network &net, PageTable &pt, const SecurityConfig &sec,
         NodeParams params);

    NodeId nodeId() const { return id_; }
    SecureChannel &channel() { return channel_; }
    const SecureChannel &channel() const { return channel_; }
    Cache &l2() { return l2_; }
    Hbm &memory() { return mem_; }
    Tlb &l2Tlb() { return l2_tlb_; }
    /** Null unless host memory protection is enabled. */
    const MemProtectEngine *memProtect() const
    {
        return memprot_.get();
    }
    std::uint32_t numCus() const { return l1_.numBanks(); }
    /** The CU L1s: bank c is CU c's private L1. */
    Cache &l1() { return l1_; }
    /** The CU L1 TLBs: bank c is CU c's private L1 TLB. */
    Tlb &l1Tlb() { return l1_tlb_; }

    /**
     * The one CU (L1 bank) whose L1 may hold the block of @p addr:
     * local accesses are dealt to CUs by block interleave, and
     * nothing else fills an L1. Requires numCus() > 0.
     */
    std::uint32_t l1Bank(std::uint64_t addr) const
    {
        return static_cast<std::uint32_t>((addr / kBlockBytes) %
                                          numCus());
    }

    /**
     * Give this node (a GPU) a workload to drive. May be called
     * again before start() to substitute a different source (e.g. a
     * replayed trace).
     */
    void attachWorkload(std::unique_ptr<OpSource> src);

    /** Begin issuing (no-op without a workload). */
    void start();

    bool done() const { return done_; }
    Tick finishTick() const { return finish_tick_; }

    /** Invoked once when this node's workload completes. */
    void setOnDone(std::function<void()> cb) { on_done_ = std::move(cb); }

    /** @name Cumulative communication counters (Fig. 13/14) */
    /// @{
    const std::vector<std::uint64_t> &sendsTo() const
    {
        return sends_to_;
    }
    const std::vector<std::uint64_t> &recvsFrom() const
    {
        return recvs_from_;
    }
    /// @}

    std::uint64_t remoteOps() const
    {
        return static_cast<std::uint64_t>(remote_ops_.value());
    }
    std::uint64_t localOps() const
    {
        return static_cast<std::uint64_t>(local_ops_.value());
    }
    std::uint64_t migrationsStarted() const
    {
        return static_cast<std::uint64_t>(migrations_.value());
    }
    std::uint64_t iommuWalks() const
    {
        return static_cast<std::uint64_t>(iommu_walks_.value());
    }
    std::uint64_t l1Hits() const
    {
        return static_cast<std::uint64_t>(l1_hits_.value());
    }
    const stats::Histogram &latency() const { return latency_; }

  private:
    void tryIssue();
    void scheduleIssueAt(Tick when);
    void issueCurrent();
    /** CU-side translation; may launch an IOMMU walk message. */
    void translateThroughTlbs(std::uint64_t addr);
    void startMigration(std::uint64_t page, NodeId home);
    /** Drop a moved page from every TLB and its blocks from the L1s. */
    void shootdown(std::uint64_t page);
    void handleDeliver(PacketPtr pkt);
    void serveRequest(PacketPtr pkt);
    void completeResponse(PacketPtr pkt);
    void checkDone();

    NodeId id_;
    Network &net_;
    PageTable &pt_;
    NodeParams params_;
    SecureChannel channel_;
    Cache l2_;
    Hbm mem_;
    Tlb l2_tlb_;
    std::unique_ptr<MemProtectEngine> memprot_;
    /** One bank per CU; the CPU has none. */
    Cache l1_;
    Tlb l1_tlb_;
    /** The CU the next translation is dealt to. */
    std::uint32_t next_cu_ = 0;

    std::unique_ptr<OpSource> source_;
    bool started_ = false;
    bool done_ = false;
    Tick finish_tick_ = 0;
    std::function<void()> on_done_;

    /** Issue engine state. */
    RemoteOp cur_op_{};
    bool have_op_ = false;
    Tick next_issue_tick_ = 0;
    bool issue_event_pending_ = false;
    bool waiting_for_slot_ = false;

    std::uint32_t outstanding_ = 0;
    /** Page moves in flight: the context is stalled on a fault. */
    std::uint32_t migrations_in_flight_ = 0;
    std::uint64_t next_txn_ = 1;
    TxnTable txns_;

    std::vector<std::uint64_t> sends_to_;
    std::vector<std::uint64_t> recvs_from_;

    stats::Scalar remote_ops_{"remoteOps", "remote accesses issued"};
    stats::Scalar local_ops_{"localOps",
                             "accesses satisfied locally"};
    stats::Scalar served_{"served", "remote requests served"};
    stats::Scalar migrations_{"migrationsStarted",
                              "page migrations initiated"};
    stats::Scalar window_stalls_{"windowStalls",
                                 "issues delayed by a full window"};
    stats::Scalar iommu_walks_{"iommuWalks",
                               "L2 TLB misses sent to the IOMMU"};
    stats::Scalar l1_hits_{"l1Hits", "local ops filtered by a CU L1"};
    stats::Histogram latency_{"remoteLatency",
                              "remote access round-trip cycles"};
};

} // namespace mgsec

#endif // MGSEC_GPU_NODE_HH
