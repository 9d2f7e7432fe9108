#include "gpu/node.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace mgsec
{

Node::Node(const std::string &name, EventQueue &eq, NodeId id,
           Network &net, PageTable &pt, const SecurityConfig &sec,
           NodeParams params)
    : SimObject(name, eq), id_(id), net_(net), pt_(pt),
      params_(params),
      channel_(name + ".channel", eq, net, id, sec),
      l2_(name + ".l2", eq, params.l2),
      mem_(name + ".mem", eq, params.mem),
      l2_tlb_(name + ".l2tlb", eq, params.l2Tlb),
      l1_(name + ".l1", eq, params.cu.l1, params.numCus),
      l1_tlb_(name + ".l1tlb", eq, params.cu.l1Tlb, params.numCus),
      txns_(params.maxOutstanding),
      sends_to_(net.numNodes(), 0), recvs_from_(net.numNodes(), 0)
{
    if (params_.memProtect.enabled) {
        memprot_ = std::make_unique<MemProtectEngine>(
            name + ".memprot", eq, params_.memProtect, mem_);
    }
    channel_.setDeliver([this](PacketPtr pkt) {
        handleDeliver(std::move(pkt));
    });
    regStat(remote_ops_);
    regStat(local_ops_);
    regStat(served_);
    regStat(migrations_);
    regStat(window_stalls_);
    regStat(iommu_walks_);
    regStat(l1_hits_);
    regStat(latency_);
}

void
Node::translateThroughTlbs(std::uint64_t addr)
{
    if (numCus() == 0)
        return;
    const std::uint64_t page = addr / kPageBytes;
    const std::uint32_t cu = next_cu_;
    next_cu_ = (next_cu_ + 1) % numCus();
    if (l1_tlb_.lookup(page, cu) || l2_tlb_.lookup(page))
        return;
    // L2 TLB miss: the IOMMU on the CPU side resolves it (Fig. 2).
    // The walk overlaps the (optimistically issued) data access, so
    // its cost is secure-channel traffic and a window slot, not a
    // serial stall.
    if (id_ == 0)
        return;
    ++iommu_walks_;
    const std::uint64_t txn_id = next_txn_++;
    Txn &txn = txns_.insert(txn_id);
    txn.issued = now();
    txn.translation = true;
    ++outstanding_;

    auto pkt = makePacket();
    pkt->txnId = txn_id;
    pkt->type = PacketType::TransReq;
    pkt->src = id_;
    pkt->dst = 0;
    pkt->addr = addr;
    ++sends_to_[0];
    channel_.send(std::move(pkt));
}

void
Node::attachWorkload(std::unique_ptr<OpSource> src)
{
    MGSEC_ASSERT(!started_, "cannot swap workloads after start()");
    source_ = std::move(src);
}

void
Node::start()
{
    MGSEC_ASSERT(!started_, "node started twice");
    started_ = true;
    if (source_ == nullptr) {
        // A pure server (the CPU): it is done by definition.
        done_ = true;
        return;
    }
    tryIssue();
}

void
Node::scheduleIssueAt(Tick when)
{
    if (issue_event_pending_)
        return;
    issue_event_pending_ = true;
    eventq().schedule(when, [this]() {
        issue_event_pending_ = false;
        tryIssue();
    });
}

void
Node::tryIssue()
{
    while (true) {
        if (!have_op_) {
            if (!source_->next(cur_op_)) {
                checkDone();
                return;
            }
            have_op_ = true;
            next_issue_tick_ =
                std::max(now(), next_issue_tick_) + cur_op_.gap;
        }
        if (next_issue_tick_ > now()) {
            scheduleIssueAt(next_issue_tick_);
            return;
        }
        if (migrations_in_flight_ > 0) {
            // Unified-memory fault semantics: the context stalls
            // while the driver moves and remaps the page (this is
            // why Section II calls page migration expensive, and why
            // securing the 64-block train shows up in run time).
            return;
        }
        if (outstanding_ >= params_.maxOutstanding) {
            // A completion will resume us.
            ++window_stalls_;
            waiting_for_slot_ = true;
            return;
        }
        issueCurrent();
        have_op_ = false;
    }
}

void
Node::issueCurrent()
{
    // tryIssue() parks the context while a page fault is in flight.
    MGSEC_ASSERT(migrations_in_flight_ == 0, "issue during a fault");
    const std::uint64_t page = cur_op_.addr / kPageBytes;
    const NodeId home = pt_.home(page, regionOwner(cur_op_.addr));

    // Address translation happens for every access; a CU's L1 TLB
    // miss escalates to the shared L2 TLB and then to the host IOMMU.
    translateThroughTlbs(cur_op_.addr);

    if (home == id_) {
        // Satisfied from local memory; assumed hidden by the GPU's
        // thread-level parallelism. The CU L1 filters the L2.
        ++local_ops_;
        const std::uint64_t addr = cur_op_.addr;
        if (numCus() > 0 &&
            l1_.access(addr, cur_op_.write, l1Bank(addr)).hit) {
            ++l1_hits_;
            return;
        }
        if (!l2_.access(addr, cur_op_.write).hit)
            mem_.access(kBlockBytes);
        return;
    }

    ++remote_ops_;
    const std::uint64_t txn_id = next_txn_++;
    txns_.insert(txn_id).issued = now();
    ++outstanding_;

    auto pkt = makePacket();
    pkt->txnId = txn_id;
    pkt->type = cur_op_.write ? PacketType::WriteReq
                              : PacketType::ReadReq;
    pkt->src = id_;
    pkt->dst = home;
    pkt->addr = cur_op_.addr;
    pkt->payloadBytes = cur_op_.write ? kBlockBytes : 0;
    ++sends_to_[home];
    channel_.send(std::move(pkt));

    if (cur_op_.migratable && pt_.recordRemoteAccess(page, id_)) {
        startMigration(page, home);
    }
}

void
Node::startMigration(std::uint64_t page, NodeId home)
{
    MGSEC_DPRINTF(debug::NodeFlag,
                  "migrating page %llu from node %u",
                  static_cast<unsigned long long>(page), home);
    ++migrations_;
    ++migrations_in_flight_;
    const std::uint64_t txn_id = next_txn_++;
    Txn &txn = txns_.insert(txn_id);
    txn.issued = now();
    txn.migration = true;
    txn.page = page;
    txn.blocksLeft = kBlocksPerPage;
    ++outstanding_;

    // The migration request itself: one secured control message.
    auto pkt = makePacket();
    pkt->txnId = txn_id;
    pkt->type = PacketType::ReadReq;
    pkt->src = id_;
    pkt->dst = home;
    pkt->addr = page * kPageBytes;
    pkt->payloadBytes = 0;
    pkt->migration = true;
    ++sends_to_[home];
    channel_.send(std::move(pkt));
}

void
Node::shootdown(std::uint64_t page)
{
    // Remap: stale translations and cached blocks of the moved page
    // are shot down locally. Translation round-robins over the CUs,
    // so any CU TLB may hold the page; each block can only be in the
    // L1 of its interleave CU.
    l2_tlb_.invalidate(page);
    if (numCus() == 0)
        return;
    for (std::uint32_t cu = 0; cu < numCus(); ++cu)
        l1_tlb_.invalidate(page, cu);
    const std::uint64_t base = page * kPageBytes;
    for (std::uint64_t a = base; a < base + kPageBytes; a += kBlockBytes)
        l1_.invalidate(a, l1Bank(a));
}

void
Node::handleDeliver(PacketPtr pkt)
{
    ++recvs_from_[pkt->src];
    if (pkt->isRequest())
        serveRequest(std::move(pkt));
    else
        completeResponse(std::move(pkt));
}

void
Node::serveRequest(PacketPtr pkt)
{
    ++served_;
    const NodeId requester = pkt->src;
    const std::uint64_t txn_id = pkt->txnId;
    const bool write = pkt->type == PacketType::WriteReq;

    if (pkt->type == PacketType::TransReq) {
        // Host IOMMU walk: fixed-latency table lookup, small reply.
        const Tick ready = now() + params_.iommuLatency +
                           params_.serviceOverhead;
        eventq().schedule(ready, [this, requester, txn_id]() {
            auto resp = makePacket();
            resp->txnId = txn_id;
            resp->type = PacketType::TransResp;
            resp->src = id_;
            resp->dst = requester;
            resp->payloadBytes = 8; // the translated entry
            ++sends_to_[requester];
            channel_.send(std::move(resp));
        });
        return;
    }

    if (pkt->migration) {
        // Stream the whole page back as a train of data blocks.
        const Bytes bytes = kPageBytes;
        Tick data_ready = mem_.access(bytes) + params_.serviceOverhead;
        if (memprot_)
            data_ready =
                memprot_->access(pkt->addr, false, data_ready);
        for (std::uint32_t b = 0; b < kBlocksPerPage; ++b) {
            // Blocks drain one per cycle once the page is read.
            const Tick send_at = data_ready + b;
            eventq().schedule(send_at, [this, requester, txn_id]() {
                auto resp = makePacket();
                resp->txnId = txn_id;
                resp->type = PacketType::ReadResp;
                resp->src = id_;
                resp->dst = requester;
                resp->payloadBytes = kBlockBytes;
                resp->migration = true;
                ++sends_to_[requester];
                channel_.send(std::move(resp));
            });
        }
        return;
    }

    const auto res = l2_.access(pkt->addr, write);
    Tick ready;
    if (res.hit) {
        ready = now() + l2_.params().hitLatency +
                params_.serviceOverhead;
    } else {
        ready = mem_.access(kBlockBytes) + params_.serviceOverhead;
        // Untrusted off-chip memory pays decryption/verification.
        if (memprot_)
            ready = memprot_->access(pkt->addr, write, ready);
    }

    eventq().schedule(ready, [this, requester, txn_id, write]() {
        auto resp = makePacket();
        resp->txnId = txn_id;
        resp->type = write ? PacketType::WriteResp
                           : PacketType::ReadResp;
        resp->src = id_;
        resp->dst = requester;
        resp->payloadBytes = write ? 0 : kBlockBytes;
        ++sends_to_[requester];
        channel_.send(std::move(resp));
    });
}

void
Node::completeResponse(PacketPtr pkt)
{
    Txn *found = txns_.find(pkt->txnId);
    MGSEC_ASSERT(found != nullptr, "response for unknown txn %llu",
                 static_cast<unsigned long long>(pkt->txnId));
    Txn &txn = *found;

    bool resume_after_migration = false;
    if (txn.migration) {
        MGSEC_ASSERT(txn.blocksLeft > 0, "extra migration block");
        if (--txn.blocksLeft > 0)
            return;
        // Page fully arrived: commit the mapping and pay the
        // driver-side shootdown before further issues.
        pt_.finishMigration(txn.page, id_);
        shootdown(txn.page);
        MGSEC_ASSERT(migrations_in_flight_ > 0, "migration underflow");
        --migrations_in_flight_;
        next_issue_tick_ = std::max(next_issue_tick_, now()) +
                           pt_.params().shootdownCycles;
        resume_after_migration = true;
    }

    if (!txn.translation)
        latency_.record(now() - txn.issued);
    txns_.erase(txn);
    MGSEC_ASSERT(outstanding_ > 0, "window underflow");
    --outstanding_;
    if (waiting_for_slot_) {
        waiting_for_slot_ = false;
        tryIssue();
    } else if (resume_after_migration) {
        // Issue was parked on the migration, not the window.
        tryIssue();
    } else {
        checkDone();
    }
}

void
Node::checkDone()
{
    if (done_ || source_ == nullptr)
        return;
    if (have_op_ || outstanding_ > 0)
        return;
    if (source_->generated() < source_->totalOps())
        return;
    done_ = true;
    finish_tick_ = now();
    if (on_done_)
        on_done_();
}

} // namespace mgsec
