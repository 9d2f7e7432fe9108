#include "secure/pad_table.hh"

#include <algorithm>
#include <cmath>

#include "sim/debug.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace mgsec
{

OtpStats &
OtpStats::operator+=(const OtpStats &o)
{
    for (std::size_t d = 0; d < kNumDirections; ++d) {
        for (std::size_t k = 0; k < kNumOutcomes; ++k)
            counts[d][k] += o.counts[d][k];
        exposedCycles[d] += o.exposedCycles[d];
    }
    return *this;
}

PadTable::PadTable(const std::string &name, EventQueue &eq, NodeId self,
                   std::uint32_t num_nodes,
                   std::uint32_t total_entries, Cycles latency)
    : SimObject(name, eq), self_(self), num_nodes_(num_nodes),
      total_entries_(total_entries), latency_(latency)
{
    MGSEC_ASSERT(num_nodes_ >= 2 && self_ < num_nodes_,
                 "bad pad table topology");
    MGSEC_ASSERT(latency_ > 0, "AES latency must be positive");
    regStat(send_hits_);
    regStat(send_partials_);
    regStat(send_misses_);
    regStat(recv_hits_);
    regStat(recv_partials_);
    regStat(recv_misses_);
}

void
PadTable::record(Direction d, OtpOutcome o, Tick ready)
{
    const auto di = static_cast<std::size_t>(d);
    otp_stats_.counts[di][static_cast<std::size_t>(o)] += 1;
    const Tick t = now();
    if (ready > t)
        otp_stats_.exposedCycles[di] += static_cast<double>(ready - t);

    if (o == OtpOutcome::Miss) {
        if (TraceSink *ts = eventq().traceSink()) {
            ts->instant(self_, "pad",
                        d == Direction::Send ? "sendMiss" : "recvMiss",
                        t);
        }
    }

    if (d == Direction::Send) {
        switch (o) {
          case OtpOutcome::Hit:
            ++send_hits_;
            break;
          case OtpOutcome::Partial:
            ++send_partials_;
            break;
          case OtpOutcome::Miss:
            ++send_misses_;
            break;
        }
    } else {
        switch (o) {
          case OtpOutcome::Hit:
            ++recv_hits_;
            break;
          case OtpOutcome::Partial:
            ++recv_partials_;
            break;
          case OtpOutcome::Miss:
            ++recv_misses_;
            break;
        }
    }
}

// ---------------------------------------------------------------- Private

PrivatePadTable::PrivatePadTable(const std::string &name,
                                 EventQueue &eq, NodeId self,
                                 std::uint32_t num_nodes,
                                 std::uint32_t total_entries,
                                 Cycles latency)
    : PadTable(name, eq, self, num_nodes, total_entries, latency),
      send_pipes_(num_nodes), recv_pipes_(num_nodes)
{
    const std::uint32_t peers = num_nodes_ - 1;
    // Scale-out guard: the floor of one staged pad per (peer,
    // direction) pipe already consumes 2*peers entries, so a table
    // configured smaller would silently hold more pads than its
    // nominal capacity — exactly the sizing bug that shows up first
    // at 64 GPUs, where peers outgrow a 4-GPU-tuned pool.
    MGSEC_ASSERT(total_entries_ >= 2 * peers,
                 "OTP table of %u entries cannot cover %u peers",
                 total_entries_, peers);
    quota_per_pair_ =
        std::max<std::uint32_t>(1, total_entries_ / (peers * 2));
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        send_pipes_[p].init(now(), latency_, quota_per_pair_, 0);
        recv_pipes_[p].init(now(), latency_, quota_per_pair_, 0);
    }
}

SendGrant
PrivatePadTable::acquireSend(NodeId dst)
{
    MGSEC_ASSERT(dst < num_nodes_ && dst != self_, "bad dst %u", dst);
    PadPipeline &pipe = send_pipes_[dst];
    const auto c = pipe.claim(now());
    const OtpOutcome o = PadPipeline::classify(now(), c.ready, latency_);
    record(Direction::Send, o, c.ready);
    return SendGrant{c.ctr, o, c.ready};
}

RecvGrant
PrivatePadTable::acquireRecv(NodeId src, std::uint64_t ctr, bool)
{
    MGSEC_ASSERT(src < num_nodes_ && src != self_, "bad src %u", src);
    PadPipeline &pipe = recv_pipes_[src];
    if (pipe.nextCtr() != ctr) {
        // Counter discontinuity: staged pads are for the wrong
        // counters; restart the pipeline at the arriving counter.
        pipe.resync(now(), ctr);
    }
    const auto c = pipe.claim(now());
    MGSEC_ASSERT(c.ctr == ctr, "recv counter skew");
    const OtpOutcome o = PadPipeline::classify(now(), c.ready, latency_);
    record(Direction::Recv, o, c.ready);
    return RecvGrant{o, c.ready};
}

// ----------------------------------------------------------------- Shared

SharedPadTable::SharedPadTable(const std::string &name, EventQueue &eq,
                               NodeId self, std::uint32_t num_nodes,
                               std::uint32_t total_entries,
                               Cycles latency)
    : PadTable(name, eq, self, num_nodes, total_entries, latency),
      recv_slots_(num_nodes)
{
}

SendGrant
SharedPadTable::acquireSend(NodeId dst)
{
    MGSEC_ASSERT(dst < num_nodes_ && dst != self_, "bad dst %u", dst);
    const std::uint64_t ctr = send_ctr_++;

    Tick ready;
    if (dst == last_dst_) {
        // The single slot pre-generated for (ctr, last_dst_).
        ready = send_slot_ready_;
    } else {
        // Wrong destination baked into the staged pad: regenerate.
        ready = now() + latency_;
    }
    const OtpOutcome o = PadPipeline::classify(now(), ready, latency_);
    record(Direction::Send, o, ready);

    // The slot re-arms for (ctr + 1, dst) once this pad is consumed.
    const Tick claim_time = std::max(now(), ready);
    send_slot_ready_ = claim_time + latency_;
    last_dst_ = dst;
    return SendGrant{ctr, o, ready};
}

RecvGrant
SharedPadTable::acquireRecv(NodeId src, std::uint64_t ctr, bool)
{
    MGSEC_ASSERT(src < num_nodes_ && src != self_, "bad src %u", src);
    RecvSlot &slot = recv_slots_[src];

    Tick ready;
    if (slot.primed && slot.expectCtr == ctr) {
        ready = slot.ready;
    } else {
        // The sender's global counter advanced while it talked to
        // other processors; the staged pad is useless.
        ready = now() + latency_;
    }
    const OtpOutcome o = PadPipeline::classify(now(), ready, latency_);
    record(Direction::Recv, o, ready);

    const Tick claim_time = std::max(now(), ready);
    slot.primed = true;
    slot.expectCtr = ctr + 1;
    slot.ready = claim_time + latency_;
    return RecvGrant{o, ready};
}

std::uint32_t
SharedPadTable::padQuota(NodeId peer, Direction d) const
{
    if (d == Direction::Send)
        return peer == last_dst_ ? 1 : 0;
    return recv_slots_[peer].primed ? 1 : 0;
}

std::uint32_t
SharedPadTable::padsReady(NodeId peer, Direction d, Tick now) const
{
    if (d == Direction::Send)
        return peer == last_dst_ && send_slot_ready_ <= now ? 1 : 0;
    const RecvSlot &slot = recv_slots_[peer];
    return slot.primed && slot.ready <= now ? 1 : 0;
}

// ----------------------------------------------------------------- Cached

CachedPadTable::CachedPadTable(const std::string &name, EventQueue &eq,
                               NodeId self, std::uint32_t num_nodes,
                               std::uint32_t total_entries,
                               Cycles latency)
    : PadTable(name, eq, self, num_nodes, total_entries, latency),
      pairs_(static_cast<std::size_t>(num_nodes) * kNumDirections),
      send_ctrs_(num_nodes, 0), free_entries_(total_entries),
      pair_cap_(std::max<std::uint32_t>(
          2, (3 * total_entries) / (4 * (num_nodes - 1))))
{
    MGSEC_ASSERT(total_entries_ > 0, "cached table needs entries");
}

std::uint32_t
CachedPadTable::owned(NodeId peer, Direction d) const
{
    return static_cast<std::uint32_t>(pairs_[keyOf(peer, d)]
                                          .ready.size());
}

std::uint32_t
CachedPadTable::padsReady(NodeId peer, Direction d, Tick now) const
{
    std::uint32_t n = 0;
    for (Tick t : pairs_[keyOf(peer, d)].ready)
        n += t <= now ? 1 : 0;
    return n;
}

Tick
CachedPadTable::claimFrom(PairState &ps, Tick now)
{
    const Tick ready = ps.ready.front();
    ps.ready.pop_front();
    const Tick claim_time = std::max(now, ready);
    ps.ready.push_back(claim_time + latency_);
    ++ps.frontCtr;
    ++ps.nextGenCtr;
    return ready;
}

bool
CachedPadTable::grabEntry(std::size_t for_key)
{
    if (free_entries_ > 0) {
        --free_entries_;
        return true;
    }
    return stealEntry(for_key);
}

bool
CachedPadTable::stealEntry(std::size_t for_key)
{
    std::size_t victim = pairs_.size();
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
        if (k == for_key || pairs_[k].ready.empty())
            continue;
        if (victim == pairs_.size() ||
            pairs_[k].lastUse < pairs_[victim].lastUse) {
            victim = k;
        }
    }
    if (victim == pairs_.size())
        return false;
    // Drop the victim's highest-counter pad (the least useful one).
    pairs_[victim].ready.pop_back();
    --pairs_[victim].nextGenCtr;
    return true;
}

SendGrant
CachedPadTable::acquireSend(NodeId dst)
{
    MGSEC_ASSERT(dst < num_nodes_ && dst != self_, "bad dst %u", dst);
    const std::size_t key = keyOf(dst, Direction::Send);
    PairState &ps = pairs_[key];
    ps.lastUse = ++lru_clock_;
    const std::uint64_t ctr = send_ctrs_[dst]++;

    if (!ps.ready.empty()) {
        MGSEC_ASSERT(ps.frontCtr == ctr, "cached send counter skew");
        // Demand outpacing this pair's slots by a full generation
        // latency: widen it by stealing the LRU victim's slot (this
        // is what lets Cached adapt to hot pairs). The pad cache is
        // set-associative (one pair cannot hoard the whole pool) and
        // the allocation FSM re-tags at most one entry per pair per
        // couple of generation latencies.
        if (ps.ready.front() >= now() + latency_ &&
            ps.ready.size() < pair_cap_ &&
            now() >= ps.lastGrow + 2 * latency_ && grabEntry(key) &&
            (ps.lastGrow = now(), true))
            ps.ready.push_back(now() + latency_);
        const Tick ready = claimFrom(ps, now());
        const OtpOutcome o =
            PadPipeline::classify(now(), ready, latency_);
        record(Direction::Send, o, ready);
        return SendGrant{ctr, o, ready};
    }

    // Pool miss: grab a free entry or steal the LRU pair's slot,
    // generate this pad on demand in it, then leave the entry staged
    // for the pair's next counter.
    const bool have_entry = grabEntry(key);
    const Tick ready = now() + latency_;
    record(Direction::Send, OtpOutcome::Miss, ready);
    if (have_entry) {
        ps.frontCtr = ctr + 1;
        ps.nextGenCtr = ctr + 2;
        ps.ready.push_back(ready + latency_);
    }
    return SendGrant{ctr, OtpOutcome::Miss, ready};
}

RecvGrant
CachedPadTable::acquireRecv(NodeId src, std::uint64_t ctr,
                            bool sender_fallback)
{
    MGSEC_ASSERT(src < num_nodes_ && src != self_, "bad src %u", src);
    const std::size_t key = keyOf(src, Direction::Recv);
    PairState &ps = pairs_[key];
    ps.lastUse = ++lru_clock_;

    if (sender_fallback) {
        // The sender generated this pad outside the pre-generated
        // stream (Shared-style max-counter fallback): whatever we
        // staged cannot match, and the stream interleave also breaks
        // the counter prediction behind it, so the whole staged
        // pipeline restarts.
        const Tick ready = now() + latency_;
        if (!ps.ready.empty() && ps.frontCtr == ctr) {
            for (std::size_t i = 0; i < ps.ready.size(); ++i)
                ps.ready[i] = ready + latency_;
            claimFrom(ps, now());
        } else if (ps.ready.empty() && grabEntry(key)) {
            ps.frontCtr = ctr + 1;
            ps.nextGenCtr = ctr + 2;
            ps.ready.push_back(ready + latency_);
        }
        record(Direction::Recv, OtpOutcome::Miss, ready);
        return RecvGrant{OtpOutcome::Miss, ready};
    }

    if (!ps.ready.empty() && ps.frontCtr == ctr) {
        if (ps.ready.front() >= now() + latency_ &&
            ps.ready.size() < pair_cap_ &&
            now() >= ps.lastGrow + 2 * latency_ && grabEntry(key) &&
            (ps.lastGrow = now(), true))
            ps.ready.push_back(now() + latency_);
        const Tick ready = claimFrom(ps, now());
        const OtpOutcome o =
            PadPipeline::classify(now(), ready, latency_);
        record(Direction::Recv, o, ready);
        return RecvGrant{o, ready};
    }

    if (!ps.ready.empty()) {
        // Counter jump: every staged pad restarts at the new stream.
        for (std::size_t i = 0; i < ps.ready.size(); ++i)
            ps.ready[i] = now() + latency_;
        ps.frontCtr = ctr;
        ps.nextGenCtr = ctr + static_cast<std::uint64_t>(
                                  ps.ready.size());
        const Tick ready = claimFrom(ps, now());
        record(Direction::Recv, OtpOutcome::Miss, ready);
        return RecvGrant{OtpOutcome::Miss, ready};
    }

    const bool have_entry = grabEntry(key);
    const Tick ready = now() + latency_;
    record(Direction::Recv, OtpOutcome::Miss, ready);
    if (have_entry) {
        ps.frontCtr = ctr + 1;
        ps.nextGenCtr = ctr + 2;
        ps.ready.push_back(ready + latency_);
    }
    return RecvGrant{OtpOutcome::Miss, ready};
}

// ---------------------------------------------------------------- Dynamic

DynamicPadTable::DynamicPadTable(const std::string &name,
                                 EventQueue &eq, NodeId self,
                                 std::uint32_t num_nodes,
                                 std::uint32_t total_entries,
                                 Cycles latency, Params params)
    : PrivatePadTable(name, eq, self, num_nodes, total_entries,
                      latency),
      params_(params), sreq_peer_(num_nodes, 0),
      rreq_peer_(num_nodes, 0), s_peer_weight_(num_nodes, 0.0),
      r_peer_weight_(num_nodes, 0.0)
{
    MGSEC_ASSERT(params_.interval > 0, "bad adjustment interval");
    MGSEC_ASSERT(params_.alpha >= 0.0 && params_.alpha <= 1.0 &&
                     params_.beta >= 0.0 && params_.beta <= 1.0,
                 "EWMA weights must be in [0, 1]");
    const double even = 1.0 / static_cast<double>(num_nodes_ - 1);
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        s_peer_weight_[p] = even;
        r_peer_weight_[p] = even;
    }
    applied_s_peer_ = s_peer_weight_;
    applied_r_peer_ = r_peer_weight_;
    regStat(adjustments_);
    scheduleNext();
}

void
DynamicPadTable::scheduleNext()
{
    eventq().scheduleIn(params_.interval, [this]() {
        adjust();
        scheduleNext();
    });
}

SendGrant
DynamicPadTable::acquireSend(NodeId dst)
{
    ++sreq_;
    ++sreq_peer_[dst];
    return PrivatePadTable::acquireSend(dst);
}

RecvGrant
DynamicPadTable::acquireRecv(NodeId src, std::uint64_t ctr,
                             bool sender_fallback)
{
    ++rreq_;
    ++rreq_peer_[src];
    return PrivatePadTable::acquireRecv(src, ctr, sender_fallback);
}

std::uint32_t
DynamicPadTable::quota(NodeId peer, Direction d) const
{
    return d == Direction::Send ? send_pipes_[peer].quota()
                                : recv_pipes_[peer].quota();
}

std::vector<std::uint32_t>
DynamicPadTable::partition(std::uint32_t total,
                           const std::vector<double> &weights) const
{
    const std::uint32_t peers = num_nodes_ - 1;
    MGSEC_ASSERT(total >= peers, "cannot give every pair an entry");
    std::vector<std::uint32_t> out(num_nodes_, 0);

    double wsum = 0.0;
    for (NodeId p = 0; p < num_nodes_; ++p)
        if (p != self_)
            wsum += weights[p];

    // One guaranteed entry per pair (even a cold pair still sees
    // occasional bursts, and on-demand generation serializes); the
    // surplus follows the weights with largest-remainder rounding.
    const std::uint32_t surplus = total - peers;
    std::vector<std::pair<double, NodeId>> rema;
    std::uint32_t given = 0;
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        const double share = wsum > 0.0
            ? weights[p] / wsum * static_cast<double>(surplus)
            : static_cast<double>(surplus) / peers;
        const auto fl = static_cast<std::uint32_t>(share);
        out[p] = 1 + fl;
        given += fl;
        rema.emplace_back(share - static_cast<double>(fl), p);
    }
    std::sort(rema.begin(), rema.end(), [](const auto &a,
                                           const auto &b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;
    });
    for (std::size_t i = 0; given < surplus && i < rema.size(); ++i) {
        ++out[rema[i].second];
        ++given;
    }
    MGSEC_ASSERT(given == surplus, "partition accounting error");
    return out;
}

void
DynamicPadTable::adjust()
{
    const std::uint64_t total = sreq_ + rreq_;
    if (total > 0) {
        // Confidence scaling: an interval carrying few messages is a
        // noisy ratio estimate, so it moves the EWMA proportionally
        // less. Dense intervals (the common case on a real GPU's
        // traffic volume) use the paper's alpha/beta unchanged.
        auto confide = [](double w, std::uint64_t n,
                          std::uint32_t scale) {
            const double c = static_cast<double>(n) /
                             (static_cast<double>(n) +
                              static_cast<double>(scale));
            return w * c;
        };
        // Formula 1: direction weight.
        const double a =
            confide(params_.alpha, total, params_.confidenceDir);
        s_weight_ = (1.0 - a) * s_weight_ +
                    a * (static_cast<double>(sreq_) /
                         static_cast<double>(total));
        // Formula 3: per-destination weights, one EWMA per peer.
        const double bs =
            confide(params_.beta, sreq_, params_.confidencePeer);
        const double br =
            confide(params_.beta, rreq_, params_.confidencePeer);
        for (NodeId p = 0; p < num_nodes_; ++p) {
            if (p == self_)
                continue;
            if (sreq_ > 0) {
                s_peer_weight_[p] =
                    (1.0 - bs) * s_peer_weight_[p] +
                    bs * (static_cast<double>(sreq_peer_[p]) /
                          static_cast<double>(sreq_));
            }
            if (rreq_ > 0) {
                r_peer_weight_[p] =
                    (1.0 - br) * r_peer_weight_[p] +
                    br * (static_cast<double>(rreq_peer_[p]) /
                          static_cast<double>(rreq_));
            }
        }
    }

    if (TraceSink *ts = eventq().traceSink())
        ts->counter(self_, "ewma", "S", now(), s_weight_);

    // Re-partitioning throws away staged pads in every resized
    // pipe, so only act when the traffic picture actually moved:
    // rounding noise on stable traffic must not churn the tables.
    double drift = std::abs(s_weight_ - applied_s_);
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        drift = std::max(drift,
                         std::abs(s_peer_weight_[p] -
                                  applied_s_peer_[p]));
        drift = std::max(drift,
                         std::abs(r_peer_weight_[p] -
                                  applied_r_peer_[p]));
    }
    if (drift >= kDriftThreshold) {
        // Formula 2: split the pool between directions; every pair
        // keeps at least one entry in each direction.
        const std::uint32_t peers = num_nodes_ - 1;
        auto spad = static_cast<std::uint32_t>(std::lround(
            static_cast<double>(total_entries_) * s_weight_));
        spad = std::clamp(spad, peers, total_entries_ - peers);
        const std::uint32_t rpad = total_entries_ - spad;

        // Formula 4: per-destination split inside each direction.
        const auto squota = partition(spad, s_peer_weight_);
        const auto rquota = partition(rpad, r_peer_weight_);
        for (NodeId p = 0; p < num_nodes_; ++p) {
            if (p == self_)
                continue;
            send_pipes_[p].resize(now(), squota[p]);
            recv_pipes_[p].resize(now(), rquota[p]);
        }
        applied_s_ = s_weight_;
        applied_s_peer_ = s_peer_weight_;
        applied_r_peer_ = r_peer_weight_;
        if (TraceSink *ts = eventq().traceSink()) {
            ts->instant(self_, "ewma", "repartition", now(), "spad",
                        static_cast<double>(spad));
        }
        MGSEC_DPRINTF(debug::PadTable,
                      "re-partitioned: S=%.3f spad=%u", s_weight_,
                      spad);
    }

    sreq_ = 0;
    rreq_ = 0;
    std::fill(sreq_peer_.begin(), sreq_peer_.end(), 0);
    std::fill(rreq_peer_.begin(), rreq_peer_.end(), 0);
    ++adjustments_;
}

// ---------------------------------------------------------------- gauges

std::vector<std::string>
PadTable::gaugeNames(const std::string &prefix,
                     const std::vector<std::string> &node_names) const
{
    std::vector<std::string> names;
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        for (Direction d : {Direction::Send, Direction::Recv}) {
            const std::string base = prefix + ".pads." +
                directionName(d) + "." + node_names[p];
            names.push_back(base + ".quota");
            names.push_back(base + ".ready");
        }
    }
    return names;
}

double *
PadTable::readGauges(Tick now, double *out) const
{
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        for (Direction d : {Direction::Send, Direction::Recv}) {
            *out++ = static_cast<double>(padQuota(p, d));
            *out++ = static_cast<double>(padsReady(p, d, now));
        }
    }
    return out;
}

std::vector<std::string>
DynamicPadTable::gaugeNames(
    const std::string &prefix,
    const std::vector<std::string> &node_names) const
{
    std::vector<std::string> names =
        PadTable::gaugeNames(prefix, node_names);
    names.push_back(prefix + ".ewma.S");
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        for (Direction d : {Direction::Send, Direction::Recv})
            names.push_back(prefix + ".ewma." + directionName(d) +
                            "." + node_names[p]);
    }
    return names;
}

double *
DynamicPadTable::readGauges(Tick now, double *out) const
{
    out = PadTable::readGauges(now, out);
    *out++ = s_weight_;
    for (NodeId p = 0; p < num_nodes_; ++p) {
        if (p == self_)
            continue;
        *out++ = s_peer_weight_[p];
        *out++ = r_peer_weight_[p];
    }
    return out;
}

// ---------------------------------------------------------------- factory

std::unique_ptr<PadTable>
makePadTable(OtpScheme scheme, const std::string &name, EventQueue &eq,
             NodeId self, std::uint32_t num_nodes,
             std::uint32_t total_entries, Cycles latency,
             DynamicPadTable::Params dyn_params)
{
    switch (scheme) {
      case OtpScheme::Private:
        return std::make_unique<PrivatePadTable>(
            name, eq, self, num_nodes, total_entries, latency);
      case OtpScheme::Shared:
        return std::make_unique<SharedPadTable>(
            name, eq, self, num_nodes, total_entries, latency);
      case OtpScheme::Cached:
        return std::make_unique<CachedPadTable>(
            name, eq, self, num_nodes, total_entries, latency);
      case OtpScheme::Dynamic:
        return std::make_unique<DynamicPadTable>(
            name, eq, self, num_nodes, total_entries, latency,
            dyn_params);
      case OtpScheme::Unsecure:
        break;
    }
    panic("no pad table for scheme %s", otpSchemeName(scheme));
}

} // namespace mgsec
