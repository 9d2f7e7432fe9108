#include "secure/batching.hh"

#include "sim/debug.hh"
#include "sim/latency_attr.hh"
#include "sim/logging.hh"

namespace mgsec
{

// ---------------------------------------------------------- BatchAssembler

BatchAssembler::BatchAssembler(const std::string &name, EventQueue &eq,
                               std::uint32_t num_nodes,
                               std::uint32_t batch_size,
                               Cycles idle_timeout, FlushFn flush)
    : SimObject(name, eq), batch_size_(batch_size),
      idle_timeout_(idle_timeout), flush_(std::move(flush)),
      open_(num_nodes)
{
    MGSEC_ASSERT(batch_size_ >= kMinBatchSize &&
                     batch_size_ <= kMaxBatchSize,
                 "batch size %u out of range", batch_size_);
    regStat(opened_);
    regStat(closed_full_);
    regStat(flushed_);
}

void
BatchAssembler::armTimeout(NodeId dst)
{
    Open &b = open_[dst];
    if (b.timeout.valid())
        eventq().cancel(b.timeout);
    b.timeout = eventq().scheduleIn(idle_timeout_, [this, dst]() {
        flushDst(dst);
    });
}

void
BatchAssembler::flushDst(NodeId dst)
{
    Open &b = open_[dst];
    if (!b.active)
        return;
    ++flushed_;
    MGSEC_DPRINTF(debug::Batch, "flush batch %llu to %u at %u",
                  static_cast<unsigned long long>(b.id), dst,
                  b.count);
    const std::uint64_t id = b.id;
    const std::uint8_t count = b.count;
    b.active = false;
    b.timeout = EventId{};
    if (flush_)
        flush_(dst, id, count);
}

BatchTag
BatchAssembler::onSend(NodeId dst)
{
    Open &b = open_[dst];
    BatchTag tag;
    if (!b.active) {
        b.active = true;
        b.id = next_id_++;
        b.count = 0;
        ++opened_;
        tag.first = true;
        tag.declaredLen = static_cast<std::uint8_t>(batch_size_);
    }
    ++b.count;
    tag.batchId = b.id;
    if (b.count >= batch_size_) {
        tag.last = true;
        ++closed_full_;
        b.active = false;
        if (b.timeout.valid()) {
            eventq().cancel(b.timeout);
            b.timeout = EventId{};
        }
    } else {
        armTimeout(dst);
    }
    return tag;
}

void
BatchAssembler::drain()
{
    for (NodeId d = 0; d < open_.size(); ++d) {
        if (open_[d].active) {
            if (open_[d].timeout.valid()) {
                eventq().cancel(open_[d].timeout);
                open_[d].timeout = EventId{};
            }
            flushDst(d);
        }
    }
}

// ----------------------------------------------------------- MsgMacStorage

MsgMacStorage::MsgMacStorage(const std::string &name, EventQueue &eq,
                             std::uint32_t num_nodes,
                             std::uint32_t per_peer_cap,
                             CompleteFn complete)
    : SimObject(name, eq), per_peer_cap_(per_peer_cap),
      complete_(std::move(complete)), pending_(num_nodes)
{
    regStat(overflow_);
    regStat(complete_count_);
    regStat(peak_);
}

std::uint32_t
MsgMacStorage::occupancy(NodeId src) const
{
    std::uint32_t n = 0;
    pending_.forEach(src, [&n](const Pending &p) { n += p.received; });
    return n;
}

void
MsgMacStorage::maybeComplete(NodeId src, std::uint64_t batch_id)
{
    const Pending *p = pending_.find(src, batch_id);
    if (p == nullptr || !p->trailer || p->expected == 0 ||
        p->received < p->expected)
        return;
    if (LatencyAttribution *attr = eventq().attribution()) {
        // How long the first member's MAC sat parked before its
        // batch verdict (a trailer-only batch has no member yet).
        if (p->firstTick != 0)
            attr->recordBatchClose(now() - p->firstTick);
    }
    pending_.close(src, batch_id);
    ++complete_count_;
    if (complete_)
        complete_(src, batch_id);
}

void
MsgMacStorage::onData(NodeId src, std::uint64_t batch_id,
                      std::uint8_t declared_len, bool has_trailer)
{
    Pending &p = pending_.open(src, batch_id);
    if (p.received == 0)
        p.firstTick = now();
    ++p.received;
    if (declared_len != 0)
        p.declared = declared_len;
    if (has_trailer) {
        // The in-band trailer rides the batch's final message, so
        // the batch closed at its declared size.
        p.trailer = true;
        p.expected = p.declared != 0 ? p.declared : p.received;
    }
    const std::uint32_t occ = occupancy(src);
    if (occ > per_peer_cap_)
        ++overflow_;
    if (static_cast<double>(occ) > peak_.value())
        peak_.set(static_cast<double>(occ));
    maybeComplete(src, batch_id);
}

void
MsgMacStorage::onTrailer(NodeId src, std::uint64_t batch_id,
                         std::uint8_t count)
{
    Pending &p = pending_.open(src, batch_id);
    p.trailer = true;
    p.expected = count;
    maybeComplete(src, batch_id);
}

} // namespace mgsec
