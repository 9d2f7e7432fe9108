#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mgsec
{

Tlb::Tlb(const std::string &name, EventQueue &eq, TlbParams params)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.entries > 0, "TLB needs entries");
    MGSEC_ASSERT(params_.entries < kNone,
                 "%u TLB entries: slot numbers are 16-bit, at most %u",
                 params_.entries, kNone - 1u);
    pages_.resize(params_.entries);
    links_.resize(params_.entries);
    // Load factor at most 1/2 keeps linear-probing runs short.
    const std::uint64_t buckets = std::bit_ceil(2ull * params_.entries);
    index_shift_ = static_cast<std::uint32_t>(
        64 - std::countr_zero(buckets));
    index_.resize(buckets);
    flush();
    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
}

std::uint32_t
Tlb::bucketOf(std::uint64_t page) const
{
    // Fibonacci hashing: the top bits of page * 2^64/phi.
    return static_cast<std::uint32_t>(
        (page * 0x9e3779b97f4a7c15ull) >> index_shift_);
}

std::uint32_t
Tlb::probe(std::uint64_t page) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(index_.size() - 1);
    std::uint32_t pos = bucketOf(page);
    while (index_[pos] != kNone && pages_[index_[pos]] != page)
        pos = (pos + 1) & mask;
    return pos;
}

void
Tlb::eraseIndex(std::uint32_t pos)
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(index_.size() - 1);
    std::uint32_t hole = pos;
    for (std::uint32_t j = (pos + 1) & mask; index_[j] != kNone;
         j = (j + 1) & mask) {
        const std::uint32_t home = bucketOf(pages_[index_[j]]);
        // The entry may fill the hole only if the hole lies on its
        // probe path, i.e. between its home bucket and j.
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = kNone;
}

void
Tlb::unlink(SlotId slot)
{
    const SlotId p = links_[slot].prev;
    const SlotId n = links_[slot].next;
    (p == kNone ? head_ : links_[p].next) = n;
    (n == kNone ? tail_ : links_[n].prev) = p;
}

void
Tlb::pushFront(SlotId slot)
{
    links_[slot] = Links{kNone, head_};
    (head_ == kNone ? tail_ : links_[head_].prev) = slot;
    head_ = slot;
}

bool
Tlb::lookup(std::uint64_t page)
{
    std::uint32_t pos = probe(page);
    if (index_[pos] != kNone) {
        const SlotId slot = index_[pos];
        if (slot != head_) {
            unlink(slot);
            pushFront(slot);
        }
        ++hits_;
        return true;
    }
    ++misses_;
    SlotId slot;
    if (used_ >= params_.entries) {
        // The LRU slot is recycled for the new page.
        slot = tail_;
        unlink(slot);
        eraseIndex(probe(pages_[slot]));
        pos = probe(page); // the delete may have shifted the run
        ++evictions_;
    } else {
        slot = free_;
        free_ = links_[slot].next;
        ++used_;
    }
    pages_[slot] = page;
    pushFront(slot);
    index_[pos] = slot;
    return false;
}

bool
Tlb::resident(std::uint64_t page) const
{
    return index_[probe(page)] != kNone;
}

bool
Tlb::invalidate(std::uint64_t page)
{
    const std::uint32_t pos = probe(page);
    const SlotId slot = index_[pos];
    if (slot == kNone)
        return false;
    unlink(slot);
    eraseIndex(pos);
    links_[slot].next = free_;
    free_ = slot;
    --used_;
    return true;
}

void
Tlb::flush()
{
    std::fill(index_.begin(), index_.end(), kNone);
    head_ = tail_ = kNone;
    used_ = 0;
    free_ = kNone;
    for (SlotId s = static_cast<SlotId>(params_.entries); s-- > 0;) {
        links_[s].next = free_;
        free_ = s;
    }
}

} // namespace mgsec
