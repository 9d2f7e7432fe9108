#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mgsec
{

Tlb::Tlb(const std::string &name, EventQueue &eq, TlbParams params,
         std::uint32_t banks)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.entries > 0, "TLB needs entries");
    MGSEC_ASSERT(params_.entries < kNone,
                 "%u TLB entries: slot numbers are 16-bit, at most %u",
                 params_.entries, kNone - 1u);
    const std::size_t slots =
        static_cast<std::size_t>(params_.entries) * banks;
    pages_.resize(slots);
    links_.resize(slots);
    banks_.resize(banks);
    // Load factor at most 1/2 keeps linear-probing runs short.
    bank_buckets_ =
        static_cast<std::uint32_t>(std::bit_ceil(2ull * params_.entries));
    index_shift_ = static_cast<std::uint32_t>(
        64 - std::countr_zero(bank_buckets_));
    index_.resize(static_cast<std::size_t>(bank_buckets_) * banks);
    flush();
    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
}

Tlb::Run
Tlb::run(std::uint32_t bank)
{
    const std::size_t slot0 =
        static_cast<std::size_t>(bank) * params_.entries;
    return Run{banks_[bank], pages_.data() + slot0, links_.data() + slot0,
               index_.data() +
                   static_cast<std::size_t>(bank) * bank_buckets_};
}

std::uint32_t
Tlb::bucketOf(std::uint64_t page) const
{
    // Fibonacci hashing: the top bits of page * 2^64/phi.
    return static_cast<std::uint32_t>(
        (page * 0x9e3779b97f4a7c15ull) >> index_shift_);
}

std::uint32_t
Tlb::probe(const std::uint64_t *pages, const SlotId *index,
           std::uint64_t page) const
{
    const std::uint32_t mask = bank_buckets_ - 1;
    std::uint32_t pos = bucketOf(page);
    while (index[pos] != kNone && pages[index[pos]] != page)
        pos = (pos + 1) & mask;
    return pos;
}

void
Tlb::eraseIndex(const Run &r, std::uint32_t pos) const
{
    const std::uint32_t mask = bank_buckets_ - 1;
    std::uint32_t hole = pos;
    for (std::uint32_t j = (pos + 1) & mask; r.index[j] != kNone;
         j = (j + 1) & mask) {
        const std::uint32_t home = bucketOf(r.pages[r.index[j]]);
        // The entry may fill the hole only if the hole lies on its
        // probe path, i.e. between its home bucket and j.
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            r.index[hole] = r.index[j];
            hole = j;
        }
    }
    r.index[hole] = kNone;
}

void
Tlb::unlink(const Run &r, SlotId slot)
{
    const SlotId p = r.links[slot].prev;
    const SlotId n = r.links[slot].next;
    (p == kNone ? r.bank.head : r.links[p].next) = n;
    (n == kNone ? r.bank.tail : r.links[n].prev) = p;
}

void
Tlb::pushFront(const Run &r, SlotId slot)
{
    r.links[slot] = Links{kNone, r.bank.head};
    (r.bank.head == kNone ? r.bank.tail : r.links[r.bank.head].prev) =
        slot;
    r.bank.head = slot;
}

bool
Tlb::lookup(std::uint64_t page, std::uint32_t bank)
{
    const Run r = run(bank);
    std::uint32_t pos = probe(r.pages, r.index, page);
    if (r.index[pos] != kNone) {
        const SlotId slot = r.index[pos];
        if (slot != r.bank.head) {
            unlink(r, slot);
            pushFront(r, slot);
        }
        ++hits_;
        return true;
    }
    ++misses_;
    SlotId slot;
    if (r.bank.used >= params_.entries) {
        // The LRU slot is recycled for the new page.
        slot = r.bank.tail;
        unlink(r, slot);
        eraseIndex(r, probe(r.pages, r.index, r.pages[slot]));
        // The delete may have shifted the run.
        pos = probe(r.pages, r.index, page);
        ++evictions_;
    } else {
        slot = r.bank.free;
        r.bank.free = r.links[slot].next;
        ++r.bank.used;
    }
    r.pages[slot] = page;
    pushFront(r, slot);
    r.index[pos] = slot;
    return false;
}

bool
Tlb::resident(std::uint64_t page, std::uint32_t bank) const
{
    const std::uint64_t *pages =
        pages_.data() + static_cast<std::size_t>(bank) * params_.entries;
    const SlotId *index =
        index_.data() + static_cast<std::size_t>(bank) * bank_buckets_;
    return index[probe(pages, index, page)] != kNone;
}

bool
Tlb::invalidate(std::uint64_t page, std::uint32_t bank)
{
    const Run r = run(bank);
    const std::uint32_t pos = probe(r.pages, r.index, page);
    const SlotId slot = r.index[pos];
    if (slot == kNone)
        return false;
    unlink(r, slot);
    eraseIndex(r, pos);
    r.links[slot].next = r.bank.free;
    r.bank.free = slot;
    --r.bank.used;
    return true;
}

void
Tlb::flush()
{
    std::fill(index_.begin(), index_.end(), kNone);
    for (std::uint32_t b = 0; b < numBanks(); ++b) {
        const Run r = run(b);
        r.bank = Bank{};
        for (SlotId s = static_cast<SlotId>(params_.entries); s-- > 0;) {
            r.links[s].next = r.bank.free;
            r.bank.free = s;
        }
    }
}

} // namespace mgsec
