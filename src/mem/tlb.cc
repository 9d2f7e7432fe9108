#include "mem/tlb.hh"

#include "sim/logging.hh"

namespace mgsec
{

Tlb::Tlb(const std::string &name, EventQueue &eq, TlbParams params)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.entries > 0, "TLB needs entries");
    // Sized for a full TLB up front so lookups never rehash mid-run.
    map_.reserve(params_.entries);
    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
}

bool
Tlb::lookup(std::uint64_t page)
{
    auto it = map_.find(page);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return true;
    }
    ++misses_;
    if (lru_.size() >= params_.entries) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
        ++evictions_;
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
    return false;
}

bool
Tlb::resident(std::uint64_t page) const
{
    return map_.find(page) != map_.end();
}

bool
Tlb::invalidate(std::uint64_t page)
{
    auto it = map_.find(page);
    if (it == map_.end())
        return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
}

void
Tlb::flush()
{
    lru_.clear();
    map_.clear();
}

} // namespace mgsec
