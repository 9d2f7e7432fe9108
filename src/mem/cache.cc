#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace mgsec
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

Cache::Cache(const std::string &name, EventQueue &eq, CacheParams params)
    : SimObject(name, eq), params_(params)
{
    MGSEC_ASSERT(params_.blockSize > 0 && isPow2(params_.blockSize),
                 "block size must be a power of two");
    MGSEC_ASSERT(params_.assoc > 0, "associativity must be positive");
    const Bytes blocks = params_.size / params_.blockSize;
    MGSEC_ASSERT(blocks % params_.assoc == 0,
                 "size %llu not divisible into %u-way sets",
                 static_cast<unsigned long long>(params_.size),
                 params_.assoc);
    num_sets_ = static_cast<std::uint32_t>(blocks / params_.assoc);
    MGSEC_ASSERT(isPow2(num_sets_), "set count must be a power of two");
    block_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.blockSize));
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
    // The flags sit below the tag, so the tag must leave them room.
    MGSEC_ASSERT(block_shift_ + set_shift_ >= kFlagBits,
                 "need at least %u block+set index bits", kFlagBits);
    lines_.resize(blocks);

    regStat(hits_);
    regStat(misses_);
    regStat(evictions_);
    regStat(writebacks_);
}

std::uint32_t
Cache::setIndex(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr >> block_shift_) &
                                      (num_sets_ - 1));
}

std::uint64_t
Cache::cleanTagWord(std::uint64_t addr) const
{
    return ((addr >> (block_shift_ + set_shift_)) << kFlagBits) | kValid;
}

std::uint64_t
Cache::blockAddr(std::uint64_t tag, std::uint32_t set) const
{
    return ((tag << set_shift_) | set) << block_shift_;
}

Cache::AccessResult
Cache::access(std::uint64_t addr, bool write)
{
    AccessResult res;
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];

    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if ((line.tagFlags & ~kDirty) == want) {
            line.lruStamp = ++lru_clock_;
            if (write)
                line.tagFlags |= kDirty;
            ++hits_;
            res.hit = true;
            return res;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    ++misses_;
    if (victim->tagFlags & kValid) {
        ++evictions_;
        res.evicted = true;
        res.victimAddr = blockAddr(victim->tagFlags >> kFlagBits, set);
        res.victimDirty = (victim->tagFlags & kDirty) != 0;
        if (res.victimDirty)
            ++writebacks_;
    }
    victim->tagFlags = want | (write ? kDirty : 0);
    victim->lruStamp = ++lru_clock_;
    return res;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    const Line *base =
        &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((base[w].tagFlags & ~kDirty) == want)
            return true;
    }
    return false;
}

bool
Cache::invalidate(std::uint64_t addr)
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((base[w].tagFlags & ~kDirty) == want) {
            base[w] = Line{};
            return true;
        }
    }
    return false;
}

} // namespace mgsec
