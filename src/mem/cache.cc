#include "mem/cache.hh"

#include <bit>
#include <numeric>

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
    MGSEC_ASSERT(params_.assoc > 0 && params_.assoc <= 256,
                 "associativity %u outside 1..256 (ranks are 8-bit)",
                 params_.assoc);
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
    tags_.resize(blocks);
    // Every set starts ranked by way: the ways fill in order, as
    // they would under "first invalid way" anyway.
    ranks_.resize(blocks);
    for (std::uint8_t *set = ranks_.data(), *end = set + blocks;
         set != end; set += params_.assoc)
        std::iota(set, set + params_.assoc, std::uint8_t{0});

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

void
Cache::touch(std::uint8_t *ranks, std::uint32_t way)
{
    const std::uint8_t r = ranks[way];
    for (std::uint32_t w = 0; w < params_.assoc; ++w)
        ranks[w] += ranks[w] < r;
    ranks[way] = 0;
}

Cache::AccessResult
Cache::access(std::uint64_t addr, bool write)
{
    AccessResult res;
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    const std::size_t first = static_cast<std::size_t>(set) * params_.assoc;
    std::uint64_t *tags = &tags_[first];
    std::uint8_t *ranks = &ranks_[first];

    std::uint32_t hole = params_.assoc; ///< first invalid way, if any
    std::uint32_t lru = 0;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((tags[w] & ~kDirty) == want) {
            if (write)
                tags[w] |= kDirty;
            touch(ranks, w);
            ++hits_;
            res.hit = true;
            return res;
        }
        if (!(tags[w] & kValid) && hole == params_.assoc)
            hole = w;
        if (ranks[w] == params_.assoc - 1)
            lru = w;
    }

    ++misses_;
    const std::uint32_t victim = hole != params_.assoc ? hole : lru;
    const std::uint64_t old = tags[victim];
    if (old & kValid) {
        ++evictions_;
        res.evicted = true;
        res.victimAddr = blockAddr(old >> kFlagBits, set);
        res.victimDirty = (old & kDirty) != 0;
        if (res.victimDirty)
            ++writebacks_;
    }
    tags[victim] = want | (write ? kDirty : 0);
    touch(ranks, victim);
    return res;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    const std::uint64_t *tags =
        &tags_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((tags[w] & ~kDirty) == want)
            return true;
    }
    return false;
}

bool
Cache::invalidate(std::uint64_t addr)
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t want = cleanTagWord(addr);
    std::uint64_t *tags =
        &tags_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if ((tags[w] & ~kDirty) == want) {
            // The way keeps its rank: a hole is the victim whatever
            // its rank, and the next fill makes it the youngest.
            tags[w] = 0;
            return true;
        }
    }
    return false;
}

} // namespace mgsec
