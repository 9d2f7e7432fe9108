/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * A functional tag array: it answers hit/miss and performs fills and
 * evictions; latency is applied by the callers (the GPU model), which
 * matches how the paper's Table III caches contribute to the remote
 * access path.
 */

#ifndef MGSEC_MEM_CACHE_HH
#define MGSEC_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

/** Cache geometry. */
struct CacheParams
{
    Bytes size = 2 * 1024 * 1024;
    std::uint32_t assoc = 16;
    Bytes blockSize = kBlockBytes;
    Cycles hitLatency = 1;
};

class Cache : public SimObject
{
  public:
    Cache(const std::string &name, EventQueue &eq, CacheParams params);

    /** Result of an access. */
    struct AccessResult
    {
        bool hit = false;
        bool evicted = false;       ///< a valid victim was replaced
        std::uint64_t victimAddr = 0; ///< block address of the victim
        bool victimDirty = false;
    };

    /**
     * Access a byte address; on a miss the block is filled (with LRU
     * eviction).
     * @param write marks the block dirty on hit or fill.
     */
    AccessResult access(std::uint64_t addr, bool write);

    /** Probe without side effects. */
    bool contains(std::uint64_t addr) const;

    /** Invalidate one block (e.g., page migrated away). */
    bool invalidate(std::uint64_t addr);

    /** Invalidate every block inside [base, base+len). */
    std::uint32_t invalidateRange(std::uint64_t base, Bytes len);

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return num_sets_; }

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_.value());
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint32_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
    std::uint64_t blockAddr(std::uint64_t tag, std::uint32_t set) const;

    CacheParams params_;
    std::uint32_t num_sets_;
    /** log2 of blockSize and num_sets_: index math is shifts. */
    std::uint32_t block_shift_ = 0;
    std::uint32_t set_shift_ = 0;
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;

    stats::Scalar hits_{"hits", "cache hits"};
    stats::Scalar misses_{"misses", "cache misses"};
    stats::Scalar evictions_{"evictions", "valid lines replaced"};
    stats::Scalar writebacks_{"writebacks", "dirty lines evicted"};
};

} // namespace mgsec

#endif // MGSEC_MEM_CACHE_HH
