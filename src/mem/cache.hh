/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * A functional tag array: it answers hit/miss and performs fills and
 * evictions; latency is applied by the callers (the GPU model), which
 * matches how the paper's Table III caches contribute to the remote
 * access path.
 *
 * Host layout: a line is 9 bytes in two flat arrays of sets, one
 * tag word {tag << 2 | dirty | valid} and one recency rank. The ranks
 * of a set are a permutation of 0..assoc-1, 0 the most recently used:
 * a hit or a fill moves its way to rank 0 and ages every younger way
 * by one. The victim is the first invalid way if there is one, else
 * the way of rank assoc-1, the least recently used. A rank only
 * orders ways: an invalidated way keeps its rank, and every valid way
 * has been touched since its fill, so among valid ways the ranks
 * order exactly by last access.
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
    std::uint64_t evictions() const
    {
        return static_cast<std::uint64_t>(evictions_.value());
    }
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(writebacks_.value());
    }

  private:
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr std::uint32_t kFlagBits = 2;

    std::uint32_t setIndex(std::uint64_t addr) const;
    /** The tag word of a valid, clean line holding @p addr. */
    std::uint64_t cleanTagWord(std::uint64_t addr) const;
    std::uint64_t blockAddr(std::uint64_t tag, std::uint32_t set) const;
    /** Make @p way of the set at @p ranks the most recently used. */
    void touch(std::uint8_t *ranks, std::uint32_t way);

    CacheParams params_;
    std::uint32_t num_sets_;
    /** log2 of blockSize and num_sets_: index math is shifts. */
    std::uint32_t block_shift_ = 0;
    std::uint32_t set_shift_ = 0;
    /** Per line, set-major: tag << kFlagBits | kDirty | kValid. */
    std::vector<std::uint64_t> tags_;
    /** Per line, set-major: the way's recency rank in its set. */
    std::vector<std::uint8_t> ranks_;

    stats::Scalar hits_{"hits", "cache hits"};
    stats::Scalar misses_{"misses", "cache misses"};
    stats::Scalar evictions_{"evictions", "valid lines replaced"};
    stats::Scalar writebacks_{"writebacks", "dirty lines evicted"};
};

} // namespace mgsec

#endif // MGSEC_MEM_CACHE_HH
