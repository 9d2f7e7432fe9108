/**
 * @file
 * Host-memory protection engine.
 *
 * The threat model (paper Sec. II-B) trusts GPU-side HBM but not the
 * CPU's off-chip DRAM, so the host runs counter-mode memory
 * encryption with an integrity tree over its protected region —
 * "scalable memory protection as proposed in PENGLAI [13]" with
 * Morphable-Counters-style [37] counter packing.
 *
 * Model: every protected DRAM block access needs its counter. A
 * counter block (64 B) packs the counters of a 4 KB data region and
 * is cached on chip; on a counter-cache miss the block is fetched
 * from DRAM and authenticated up the integrity tree until a cached
 * (trusted) level is found — each uncached level costs another DRAM
 * access plus a MAC check. The root never leaves the chip.
 */

#ifndef MGSEC_MEMSEC_MEM_PROTECT_HH
#define MGSEC_MEMSEC_MEM_PROTECT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/hbm.hh"
#include "mem/tlb.hh"
#include "sim/sim_object.hh"

namespace mgsec
{

struct MemProtectParams
{
    bool enabled = false;
    /** Bytes of data covered by one counter block (4 KB). */
    Bytes counterCoverage = 4096;
    /** On-chip counter-cache entries (counter blocks). */
    std::uint32_t counterCacheEntries = 1024;
    /** Per-level on-chip tree caches (entries each). */
    std::uint32_t treeCacheEntries = 256;
    /** Integrity-tree arity. */
    std::uint32_t treeArity = 8;
    /** Size of the protected region (sets the tree depth). */
    Bytes protectedBytes = 16ull * 1024 * 1024 * 1024;
    /** MAC / AES-CTR engine latency per check. */
    Cycles macLatency = 40;
};

class MemProtectEngine : public SimObject
{
  public:
    /**
     * @param dram the DRAM device the extra metadata accesses hit.
     */
    MemProtectEngine(const std::string &name, EventQueue &eq,
                     MemProtectParams params, Hbm &dram);

    /**
     * Account the protection work for one data-block access ending
     * at @p data_ready.
     * @return the tick at which the decrypted, verified data is
     *         usable (>= data_ready).
     */
    Tick access(std::uint64_t addr, bool write, Tick data_ready);

    /** Levels in the integrity tree (excluding the on-chip root). */
    std::uint32_t treeLevels() const { return levels_; }

    const MemProtectParams &params() const { return params_; }

    std::uint64_t counterHits() const
    {
        return static_cast<std::uint64_t>(counter_hits_.value());
    }
    std::uint64_t counterMisses() const
    {
        return static_cast<std::uint64_t>(counter_misses_.value());
    }
    std::uint64_t metadataFetches() const
    {
        return static_cast<std::uint64_t>(meta_fetches_.value());
    }

  private:
    MemProtectParams params_;
    Hbm &dram_;
    std::uint32_t levels_ = 0;

    /** Counter-block cache plus one cache per tree level. */
    Tlb counter_cache_;
    std::vector<std::unique_ptr<Tlb>> level_caches_;

    stats::Scalar counter_hits_{"counterHits",
                                "counter cache hits"};
    stats::Scalar counter_misses_{"counterMisses",
                                  "counter cache misses"};
    stats::Scalar meta_fetches_{"metadataFetches",
                                "extra DRAM accesses for metadata"};
    stats::Scalar mac_checks_{"macChecks", "MAC verifications"};
    stats::Histogram walk_depth_{"walkDepth",
                                 "tree levels walked per miss"};
};

} // namespace mgsec

#endif // MGSEC_MEMSEC_MEM_PROTECT_HH
