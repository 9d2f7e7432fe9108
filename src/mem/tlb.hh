/**
 * @file
 * TLB model (fully associative, LRU).
 *
 * Per Table III / Fig. 2 of the paper: each CU has a private L1 TLB,
 * all CUs of a GPU share an L2 TLB, and L2 misses are forwarded to
 * the IOMMU on the CPU side — which in the secure system is a
 * CPU-GPU message like any other and therefore crosses the secure
 * channel.
 *
 * Host layout: the entries live in fixed slot arrays sized at
 * construction, the pages apart from their 16-bit list links. An
 * intrusive doubly linked list threads the used slots MRU -> LRU
 * (unused slots form a singly linked free list), and an open-addressed
 * (linear probing) index of 16-bit slot numbers maps a page to its
 * slot. An entry costs 16 bytes: its page, two links and two index
 * buckets; a TLB holds fewer than 65535 entries. Nothing allocates
 * after construction, and the hit / victim / eviction order is exact
 * LRU.
 */

#ifndef MGSEC_MEM_TLB_HH
#define MGSEC_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

struct TlbParams
{
    std::uint32_t entries = 64;
    Cycles hitLatency = 1;
};

class Tlb : public SimObject
{
  public:
    Tlb(const std::string &name, EventQueue &eq, TlbParams params);

    /**
     * Translate @p page (a virtual page number).
     * @retval true the mapping was resident.
     * On a miss the mapping is filled (LRU eviction).
     */
    bool lookup(std::uint64_t page);

    /** Probe without side effects. */
    bool resident(std::uint64_t page) const;

    /** Drop one mapping (migration shootdown). */
    bool invalidate(std::uint64_t page);

    /** Drop everything. */
    void flush();

    const TlbParams &params() const { return params_; }
    std::uint32_t occupancy() const { return used_; }

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

  private:
    /** A slot number; kNone ends a list or marks an empty bucket. */
    using SlotId = std::uint16_t;
    static constexpr SlotId kNone = 0xffff;

    /** Home bucket of @p page in the index. */
    std::uint32_t bucketOf(std::uint64_t page) const;
    /** Index position of @p page, or of the empty bucket ending its
     *  probe run. */
    std::uint32_t probe(std::uint64_t page) const;
    /** Remove the index entry at @p pos (backward-shift delete). */
    void eraseIndex(std::uint32_t pos);
    void unlink(SlotId slot);
    void pushFront(SlotId slot);

    TlbParams params_;

    struct Links
    {
        SlotId prev = kNone; ///< towards MRU
        SlotId next = kNone; ///< towards LRU, or next free
    };

    std::vector<std::uint64_t> pages_; ///< per slot
    std::vector<Links> links_;         ///< per slot
    SlotId head_ = kNone; ///< MRU
    SlotId tail_ = kNone; ///< LRU
    SlotId free_ = kNone; ///< first unused slot
    std::uint32_t used_ = 0;

    /** page -> slot, kNone = empty; at least twice the entries. */
    std::vector<SlotId> index_;
    std::uint32_t index_shift_ = 0; ///< 64 - log2(index_.size())

    stats::Scalar hits_{"hits", "TLB hits"};
    stats::Scalar misses_{"misses", "TLB misses"};
    stats::Scalar evictions_{"evictions", "TLB evictions"};
};

} // namespace mgsec

#endif // MGSEC_MEM_TLB_HH
