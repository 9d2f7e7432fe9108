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
 * Host layout: the entries live in a fixed slot array sized at
 * construction. An intrusive doubly linked list threads the used
 * slots MRU -> LRU (unused slots form a singly linked free list), and
 * an open-addressed (linear probing) index maps a page to its slot.
 * Nothing allocates after construction, and the hit / victim /
 * eviction order is exact LRU.
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
    static constexpr std::uint32_t kNone = ~0u;

    /** Home bucket of @p page in the index. */
    std::uint32_t bucketOf(std::uint64_t page) const;
    /** Index position of @p page, or of the empty bucket ending its
     *  probe run. */
    std::uint32_t probe(std::uint64_t page) const;
    /** Remove the index entry at @p pos (backward-shift delete). */
    void eraseIndex(std::uint32_t pos);
    void unlink(std::uint32_t slot);
    void pushFront(std::uint32_t slot);

    TlbParams params_;

    struct Slot
    {
        std::uint64_t page = 0;
        std::uint32_t prev = kNone; ///< towards MRU
        std::uint32_t next = kNone; ///< towards LRU, or next free
    };

    std::vector<Slot> slots_;
    std::uint32_t head_ = kNone; ///< MRU
    std::uint32_t tail_ = kNone; ///< LRU
    std::uint32_t free_ = kNone; ///< first unused slot
    std::uint32_t used_ = 0;

    /** page -> slot, kNone = empty; at least twice the entries. */
    std::vector<std::uint32_t> index_;
    std::uint32_t index_shift_ = 0; ///< 64 - log2(index_.size())

    stats::Scalar hits_{"hits", "TLB hits"};
    stats::Scalar misses_{"misses", "TLB misses"};
    stats::Scalar evictions_{"evictions", "TLB evictions"};
};

} // namespace mgsec

#endif // MGSEC_MEM_TLB_HH
