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
 * A TLB may be banked: B independent TLBs of the same size, so one
 * object models the 64 private CU L1 TLBs of a GPU. Each bank keeps
 * its own LRU list, free list and occupancy; its slots and index
 * buckets are a fixed run of arrays shared by all banks, and the
 * counters are sums over the banks. The L2 TLB is a one-bank TLB.
 *
 * Host layout: the entries live in fixed slot arrays sized at
 * construction, the pages apart from their 16-bit list links. In each
 * bank an intrusive doubly linked list threads the used slots MRU ->
 * LRU (unused slots form a singly linked free list), and an
 * open-addressed (linear probing) index of 16-bit slot numbers maps a
 * page to its slot. An entry costs 16 bytes: its page, two links and
 * two index buckets; a bank holds fewer than 65535 entries. Nothing
 * allocates after construction, and the hit / victim / eviction order
 * is exact LRU per bank.
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
    /** @p banks TLBs of params.entries entries each; zero banks
     *  hold nothing. */
    Tlb(const std::string &name, EventQueue &eq, TlbParams params,
        std::uint32_t banks = 1);

    /**
     * Translate @p page (a virtual page number) in @p bank.
     * @retval true the mapping was resident.
     * On a miss the mapping is filled (LRU eviction).
     */
    bool lookup(std::uint64_t page, std::uint32_t bank = 0);

    /** Probe without side effects. */
    bool resident(std::uint64_t page, std::uint32_t bank = 0) const;

    /** Drop one mapping (migration shootdown). */
    bool invalidate(std::uint64_t page, std::uint32_t bank = 0);

    /** Drop everything, in every bank. */
    void flush();

    const TlbParams &params() const { return params_; }
    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }
    /** Entries held by @p bank. */
    std::uint32_t occupancy(std::uint32_t bank = 0) const
    {
        return banks_[bank].used;
    }

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

    struct Links
    {
        SlotId prev = kNone; ///< towards MRU
        SlotId next = kNone; ///< towards LRU, or next free
    };

    /** One bank's list ends, free list and occupancy. */
    struct Bank
    {
        SlotId head = kNone; ///< MRU
        SlotId tail = kNone; ///< LRU
        SlotId free = kNone; ///< first unused slot
        SlotId used = 0;     ///< below kNone, like the entries
    };

    /** A bank's state and its runs of the shared arrays; slot and
     *  bucket numbers are relative to the run. */
    struct Run
    {
        Bank &bank;
        std::uint64_t *pages;
        Links *links;
        SlotId *index;
    };

    Run run(std::uint32_t bank);
    /** Home bucket of @p page in a bank's index. */
    std::uint32_t bucketOf(std::uint64_t page) const;
    /** Position of @p page in the bank index @p index over slot pages
     *  @p pages, or of the empty bucket ending its probe run. */
    std::uint32_t probe(const std::uint64_t *pages, const SlotId *index,
                        std::uint64_t page) const;
    /** Remove the index entry at @p pos (backward-shift delete). */
    void eraseIndex(const Run &r, std::uint32_t pos) const;
    static void unlink(const Run &r, SlotId slot);
    static void pushFront(const Run &r, SlotId slot);

    TlbParams params_;

    std::vector<std::uint64_t> pages_; ///< per slot, bank-major
    std::vector<Links> links_;         ///< per slot, bank-major
    std::vector<Bank> banks_;

    /** page -> slot, kNone = empty, bank-major; each bank has at
     *  least twice its entries in buckets. */
    std::vector<SlotId> index_;
    std::uint32_t bank_buckets_ = 0; ///< a power of two
    std::uint32_t index_shift_ = 0;  ///< 64 - log2(bank_buckets_)

    stats::Scalar hits_{"hits", "TLB hits"};
    stats::Scalar misses_{"misses", "TLB misses"};
    stats::Scalar evictions_{"evictions", "TLB evictions"};
};

} // namespace mgsec

#endif // MGSEC_MEM_TLB_HH
