/**
 * @file
 * Unified-memory page table with access-counter page migration.
 *
 * The unified address space is shared by the CPU and all GPUs; every
 * page has a home node. Remote accesses to migration-eligible pages
 * bump an access counter per (page, accessor); once a counter passes
 * the threshold the page migrates to the accessor — the Volta-style
 * access-counter policy the paper adopts for its baseline.
 *
 * Host layout: the pages live in one open-addressed (linear probing,
 * Fibonacci-hashed) array of 16-byte records, doubled whenever it
 * would pass half full; nothing is allocated per page. A record holds
 * the page, its home and one inline (accessor, count) slot, owned by
 * the first accessor counted since the page's last reset. Any other
 * accessor's count spills into one shared table keyed by (page,
 * accessor) and hashed by the page alone, so a page's spilled counts
 * sit in one probe run; the record's `spilled` bit says whether there
 * are any. Counts are exact per (page, accessor): a reset (place,
 * migration commit, threshold) clears the inline slot and, only for a
 * page that spilled, its spill entries.
 */

#ifndef MGSEC_MEM_PAGE_TABLE_HH
#define MGSEC_MEM_PAGE_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

struct PageTableParams
{
    /** Remote accesses by one node before the page migrates to it. */
    std::uint32_t migrationThreshold = 8;
    /** Driver-side cost of a migration (TLB shootdown etc.). */
    Cycles shootdownCycles = 300;
    bool migrationEnabled = true;
};

class PageTable : public SimObject
{
  public:
    PageTable(const std::string &name, EventQueue &eq,
              PageTableParams params, std::uint32_t num_nodes);

    /**
     * Home node of @p page; pages are allocated on first touch to
     * the toucher.
     */
    NodeId home(std::uint64_t page, NodeId first_toucher);

    /** Home of an already-mapped page (panics when unmapped). */
    NodeId homeOf(std::uint64_t page) const;

    bool mapped(std::uint64_t page) const;

    /** Pin a page to a node explicitly (workload placement). */
    void place(std::uint64_t page, NodeId node);

    /**
     * Record a remote access.
     * @retval true the access-counter threshold fired and the page
     *              should migrate to @p accessor (counters reset;
     *              the caller performs the actual transfer and then
     *              calls finishMigration()).
     */
    bool recordRemoteAccess(std::uint64_t page, NodeId accessor);

    /** Commit a migration: the page's home becomes @p new_home. */
    void finishMigration(std::uint64_t page, NodeId new_home);

    const PageTableParams &params() const { return params_; }

    std::uint64_t migrations() const
    {
        return static_cast<std::uint64_t>(migrations_.value());
    }

    /**
     * Guard the table with an internal mutex for multi-worker runs — the
     * page table is pure state (no events), and it is the single
     * object GPU node domains call into directly. Every value it
     * returns is interleaving-independent: a page's first-touch home
     * is address-deterministic (the workloads derive the toucher from
     * the address), and access counters are per-(page, accessor),
     * bumped only by that accessor's domain.
     */
    void setConcurrent(bool on) { concurrent_ = on; }

    /** Host bytes held by the page records and spilled counts. */
    std::size_t footprintBytes() const;

  private:
    /** Marks an empty bucket; no address maps to this page. */
    static constexpr std::uint64_t kNoPage = ~0ull;
    /** An inline slot no accessor owns. */
    static constexpr std::uint16_t kNoAccessor = 0x7fff;

    /** One mapped page. */
    struct Record
    {
        std::uint64_t page = kNoPage;
        std::uint16_t home = 0;
        std::uint16_t accessor : 15 = kNoAccessor; ///< inline slot owner
        std::uint16_t spilled : 1 = 0; ///< other accessors have counts
        std::uint32_t count = 0;       ///< the inline owner's count
    };

    /** The count of a page's accessor that is not its inline owner. */
    struct Spill
    {
        std::uint64_t page = kNoPage;
        std::uint32_t accessor = 0;
        std::uint32_t count = 0;
    };

    /**
     * Linear-probing buckets keyed through their `page` field and
     * hashed by it alone; at most half full. Empty until the first
     * insert.
     */
    template <class Slot>
    struct Buckets
    {
        std::vector<Slot> slots;
        std::size_t used = 0;
        std::uint32_t shift = 64; ///< 64 - log2(slots.size())

        std::size_t bucketOf(std::uint64_t page) const;
        /** Position of the first slot of @p page's probe run that
         *  satisfies @p match, or of the empty bucket ending the run. */
        template <class Match>
        std::size_t find(std::uint64_t page, Match match) const;
        /** The empty bucket ending @p page's probe run. */
        std::size_t freeBucket(std::uint64_t page) const;
        /** Store @p s, whose key is absent, doubling first when that
         *  would pass half full. */
        Slot &insert(const Slot &s);
        /** Remove the slot at @p pos (backward-shift delete). */
        void erase(std::size_t pos);
        void resize(std::size_t buckets);
    };

    Record &recordOf(std::uint64_t page, NodeId first_toucher);
    Record *findRecord(std::uint64_t page);
    const Record *findRecord(std::uint64_t page) const;
    /** The spilled count of (@p r's page, @p accessor), made if new. */
    std::uint32_t &spillCount(Record &r, NodeId accessor);
    /** Zero every count of @p r's page. */
    void resetCounts(Record &r);

    std::unique_lock<std::mutex>
    lockIfConcurrent() const
    {
        return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                           : std::unique_lock<std::mutex>();
    }

    PageTableParams params_;
    std::uint32_t num_nodes_;
    bool concurrent_ = false;
    mutable std::mutex mu_;
    Buckets<Record> pages_;
    Buckets<Spill> spills_;

    stats::Scalar migrations_{"migrations", "pages migrated"};
    stats::Scalar remote_accesses_{"remoteAccesses",
                                   "remote accesses recorded"};
};

} // namespace mgsec

#endif // MGSEC_MEM_PAGE_TABLE_HH
