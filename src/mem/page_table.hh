/**
 * @file
 * Unified-memory page table with access-counter page migration.
 *
 * The unified address space is shared by the CPU and all GPUs; every
 * page has a home node. Remote accesses to migration-eligible pages
 * bump an access counter per (page, accessor); once a counter passes
 * the threshold the page migrates to the accessor — the Volta-style
 * access-counter policy the paper adopts for its baseline.
 */

#ifndef MGSEC_MEM_PAGE_TABLE_HH
#define MGSEC_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
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

  private:
    struct Entry
    {
        NodeId home = InvalidNode;
        std::vector<std::uint32_t> remoteCounts;
    };

    Entry &entryOf(std::uint64_t page, NodeId first_toucher);

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
    std::unordered_map<std::uint64_t, Entry> pages_;

    stats::Scalar migrations_{"migrations", "pages migrated"};
    stats::Scalar remote_accesses_{"remoteAccesses",
                                   "remote accesses recorded"};
};

} // namespace mgsec

#endif // MGSEC_MEM_PAGE_TABLE_HH
