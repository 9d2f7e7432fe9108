/**
 * @file
 * Run-wide latency attribution: folds per-packet lifecycle stamps
 * (sim/lifecycle.hh) into HDR histograms per stage and link type.
 *
 * One collector serves the whole system; components reach it through
 * EventQueue::attribution(), so — exactly like TraceSink — a null
 * pointer there is the entire cost of disabled attribution. The
 * scheme dimension is the run itself (a system simulates exactly one
 * OtpScheme), recorded in the collector's scheme() label; link type
 * (PCIe vs NVLink) is derived per packet from its endpoints.
 *
 * The five conservation-stage histograms satisfy, per link type,
 *   sum_i stage[i].count() == e2e.count()  and
 *   sum_i stage[i].sum()   == e2e.sum()    (exactly, in cycles),
 * which tests assert. Batch close, ACK return, and metadata-walk
 * histograms are auxiliary: they overlap other stages or happen
 * after delivery and are excluded from the identity.
 */

#ifndef MGSEC_SIM_LATENCY_ATTR_HH
#define MGSEC_SIM_LATENCY_ATTR_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "sim/lifecycle.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mgsec
{

/**
 * Interconnect hop classes. The first two are the paper's
 * point-to-point fabric; Switch and Inter exist only on the
 * scale-out topologies (net/topology.hh), so collectors register
 * histograms for a topology-dependent prefix of this enum.
 */
enum class LinkType : std::uint8_t
{
    Pcie = 0,   ///< CPU <-> GPU
    Nvlink = 1, ///< GPU <-> GPU, point-to-point port pair
    Switch = 2, ///< GPU <-> GPU through a crossbar
    Inter = 3,  ///< GPU <-> GPU crossing an inter-node trunk
};
constexpr std::size_t kNumLinkTypes = 4;
/** Link classes of the default point-to-point fabric. */
constexpr std::size_t kP2pLinkClasses = 2;

inline const char *
linkTypeName(LinkType l)
{
    switch (l) {
      case LinkType::Pcie:
        return "pcie";
      case LinkType::Nvlink:
        return "nvlink";
      case LinkType::Switch:
        return "switch";
      case LinkType::Inter:
        return "inter";
    }
    return "?";
}

class LatencyAttribution
{
  public:
    /**
     * @p scheme labels the run (one OtpScheme per system).
     * @p num_links is the number of link classes the run's fabric
     * can emit (a contiguous LinkType prefix); histograms are
     * registered for exactly these, so the default point-to-point
     * fabric's stats output is unchanged by the wider enum.
     */
    explicit LatencyAttribution(std::string scheme,
                                std::size_t num_links =
                                    kP2pLinkClasses);

    /**
     * Fold a delivered packet's stamps: records every conservation
     * stage plus end-to-end. (The trace writes the same stages as
     * the args of the packet's one "packet" event.)
     */
    void fold(LinkType link, const LifeStamps &st);

    /** @name Auxiliary (non-conservation) latencies. */
    /// @{
    void
    recordBatchClose(Tick dur)
    {
        auto l = lockIfConcurrent();
        batch_close_.record(dur);
    }
    void
    recordAckReturn(Tick dur)
    {
        auto l = lockIfConcurrent();
        ack_return_.record(dur);
    }
    void
    recordMetaWalk(Tick dur)
    {
        auto l = lockIfConcurrent();
        meta_walk_.record(dur);
    }
    /// @}

    /**
     * Guard record/fold with an internal mutex for multi-worker runs,
     * where every domain thread folds into this one collector.
     * Histogram accumulation is commutative (bucket counts and
     * sums), so the fold order across domains cannot change any
     * recorded value — sharing one collector keeps the conservation
     * telescope a single global identity with no per-window merges.
     * Readers (gauges, dumps) only run at barriers or after the run,
     * when no folds are in flight.
     */
    void setConcurrent(bool on) { concurrent_ = on; }

    const stats::Histogram &stage(LinkType l, std::size_t s) const;
    const stats::Histogram &e2e(LinkType l) const;
    const stats::Histogram &batchClose() const { return batch_close_; }
    const stats::Histogram &ackReturn() const { return ack_return_; }
    const stats::Histogram &metaWalk() const { return meta_walk_; }

    /** Delivered packets folded (== e2e counts over all links). */
    std::uint64_t folds() const { return folds_; }
    const std::string &scheme() const { return scheme_; }
    /** Link classes this collector registered histograms for. */
    std::size_t numLinks() const { return num_links_; }

    /** All histograms, registered as group "attr". */
    stats::StatGroup &statGroup() { return group_; }
    const stats::StatGroup &statGroup() const { return group_; }

    /** Standalone HIST_*.json document: {scheme, attr: {...}}. */
    void writeJson(std::ostream &os) const;

    void reset();

  private:
    stats::Histogram &stageMut(LinkType l, std::size_t s);

    std::unique_lock<std::mutex>
    lockIfConcurrent()
    {
        return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                           : std::unique_lock<std::mutex>();
    }

    bool concurrent_ = false;
    std::mutex mu_;
    std::string scheme_;
    std::size_t num_links_;
    /** [link][stage] conservation histograms, then per-link e2e. */
    std::vector<stats::Histogram> stages_;
    std::vector<stats::Histogram> e2e_;
    stats::Histogram batch_close_;
    stats::Histogram ack_return_;
    stats::Histogram meta_walk_;
    std::uint64_t folds_ = 0;
    stats::StatGroup group_{"attr"};
};

} // namespace mgsec

#endif // MGSEC_SIM_LATENCY_ATTR_HH
