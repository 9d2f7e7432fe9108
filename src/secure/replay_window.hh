/**
 * @file
 * Replay-attack protection bookkeeping (paper Section II-C).
 *
 * The sender keeps the MsgCTR of every message until the matching
 * ACK returns; the window is per destination. ACKs are cumulative
 * along a pair's in-order counter stream.
 */

#ifndef MGSEC_SECURE_REPLAY_WINDOW_HH
#define MGSEC_SECURE_REPLAY_WINDOW_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/ring_queue.hh"
#include "sim/types.hh"

namespace mgsec
{

class ReplayWindow
{
  public:
    ReplayWindow(std::uint32_t num_nodes, std::uint32_t capacity)
        : pending_(num_nodes), capacity_(capacity)
    {}

    /**
     * Track an un-ACKed outgoing message.
     * @retval true the window just exceeded its capacity.
     */
    bool
    add(NodeId dst, std::uint64_t ctr)
    {
        pending_[dst].push_back(ctr);
        ++total_;
        peak_ = std::max(peak_, total_);
        if (total_ > capacity_) {
            ++overflows_;
            return true;
        }
        return false;
    }

    /** Cumulative ACK: everything on the pair up to @p ctr is safe. */
    std::uint32_t
    ackUpTo(NodeId dst, std::uint64_t ctr)
    {
        auto &q = pending_[dst];
        std::uint32_t n = 0;
        while (!q.empty() && q.front() <= ctr) {
            q.pop_front();
            ++n;
        }
        total_ -= n;
        return n;
    }

    std::size_t
    outstanding(NodeId dst) const
    {
        return pending_[dst].size();
    }

    /** Un-ACKed messages over every destination. */
    std::size_t outstandingTotal() const { return total_; }

    std::size_t peak() const { return peak_; }
    std::uint64_t overflows() const { return overflows_; }
    std::uint32_t capacity() const { return capacity_; }

  private:
    std::vector<RingQueue<std::uint64_t>> pending_;
    std::uint32_t capacity_;
    std::size_t total_ = 0; ///< sum of pending_ sizes
    std::size_t peak_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SECURE_REPLAY_WINDOW_HH
