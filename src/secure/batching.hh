/**
 * @file
 * Security-metadata batching (paper Section IV-C).
 *
 * Sender side (BatchAssembler): consecutive data responses to the
 * same destination join a batch of up to n messages. Per-message
 * MsgMACs are withheld; the batch's first message carries a 1 B
 * length field and the closing message carries the single batched
 * MsgMAC. One ACK covers the whole batch. Idle batches flush early
 * through a standalone trailer.
 *
 * Receiver side (MsgMacStorage): per-message MACs computed locally
 * are parked (2 KB per GPU, Sec. IV-D) until the batch completes,
 * enabling lazy verification and out-of-order arrival.
 */

#ifndef MGSEC_SECURE_BATCHING_HH
#define MGSEC_SECURE_BATCHING_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mgsec
{

/**
 * Batch length bounds. The first message of a batch declares its
 * length in a 1-byte field, so no batch holds more than 255
 * messages; a batch of one would be per-message MACs with extra
 * steps. Every parser of a batch size checks against these.
 */
inline constexpr std::uint32_t kMinBatchSize = 2;
inline constexpr std::uint32_t kMaxBatchSize = 255;

/**
 * Per-peer records keyed by batch id, for the few batches each peer
 * has in flight at a time. Closing a record only frees its slot, and
 * opening one reuses a free slot first, so once the slots cover the
 * peak in flight nothing is allocated (T::reset() must keep whatever
 * capacity the record holds). Lookup scans one peer's slots.
 */
template <typename T>
class BatchSlots
{
  public:
    explicit BatchSlots(std::size_t peers) : slots_(peers) {}

    /** The open record of (@p peer, @p id), or null. */
    T *
    find(NodeId peer, std::uint64_t id)
    {
        for (Slot &s : slots_[peer])
            if (s.live && s.id == id)
                return &s.rec;
        return nullptr;
    }

    /** The record of (@p peer, @p id), opened reset if absent. */
    T &
    open(NodeId peer, std::uint64_t id)
    {
        if (T *rec = find(peer, id))
            return *rec;
        std::vector<Slot> &v = slots_[peer];
        for (Slot &s : v) {
            if (!s.live) {
                s.id = id;
                s.live = true;
                return s.rec;
            }
        }
        v.push_back(Slot{id, true, T{}});
        return v.back().rec;
    }

    /** Close the record of (@p peer, @p id), if open. */
    void
    close(NodeId peer, std::uint64_t id)
    {
        for (Slot &s : slots_[peer]) {
            if (s.live && s.id == id) {
                s.live = false;
                s.rec.reset();
                return;
            }
        }
    }

    /** Call @p f on every open record of @p peer. */
    template <typename F>
    void
    forEach(NodeId peer, F &&f) const
    {
        for (const Slot &s : slots_[peer])
            if (s.live)
                f(s.rec);
    }

    std::size_t peers() const { return slots_.size(); }

  private:
    struct Slot
    {
        std::uint64_t id;
        bool live;
        T rec;
    };

    std::vector<std::vector<Slot>> slots_;
};

/** What a packet must carry for the batch protocol. */
struct BatchTag
{
    std::uint64_t batchId = 0;
    bool first = false;       ///< carries the length byte
    bool last = false;        ///< carries the batched MsgMAC
    std::uint8_t declaredLen = 0;
};

class BatchAssembler : public SimObject
{
  public:
    /**
     * @param flush called when an idle batch must close via a
     *        standalone trailer: (dst, batchId, count).
     */
    using FlushFn =
        std::function<void(NodeId, std::uint64_t, std::uint8_t)>;

    BatchAssembler(const std::string &name, EventQueue &eq,
                   std::uint32_t num_nodes, std::uint32_t batch_size,
                   Cycles idle_timeout, FlushFn flush);

    /** Register a data response heading to @p dst. */
    BatchTag onSend(NodeId dst);

    /** Force-close every open batch (end-of-run drain). */
    void drain();

    std::uint64_t batchesOpened() const
    {
        return static_cast<std::uint64_t>(opened_.value());
    }
    std::uint64_t batchesClosedFull() const
    {
        return static_cast<std::uint64_t>(closed_full_.value());
    }
    std::uint64_t batchesFlushed() const
    {
        return static_cast<std::uint64_t>(flushed_.value());
    }

    /** Batches currently open (occupancy gauge). */
    std::uint32_t
    openCount() const
    {
        std::uint32_t n = 0;
        for (const Open &b : open_)
            n += b.active ? 1 : 0;
        return n;
    }

    /** Messages accumulated across all open batches (fill gauge). */
    std::uint32_t
    fillTotal() const
    {
        std::uint32_t n = 0;
        for (const Open &b : open_)
            n += b.active ? b.count : 0;
        return n;
    }

  private:
    struct Open
    {
        std::uint64_t id = 0;
        std::uint8_t count = 0;
        EventId timeout;
        bool active = false;
    };

    void armTimeout(NodeId dst);
    void flushDst(NodeId dst);

    std::uint32_t batch_size_;
    Cycles idle_timeout_;
    FlushFn flush_;
    std::vector<Open> open_;
    std::uint64_t next_id_ = 1;

    stats::Scalar opened_{"batchesOpened", "batches opened"};
    stats::Scalar closed_full_{"batchesClosedFull",
                               "batches closed at full size"};
    stats::Scalar flushed_{"batchesFlushed",
                           "batches flushed by idle timeout"};
};

class MsgMacStorage : public SimObject
{
  public:
    /** Called when a batch fully verifies: (src, batchId). */
    using CompleteFn = std::function<void(NodeId, std::uint64_t)>;

    MsgMacStorage(const std::string &name, EventQueue &eq,
                  std::uint32_t num_nodes, std::uint32_t per_peer_cap,
                  CompleteFn complete);

    /**
     * A batched data message arrived from @p src.
     * @param declared_len nonzero on the batch's first message.
     * @param has_trailer true when this message closes the batch.
     */
    void onData(NodeId src, std::uint64_t batch_id,
                std::uint8_t declared_len, bool has_trailer);

    /** A standalone trailer arrived with the real batch length. */
    void onTrailer(NodeId src, std::uint64_t batch_id,
                   std::uint8_t count);

    /** MACs currently parked for @p src. */
    std::uint32_t occupancy(NodeId src) const;

    /** MACs parked across all peers (occupancy gauge). */
    std::uint32_t
    occupancyTotal() const
    {
        std::uint32_t n = 0;
        for (NodeId src = 0; src < pending_.peers(); ++src)
            n += occupancy(src);
        return n;
    }

    std::uint64_t overflows() const
    {
        return static_cast<std::uint64_t>(overflow_.value());
    }
    std::uint64_t completions() const
    {
        return static_cast<std::uint64_t>(complete_count_.value());
    }

  private:
    struct Pending
    {
        std::uint8_t received = 0;
        std::uint8_t declared = 0;  ///< length byte, first message
        std::uint8_t expected = 0;  ///< 0 while unknown
        bool trailer = false;
        /** First member's arrival (batchClose attribution). */
        Tick firstTick = 0;

        void reset() { *this = Pending{}; }
    };

    void maybeComplete(NodeId src, std::uint64_t batch_id);

    std::uint32_t per_peer_cap_;
    CompleteFn complete_;
    /** Batches in flight, per source. */
    BatchSlots<Pending> pending_;

    stats::Scalar overflow_{"macStorageOverflow",
                            "MAC storage capacity exceeded"};
    stats::Scalar complete_count_{"batchesVerified",
                                  "batches lazily verified"};
    stats::Scalar peak_{"macStoragePeak", "peak parked MACs"};
};

} // namespace mgsec

#endif // MGSEC_SECURE_BATCHING_HH
