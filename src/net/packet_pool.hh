/**
 * @file
 * Free-list recycling of Packet and FunctionalPayload objects.
 *
 * Every message used to heap-allocate a Packet at the sender and free
 * it at the receiver — the dominant allocator traffic of a run. Each
 * thread keeps its own free list, so the common case takes no lock:
 * acquire() pops the list and the PacketPtr deleter resets the object
 * and pushes it back onto the releasing thread's list.
 *
 * Kernel workers hand packets to each other: one acquired on the
 * worker running its source domain is often released on the worker
 * running its destination. One process-wide depot, behind a mutex
 * taken once per batch, evens that drift out:
 *   - a list that grows past 2 x kBatch moves kBatch objects to it;
 *   - an empty list takes one batch from it before calling new;
 *   - a thread's lists move into it when the thread exits, so the
 *     next run's workers start warm.
 * Batches are chained through the objects' own poolNext links, so
 * moving one never allocates. A thread therefore parks at most
 * 2 x kBatch objects of each kind, and a run at T workers allocates
 * at most its peak live population plus T x 2 x kBatch objects,
 * however long it runs. After warm-up the steady-state loop touches
 * the allocator zero times per packet.
 *
 * Pooling only changes where objects live, never what they contain:
 * acquire() always hands out a fully reset packet, so results are
 * bit-identical with the pool enabled or disabled (the test suite
 * proves this on a whole sweep).
 */

#ifndef MGSEC_NET_PACKET_POOL_HH
#define MGSEC_NET_PACKET_POOL_HH

#include <cstddef>
#include <cstdint>

#include "net/packet.hh"

namespace mgsec
{

class PacketPool
{
  public:
    /** Allocator-traffic counters for the calling thread. */
    struct Stats
    {
        std::uint64_t freshPackets = 0;  ///< served by operator new
        std::uint64_t reusedPackets = 0; ///< served from the free list
        std::uint64_t freshPayloads = 0;
        std::uint64_t reusedPayloads = 0;
        /**
         * Packets acquired minus released on the calling thread;
         * negative on a thread that releases packets others acquired.
         */
        std::int64_t livePackets = 0;

        std::uint64_t
        totalPackets() const
        {
            return freshPackets + reusedPackets;
        }
    };

    /** Objects moved between a thread's lists and the depot at once. */
    static constexpr std::size_t kBatch = 64;

    /** Pop a reset packet from the free list, or allocate one. */
    static PacketPtr acquire();

    /** Pop a reset payload from the free list, or allocate one. */
    static FunctionalPayloadPtr acquireFunc();

    /**
     * Toggle recycling for the calling thread (on by default). While
     * disabled, acquire() allocates and release frees — the A/B
     * baseline for the bit-identical and perf tests.
     */
    static void setEnabled(bool on);
    static bool enabled();

    static Stats stats();
    static void resetStats();

    /**
     * Free every cached object, the calling thread's and the depot's
     * (counters are preserved).
     */
    static void trim();

    /** Objects currently parked on the calling thread's lists. */
    static std::uint64_t cachedPackets();
    static std::uint64_t cachedPayloads();

  private:
    friend struct PacketDeleter;
    friend struct FunctionalPayloadDeleter;

    static void release(Packet *p) noexcept;
    static void releaseFunc(FunctionalPayload *p) noexcept;
};

} // namespace mgsec

#endif // MGSEC_NET_PACKET_POOL_HH
