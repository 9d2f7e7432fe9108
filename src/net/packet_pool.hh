/**
 * @file
 * Thread-local free-list recycling of Packet and FunctionalPayload
 * objects.
 *
 * Every message used to heap-allocate a Packet at the sender and free
 * it at the receiver — the dominant allocator traffic of a run. Each
 * simulation is confined to one JobPool worker thread, so a
 * thread-local free list recycles packets with no locking: acquire()
 * pops the list (or allocates on a cold start), and the PacketPtr
 * deleter resets the object and pushes it back. After warm-up the
 * steady-state loop touches the allocator zero times per packet.
 *
 * Pooling only changes where objects live, never what they contain:
 * acquire() always hands out a fully reset packet, so results are
 * bit-identical with the pool enabled or disabled (the test suite
 * proves this on a whole sweep).
 */

#ifndef MGSEC_NET_PACKET_POOL_HH
#define MGSEC_NET_PACKET_POOL_HH

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
        std::uint64_t livePackets = 0;   ///< acquired minus released

        std::uint64_t
        totalPackets() const
        {
            return freshPackets + reusedPackets;
        }
    };

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
     * Provision the calling thread's free lists up to the given
     * object counts. Provisioning is not allocator *traffic* — the
     * hot-path guarantee is zero fresh allocations in steady state,
     * and a preloaded list is exactly a warmed-up one — so these
     * allocations are not counted as fresh. A multi-worker kernel
     * preloads each worker thread before the run: unlike a lone
     * thread, a worker cannot warm its lists from packets other threads
     * released (migration trains drift packets from the home node's
     * thread to the requester's).
     */
    static void preload(std::size_t packets, std::size_t payloads);

    /** Free every cached object (counters are preserved). */
    static void trim();

    /** Objects currently parked on the free lists. */
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
