#include "net/packet_pool.hh"

#include <mutex>

namespace mgsec
{

namespace
{

/** LIFO of parked objects, linked through their poolNext fields. */
template <class T>
struct FreeList
{
    T *head = nullptr;
    std::size_t size = 0;

    bool
    empty() const
    {
        return head == nullptr;
    }

    void
    push(T *p)
    {
        p->poolNext = head;
        head = p;
        ++size;
    }

    T *
    pop()
    {
        T *p = head;
        head = p->poolNext;
        --size;
        return p;
    }

    /** Move the first @p n objects (all when n >= size) onto @p to. */
    void
    moveTo(FreeList &to, std::size_t n)
    {
        if (n > size)
            n = size;
        if (n == 0)
            return;
        T *last = head;
        for (std::size_t i = 1; i < n; ++i)
            last = last->poolNext;
        T *first = head;
        head = last->poolNext;
        size -= n;
        last->poolNext = to.head;
        to.head = first;
        to.size += n;
    }

    void
    freeAll()
    {
        while (!empty())
            delete pop();
    }
};

/** Process-wide surplus, shared by every thread's lists. */
template <class T>
struct Depot
{
    std::mutex mu;
    FreeList<T> list;

    ~Depot() { list.freeAll(); }

    void
    put(FreeList<T> &from, std::size_t n)
    {
        std::lock_guard<std::mutex> g(mu);
        from.moveTo(list, n);
    }

    void
    take(FreeList<T> &to)
    {
        std::lock_guard<std::mutex> g(mu);
        list.moveTo(to, PacketPool::kBatch);
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> g(mu);
        list.freeAll();
    }
};

constinit Depot<Packet> g_packet_depot;
constinit Depot<FunctionalPayload> g_payload_depot;

/**
 * Per-thread pool state. Whatever is still cached when the thread
 * exits moves to the depot for the next thread to reuse.
 */
struct Tls
{
    FreeList<Packet> packets;
    FreeList<FunctionalPayload> payloads;
    PacketPool::Stats stats;
    bool enabled = true;

    ~Tls()
    {
        g_packet_depot.put(packets, packets.size);
        g_payload_depot.put(payloads, payloads.size);
    }
};

Tls &
tls()
{
    thread_local Tls t;
    return t;
}

/** Push @p p onto @p list, spilling a batch once it holds too many. */
template <class T>
void
park(FreeList<T> &list, Depot<T> &depot, T *p)
{
    list.push(p);
    if (list.size > 2 * PacketPool::kBatch)
        depot.put(list, PacketPool::kBatch);
}

} // anonymous namespace

PacketPtr
PacketPool::acquire()
{
    Tls &t = tls();
    ++t.stats.livePackets;
    if (t.enabled) {
        if (t.packets.empty())
            g_packet_depot.take(t.packets);
        if (!t.packets.empty()) {
            ++t.stats.reusedPackets;
            return PacketPtr(t.packets.pop());
        }
    }
    ++t.stats.freshPackets;
    return PacketPtr(new Packet);
}

FunctionalPayloadPtr
PacketPool::acquireFunc()
{
    Tls &t = tls();
    if (t.enabled) {
        if (t.payloads.empty())
            g_payload_depot.take(t.payloads);
        if (!t.payloads.empty()) {
            ++t.stats.reusedPayloads;
            return FunctionalPayloadPtr(t.payloads.pop());
        }
    }
    ++t.stats.freshPayloads;
    return FunctionalPayloadPtr(new FunctionalPayload);
}

void
PacketPool::release(Packet *p) noexcept
{
    Tls &t = tls();
    --t.stats.livePackets;
    if (!t.enabled) {
        delete p;
        return;
    }
    p->reset();
    park(t.packets, g_packet_depot, p);
}

void
PacketPool::releaseFunc(FunctionalPayload *p) noexcept
{
    Tls &t = tls();
    if (!t.enabled) {
        delete p;
        return;
    }
    // Stale cipher/mac bytes are unreachable once the flags drop, so
    // only the flags need resetting.
    p->hasCipher = false;
    p->hasMac = false;
    park(t.payloads, g_payload_depot, p);
}

void
PacketPool::setEnabled(bool on)
{
    Tls &t = tls();
    if (!on && t.enabled)
        trim();
    t.enabled = on;
}

bool
PacketPool::enabled()
{
    return tls().enabled;
}

PacketPool::Stats
PacketPool::stats()
{
    return tls().stats;
}

void
PacketPool::resetStats()
{
    tls().stats = Stats{};
}

void
PacketPool::trim()
{
    Tls &t = tls();
    t.packets.freeAll();
    t.payloads.freeAll();
    g_packet_depot.clear();
    g_payload_depot.clear();
}

std::uint64_t
PacketPool::cachedPackets()
{
    return tls().packets.size;
}

std::uint64_t
PacketPool::cachedPayloads()
{
    return tls().payloads.size;
}

} // namespace mgsec
