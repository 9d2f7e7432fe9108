/**
 * @file
 * Wire packets exchanged between processors.
 *
 * A packet's footprint on a link is the sum of four byte classes that
 * the traffic figures of the paper distinguish:
 *   header   - routing/transaction header (and address for requests)
 *   payload  - cache-block data
 *   secMeta  - security metadata (MsgCTR + sender id, MsgMAC, batch
 *              length byte)
 *   ack      - replay-protection acknowledgment bytes (standalone or
 *              piggybacked)
 */

#ifndef MGSEC_NET_PACKET_HH
#define MGSEC_NET_PACKET_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/inline_vec.hh"
#include "sim/lifecycle.hh"
#include "sim/types.hh"

namespace mgsec
{

/** Kinds of messages a node emits. */
enum class PacketType : std::uint8_t
{
    ReadReq,    ///< remote read request (64 B block)
    WriteReq,   ///< remote write request (carries a block)
    ReadResp,   ///< data response
    WriteResp,  ///< write completion
    SecAck,     ///< standalone replay-protection ACK
    BatchMac,   ///< standalone batched MsgMAC trailer
    TransReq,   ///< IOMMU translation request (GPU -> CPU)
    TransResp,  ///< IOMMU translation response
    Chaff,      ///< shaping cover traffic; dropped on arrival
};

const char *packetTypeName(PacketType t);

/** Byte classes for traffic accounting. */
enum class TrafficClass : std::uint8_t
{
    Header = 0,
    Payload = 1,
    SecMeta = 2,
    SecAck = 3,
};
constexpr std::size_t kNumTrafficClasses = 4;

/**
 * Security acknowledgment record: confirms receipt of messages up to
 * @c upToCtr on the (from -> to) pair, or of a whole batch.
 */
struct AckRecord
{
    NodeId from = InvalidNode; ///< original data sender being ACKed
    std::uint64_t upToCtr = 0;
    std::uint64_t batchId = 0; ///< nonzero when ACKing a batch
    /**
     * Tick the record was queued at the receiver — latency
     * attribution only (ackReturn histogram); carries no protocol
     * meaning and no wire bytes.
     */
    Tick queuedAt = 0;
};

/**
 * Real cryptographic material carried when the channel runs in
 * functional-crypto mode: the actual ciphertext of the block and
 * the (per-message or batched) MsgMAC. The timing model never needs
 * this; the protocol validation and the adversarial tests do.
 */
struct FunctionalPayload
{
    std::array<std::uint8_t, 64> cipher{};
    std::array<std::uint8_t, 8> mac{};
    bool hasCipher = false;
    bool hasMac = false;
    /** Free-list link; meaningful only while parked in the pool. */
    FunctionalPayload *poolNext = nullptr;
};

/** Returns a FunctionalPayload to the thread's pool (or frees it). */
struct FunctionalPayloadDeleter
{
    void operator()(FunctionalPayload *p) const noexcept;
};

/**
 * Owning handle to a packet's functional-crypto material. Pooled
 * like the packets themselves; never shared, only moved along with
 * its packet.
 */
using FunctionalPayloadPtr =
    std::unique_ptr<FunctionalPayload, FunctionalPayloadDeleter>;

/**
 * Piggybacked ACKs ride inline: SecurityConfig::maxPiggybackAcks
 * defaults to 2, so only the rarer standalone SecAck packets (which
 * carry a whole flush's worth) ever spill to the heap.
 */
using AckList = InlineVec<AckRecord, 2>;

struct Packet
{
    std::uint64_t id = 0;       ///< unique packet id
    std::uint64_t txnId = 0;    ///< transaction this belongs to
    PacketType type = PacketType::ReadReq;
    NodeId src = InvalidNode;
    NodeId dst = InvalidNode;
    std::uint64_t addr = 0;     ///< block address (requests)
    bool migration = false;     ///< part of a page migration

    /** Byte-class footprint. */
    Bytes headerBytes = 0;
    Bytes payloadBytes = 0;
    Bytes secMetaBytes = 0;
    Bytes ackBytes = 0;

    /** Security header fields (valid when secured). */
    bool secured = false;
    std::uint64_t msgCtr = 0;
    bool padFallback = false;   ///< sender pad was generated on demand
    bool hasMac = false;        ///< per-message MsgMAC present
    std::uint64_t batchId = 0;  ///< batch the message belongs to
    std::uint8_t batchLen = 0;  ///< nonzero on a batch's first message
    bool batchLast = false;     ///< closes its batch
    /**
     * Cover-traffic generation (PacketType::Chaff only): 0 when the
     * sender's clock was refreshed by *real* activity, 1 when it is
     * sustained only by received cover. Generation-0 chaff refreshes
     * the receiver's cover clock; generation-1 chaff does not, which
     * bounds how long the mesh keeps chaffing after the last real
     * packet anywhere.
     */
    std::uint8_t chaffGen = 0;
    AckList acks; ///< piggybacked ACKs

    /** Real crypto material (functional-crypto mode only). */
    FunctionalPayloadPtr func;

    /** Timestamp when the secure-send stage accepted the message. */
    Tick sendReady = 0;

    /** Tick the message entered the channel. */
    Tick injectTick = 0;

    /**
     * Lifecycle-clock stamps (latency attribution and the trace's
     * packet events). Only written when EventQueue::stampsLife(),
     * and every stamp a reader uses is rewritten on that same
     * enabled path — so reset() deliberately leaves the array stale
     * rather than taxing pooled recycling with a memset
     * profiling-off runs never benefit from.
     */
    LifeStamps life{};

    /** Free-list link; meaningful only while parked in the pool. */
    Packet *poolNext = nullptr;

    /**
     * Return to the freshly-constructed state so a pooled packet can
     * be recycled. Keeps any heap buffer the ack list spilled into.
     */
    void reset();

    Bytes
    wireBytes() const
    {
        return headerBytes + payloadBytes + secMetaBytes + ackBytes;
    }

    bool
    isRequest() const
    {
        return type == PacketType::ReadReq ||
               type == PacketType::WriteReq ||
               type == PacketType::TransReq;
    }

    bool
    isResponse() const
    {
        return type == PacketType::ReadResp ||
               type == PacketType::WriteResp ||
               type == PacketType::TransResp;
    }
};

/** Returns a Packet to the thread's pool (or frees it). */
struct PacketDeleter
{
    void operator()(Packet *p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/**
 * Allocate a packet, recycling from the calling thread's PacketPool
 * free list when possible. The only sanctioned way to create one.
 */
PacketPtr makePacket();

/** Allocate (or recycle) a functional-crypto payload. */
FunctionalPayloadPtr makeFunctionalPayload();

/**
 * Deep copy of a packet, functional-crypto material included — what
 * a physical attacker records when it captures a wire image for a
 * later replay. The clone is pooled like any other packet.
 */
PacketPtr clonePacket(const Packet &p);

} // namespace mgsec

#endif // MGSEC_NET_PACKET_HH
