/**
 * @file
 * Knobs of the secure-communication layer (paper Section IV /
 * Table III).
 */

#ifndef MGSEC_SECURE_SECURITY_CONFIG_HH
#define MGSEC_SECURE_SECURITY_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "crypto/dispatch.hh"
#include "secure/pad_table.hh"
#include "sim/types.hh"

namespace mgsec
{

/**
 * Traffic-shaping countermeasure against passive wire observers
 * (sim/wire_observer.hh). Shaping acts at the secure channel's
 * departure point, so it composes with every OTP scheme but is a
 * no-op for Unsecure runs (there is no trusted shaping agent below
 * the secure layer in the threat model).
 */
enum class ShapingPolicy : std::uint8_t
{
    None = 0,
    /**
     * Constant-rate padding: departures are quantized up to a fixed
     * slot grid (shapeInterval) with at most one data departure per
     * destination per slot, and every wire image is padded up to a
     * multiple of shapePadTo bytes. Collapses the gap and size
     * distributions the observer classifies on, at the cost of
     * added latency and pad bytes.
     */
    ConstantRate = 1,
    /**
     * Batch-close jitter: only the batch-closing events (the MAC
     * trailer and the final message of each batch) are delayed by a
     * deterministic pseudo-random jitter in [0, shapeJitter). Much
     * cheaper than constant-rate; blurs only the batch-close
     * signature, not sizes or per-message gaps.
     */
    BatchJitter = 2,
};

/** "off", "constant" and "jitter" are aliases. */
inline constexpr EnumName<ShapingPolicy> kShapingPolicyNames[] = {
    {ShapingPolicy::None, "none"},
    {ShapingPolicy::ConstantRate, "constant-rate"},
    {ShapingPolicy::BatchJitter, "batch-jitter"},
    {ShapingPolicy::None, "off"},
    {ShapingPolicy::ConstantRate, "constant"},
    {ShapingPolicy::BatchJitter, "jitter"}};

inline const char *
shapingPolicyName(ShapingPolicy p)
{
    return nameIn(kShapingPolicyNames, p);
}

struct SecurityConfig
{
    OtpScheme scheme = OtpScheme::Private;

    /** Enable the paper's security-metadata batching (Sec. IV-C). */
    bool batching = false;
    std::uint32_t batchSize = 16;

    /** AES-GCM pad generation latency (Table III: 40 cycles). */
    Cycles aesLatency = 40;

    /**
     * OTP quota multiplier "OTP Nx": every node owns
     * (numNodes-1) * 2 * N entries, matching Table I.
     */
    std::uint32_t otpMultiplier = 4;
    /** Nonzero overrides the Table-I formula with an exact total. */
    std::uint32_t totalOtpOverride = 0;

    /**
     * When false, security metadata consumes no wire bytes: the
     * "+SecureCommu" scenario of Fig. 11 (latency effects only).
     */
    bool countMetadataBytes = true;

    /** @name Wire-format byte costs */
    /// @{
    Bytes headerBytes = 16;     ///< packet header (addr, ids, type)
    Bytes ctrBytes = 8;         ///< MsgCTR + sender id per message
    Bytes macBytes = 8;         ///< MsgMAC
    Bytes ackBytes = 8;         ///< one ACK record
    Bytes ackHeaderBytes = 8;   ///< standalone ACK/trailer header
    Bytes batchLenBytes = 1;    ///< batch length on first message
    /// @}

    /** Pending ACKs flush standalone after this many cycles. */
    Cycles ackTimeout = 100;

    /** An open batch flushes (short) after this many idle cycles. */
    Cycles batchTimeout = 400;
    /** Max ACK records piggybacked on one data packet. */
    std::uint32_t maxPiggybackAcks = 2;

    /** Receiver MsgMAC storage per peer (Sec. IV-D: 64 entries). */
    std::uint32_t msgMacStoragePerPeer = 64;

    /** @name Traffic shaping (countermeasure; see ShapingPolicy) */
    /// @{
    ShapingPolicy shaping = ShapingPolicy::None;
    /** Constant-rate slot width in cycles. */
    Cycles shapeInterval = 64;
    /** Constant-rate wire-size quantum in bytes. */
    Bytes shapePadTo = 128;
    /** Max batch-close jitter in cycles (exclusive). */
    Cycles shapeJitter = 96;
    /**
     * Constant-rate cover traffic: while a node has sent real
     * traffic within this many slots, it fills every empty slot
     * toward EVERY peer with a padded chaff packet (0 = no chaff).
     * Full-mesh cover hides both activity intensity and which
     * pairs actually communicate; the idle budget bounds the event
     * queue so a run still drains shortly after the workload
     * finishes. The default is sized to bridge the intra-run idle
     * spans of the sparsest bundled workload, so a whole run reads
     * as one continuous metronome.
     */
    std::uint32_t shapeChaffSlots = 512;
    /// @}

    DynamicPadTable::Params dynParams{};

    /**
     * Carry and verify real AES-GCM-derived pads/MACs on every data
     * message (slow; for protocol validation and attack tests).
     */
    bool functionalCrypto = false;
    /** Session key exchanged at boot (Sec. IV-A). */
    std::array<std::uint8_t, 16> sessionKey{
        0x6d, 0x67, 0x73, 0x65, 0x63, 0x2d, 0x6b, 0x65,
        0x79, 0x2d, 0x76, 0x31, 0x00, 0x00, 0x00, 0x00};

    /**
     * Which crypto tier the functional plane runs on (Auto picks
     * SIMD when the CPU has AES-NI/PCLMULQDQ). Host-side speed knob
     * only: every tier produces bit-identical pads, MACs, and tags,
     * and the timing model never touches it — so it stays out of
     * configKey.
     */
    crypto::CryptoImpl cryptoImpl = crypto::CryptoImpl::Auto;

    bool secured() const { return scheme != OtpScheme::Unsecure; }

    std::uint32_t
    totalOtpEntries(std::uint32_t num_nodes) const
    {
        if (totalOtpOverride != 0)
            return totalOtpOverride;
        return (num_nodes - 1) * 2 * otpMultiplier;
    }
};

} // namespace mgsec

#endif // MGSEC_SECURE_SECURITY_CONFIG_HH
