/**
 * @file
 * Shared vocabulary of the adversarial validation subsystem: attack
 * classes the AdversaryModel mounts, the scripting unit, and the
 * findings the SecurityOracle reports.
 */

#ifndef MGSEC_VERIFY_VERIFY_TYPES_HH
#define MGSEC_VERIFY_VERIFY_TYPES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/knob.hh"

namespace mgsec::verify
{

/**
 * Attack repertoire of the physical adversary (threat model Sec. III:
 * an attacker probing and meddling with the exposed inter-GPU
 * links). Each class targets the nth eligible wire packet of its
 * eligibility stream, so scripts are deterministic for a fixed
 * simulation.
 */
enum class AttackClass : std::uint8_t
{
    Replay,         ///< capture a data packet, re-inject it later
    PayloadFlip,    ///< flip a ciphertext bit
    MacFlip,        ///< flip a MsgMAC / batched-MAC bit
    HeaderFlip,     ///< corrupt the MsgCTR header field
    TrailerCorrupt, ///< corrupt a batch trailer's MAC
    LengthCorrupt,  ///< inflate a batch's 1 B declared-length field
    AckDrop,        ///< drop a standalone SecAck packet
    AckDup,         ///< duplicate a SecAck
    AckReorder,     ///< hold a SecAck and re-inject it later
    Splice,         ///< transplant ciphertext+MAC across (src,dst)
    DataDrop,       ///< drop a data packet in flight
};
constexpr std::size_t kNumAttackClasses = 11;

inline constexpr EnumName<AttackClass> kAttackClassNames[] = {
    {AttackClass::Replay, "Replay"}, {AttackClass::PayloadFlip, "PayloadFlip"},
    {AttackClass::MacFlip, "MacFlip"}, {AttackClass::HeaderFlip, "HeaderFlip"},
    {AttackClass::TrailerCorrupt, "TrailerCorrupt"},
    {AttackClass::LengthCorrupt, "LengthCorrupt"},
    {AttackClass::AckDrop, "AckDrop"}, {AttackClass::AckDup, "AckDup"},
    {AttackClass::AckReorder, "AckReorder"},
    {AttackClass::Splice, "Splice"},   {AttackClass::DataDrop, "DataDrop"}};

inline const char *
attackClassName(AttackClass c)
{
    return nameIn(kAttackClassNames, c);
}

/** Parse an attack-class name (repro strings). */
inline bool
parseAttackClass(const std::string &text, AttackClass &out)
{
    return parseIn(kAttackClassNames, text, out);
}

/** One scripted attack: hit the nth eligible packet of the class. */
struct AttackStep
{
    AttackClass cls = AttackClass::PayloadFlip;
    /** 0-based index into the class's eligible-packet stream. */
    std::uint32_t nth = 0;
    /**
     * Class-specific knob: bit index for flips, re-injection delay
     * for Replay/AckReorder, length delta for LengthCorrupt.
     * 0 selects the class default.
     */
    std::uint64_t param = 0;
};

/** Kinds of problems the subsystem can surface. */
enum class FindingKind : std::uint8_t
{
    /** Predicted channel counters differ from the real channel. */
    Divergence,
    /** A sender emitted an unexpected message counter. */
    CounterAnomaly,
    /** Wire crypto material differs from the shadow computation. */
    CryptoMismatch,
    /** A genuine batch never completed MAC verification. */
    LostVerification,
    /** An attack produced no detection signal anywhere. */
    UndetectedAttack,
    /** A genuine message disappeared without an attributable drop. */
    LostMessage,
};

inline constexpr EnumName<FindingKind> kFindingKindNames[] = {
    {FindingKind::Divergence, "Divergence"},
    {FindingKind::CounterAnomaly, "CounterAnomaly"},
    {FindingKind::CryptoMismatch, "CryptoMismatch"},
    {FindingKind::LostVerification, "LostVerification"},
    {FindingKind::UndetectedAttack, "UndetectedAttack"},
    {FindingKind::LostMessage, "LostMessage"}};

inline const char *
findingKindName(FindingKind k)
{
    return nameIn(kFindingKindNames, k);
}

/** One security-property failure. Empty list == healthy run. */
struct Finding
{
    FindingKind kind = FindingKind::Divergence;
    std::string detail;
};

/**
 * Channel bugs the testbed can seed underneath the oracle — the
 * mutation checks proving the oracle actually bites. Both recompute
 * the crypto consistently, so the wire carries a self-consistent
 * (but wrong) stream.
 */
enum class SeededBug : std::uint8_t
{
    None,
    /**
     * From the trigger packet on, the sender's counters are shifted
     * +1 with pads/MACs recomputed: MACs verify and counters stay
     * monotonic, and under the Shared scheme (one global stream per
     * sender) even the receiver-side gap counter stays silent — only
     * the oracle's send-counter model notices the skipped counter.
     */
    CounterSkip,
    /**
     * One packet's ciphertext is produced with the previous
     * counter's pad (a stale-pad reuse); its MAC is recomputed over
     * that ciphertext so MAC verification still passes.
     */
    StaleCipher,
};

inline constexpr EnumName<SeededBug> kSeededBugNames[] = {
    {SeededBug::None, "none"},
    {SeededBug::CounterSkip, "counterskip"},
    {SeededBug::StaleCipher, "stalecipher"}};

inline const char *
seededBugName(SeededBug b)
{
    return nameIn(kSeededBugNames, b);
}

/**
 * Deterministic xorshift64* generator. The standard distributions
 * are implementation-defined, so campaigns roll their own to keep
 * repro strings portable across toolchains.
 */
struct Rng
{
    std::uint64_t s;

    explicit Rng(std::uint64_t seed) : s(seed ? seed : 0x9e3779b9) {}

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform-ish value in [0, n). @p n must be nonzero. */
    std::uint32_t
    below(std::uint32_t n)
    {
        return static_cast<std::uint32_t>(next() % n);
    }
};

} // namespace mgsec::verify

#endif // MGSEC_VERIFY_VERIFY_TYPES_HH
