/**
 * @file
 * AdversaryModel — the scriptable physical attacker of the threat
 * model (an adversary probing and meddling with the exposed
 * PCIe/NVLink interconnect).
 *
 * The model mounts the Network's PostWire tamper point, where a
 * probe sees the exact bytes the wire carried: it can capture wire
 * images for later replay, flip ciphertext/MAC/header bits, corrupt
 * batch trailers and declared-length fields, drop/duplicate/reorder
 * SecAcks, splice crypto material across (src,dst) pairs, and drop
 * data in flight.
 *
 * Scripts are deterministic: every class counts its own stream of
 * eligible wire packets, and a step fires on the nth one. At most
 * one step fires per packet (first in script order), so mutations
 * never mask each other's attribution. Each mounted attack is
 * registered with the SecurityOracle, which must see a detection
 * signal for it or report an UndetectedAttack.
 */

#ifndef MGSEC_VERIFY_ADVERSARY_HH
#define MGSEC_VERIFY_ADVERSARY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"
#include "verify/verify_types.hh"

namespace mgsec::verify
{

class SecurityOracle;

class AdversaryModel
{
  public:
    AdversaryModel(EventQueue &eq, Network &net,
                   SecurityOracle *oracle);

    void setScript(std::vector<AttackStep> script);

    /** Mount the PostWire hook on the network. */
    void install();

    /** True while the attacker's own injected traffic is in send. */
    bool injecting() const { return injecting_; }

    /**
     * True iff @p p is one of the adversary's own injected packets.
     * Identification is by (flow, packet id), recorded at inject()
     * time, so it survives the event kernel's deferred wire
     * traversal: under capture mode the network replays sends at the
     * window barrier, long after the transient injecting() flag has
     * reset. Records are counted (a script can replay one packet
     * twice) and @p consume decrements — the PostWire hook consumes,
     * the testbed's PreWire peek does not — so a later genuine
     * packet can never alias a finished injection.
     */
    bool wasInjected(const Packet &p, bool consume);

    /** @name Reporting */
    /// @{
    std::uint64_t attacksMounted() const { return log_.size(); }
    const std::vector<std::string> &attackLog() const { return log_; }
    /** Script steps that found their nth eligible packet. */
    std::size_t stepsFired() const;
    std::size_t scriptSize() const { return steps_.size(); }
    /// @}

  private:
    struct ScriptStep
    {
        AttackStep step;
        bool fired = false;
    };

    /** Wire image an attacker recorded for splicing. */
    struct Capture
    {
        std::array<std::uint8_t, 64> cipher{};
        std::array<std::uint8_t, 8> mac{};
        bool hasCipher = false;
        bool hasMac = false;
    };

    Network::TamperVerdict onWire(Packet &p);
    bool eligible(AttackClass c, const Packet &p) const;
    Network::TamperVerdict apply(ScriptStep &ss, Packet &p);
    void inject(PacketPtr clone, Cycles delay, bool is_replay);
    void logAttack(const AttackStep &s, const Packet &p);

    std::uint64_t
    pairOf(const Packet &p) const
    {
        return static_cast<std::uint64_t>(p.src) * net_.numNodes() +
               p.dst;
    }

    EventQueue &eq_;
    Network &net_;
    SecurityOracle *oracle_;

    std::vector<ScriptStep> steps_;
    /** Eligible packets seen so far, per attack class. */
    std::array<std::uint32_t, kNumAttackClasses> seen_{};
    /** Last captured crypto material per (src,dst) pair. */
    std::map<std::uint64_t, Capture> captures_;

    /**
     * Outstanding injected packets, keyed (pair, packet id) with a
     * count (packet ids are only unique per flow, and one packet can
     * be replayed more than once). Touched only on the adversary's
     * own domain thread and at quiesced barriers, so unguarded.
     */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t>
        injected_;

    bool injecting_ = false;
    std::vector<std::string> log_;
};

} // namespace mgsec::verify

#endif // MGSEC_VERIFY_ADVERSARY_HH
