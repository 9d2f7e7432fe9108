/**
 * @file
 * VerifyTestbed — a self-contained rig wiring N SecureChannels, the
 * SecurityOracle and the AdversaryModel onto one Network.
 *
 * The testbed owns the hook topology:
 *
 *   PreWire   (before accounting)   seeded-bug mutation, then
 *                                   oracle.onSent — the oracle sees
 *                                   the untampered genuine stream;
 *   PostWire  (exact wire bytes)    AdversaryModel — capture,
 *                                   mutate, drop, inject;
 *   delivery                        oracle.onDelivered, then the
 *                                   destination channel.
 *
 * Traffic is synthetic and fully determined by the config's seed, so
 * a (config, seed) pair is a complete repro. The seeded bugs mutate
 * genuine packets *before* the oracle observes them — they fake a
 * buggy channel implementation underneath an honest wire, proving
 * the oracle catches real channel defects (mutation checks).
 */

#ifndef MGSEC_VERIFY_TESTBED_HH
#define MGSEC_VERIFY_TESTBED_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "crypto/otp.hh"
#include "net/network.hh"
#include "secure/secure_channel.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "verify/adversary.hh"
#include "verify/oracle.hh"
#include "verify/verify_types.hh"

namespace mgsec::verify
{

struct TestbedConfig
{
    std::uint32_t numNodes = 3;
    OtpScheme scheme = OtpScheme::Private;
    bool batching = false;
    std::uint32_t batchSize = 4;
    /** Data messages the traffic driver sends. */
    std::uint32_t messages = 48;
    /** Percent (0..100) of messages sent as read requests. */
    std::uint32_t requestPercent = 0;
    /** Mean inter-send spacing in cycles. */
    Cycles gap = 20;
    std::uint64_t seed = 1;
    /**
     * Fabric under test. The adversary, oracle and channels are all
     * routing-agnostic, so every security verdict must hold on every
     * topology; the default is the paper's p2p machine.
     */
    TopologyConfig topology{};
    SeededBug bug = SeededBug::None;
    /** 0-based index of the eligible packet that triggers the bug. */
    std::uint32_t bugTrigger = 3;
    std::vector<AttackStep> script;

    /**
     * Event-kernel worker threads (clamped to numNodes). Every
     * campaign runs one event domain per node under the conservative-
     * PDES kernel; this only picks how many threads execute them, and
     * every verdict, counter and finding is identical for every
     * value — so a repro replays on one worker.
     */
    std::uint32_t simThreads = 1;
};

struct TestbedResult
{
    std::vector<Finding> findings;

    /** @name Channel detection signals (summed over nodes) */
    /// @{
    std::uint64_t macsVerified = 0;
    std::uint64_t macsFailed = 0;
    std::uint64_t decryptsOk = 0;
    std::uint64_t decryptsBad = 0;
    std::uint64_t replaySuspects = 0;
    std::uint64_t ctrGaps = 0;
    /** Replay-window entries never ACKed by end of run. */
    std::uint64_t outstandingTotal = 0;
    /// @}

    std::uint64_t delivered = 0;
    std::uint64_t droppedPackets = 0;
    std::uint64_t strandedBatches = 0;
    std::uint64_t attacksMounted = 0;
    std::size_t stepsFired = 0;
    std::vector<std::string> neutralized;
    std::vector<std::string> attackLog;

    bool pass() const { return findings.empty(); }
};

class VerifyTestbed
{
  public:
    explicit VerifyTestbed(const TestbedConfig &cfg);

    /** Drive the whole campaign and collect the verdict. */
    TestbedResult run();

    SecureChannel &channel(NodeId n) { return *channels_[n]; }
    SecurityOracle &oracle() { return *oracle_; }
    AdversaryModel &adversary() { return *adversary_; }
    EventQueue &eventQueue() { return eq_; }

  private:
    void mountHooks();
    void scheduleTraffic();
    void maybeSeedBug(Packet &p);
    void refreshCrypto(Packet &p) const;
    /** Run events until @p until (the Dynamic timer never drains). */
    void runUntil(Tick until);

    TestbedConfig cfg_;
    SecurityConfig sec_;
    EventQueue eq_;
    /**
     * One event domain per node — domain 0 wraps eq_ (keeping the
     * network, adversary and node 0's channel on it), the rest own
     * their queues.
     */
    std::vector<std::unique_ptr<Domain>> domains_;
    std::uint32_t sim_threads_ = 1;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<SecureChannel>> channels_;
    std::unique_ptr<SecurityOracle> oracle_;
    std::unique_ptr<AdversaryModel> adversary_;
    /** The testbed's own pad factory for seeded-bug recomputation. */
    std::unique_ptr<crypto::PadFactory> factory_;

    /** Atomic: deliveries count on concurrent domain threads. */
    std::atomic<std::uint64_t> delivered_{0};
    Tick last_send_ = 0;
    /** Kernel time: where the next runUntil() resumes. */
    Tick pdes_next_ = 0;

    /** Seeded-bug state. */
    std::uint32_t bug_seen_ = 0;
    bool bug_armed_ = false;   ///< CounterSkip: shift active
    bool bug_fired_ = false;   ///< StaleCipher: one-shot spent
    NodeId bug_src_ = InvalidNode;
};

} // namespace mgsec::verify

#endif // MGSEC_VERIFY_TESTBED_HH
