/**
 * @file
 * mgsec_fuzz core — randomized adversarial campaigns over the
 * VerifyTestbed with deterministic generation, coverage tracking and
 * automatic shrinking of failures to a minimal printable repro.
 *
 * A campaign draws (workload x scheme x adversary-script x config)
 * cases from one seed, runs each under the SecurityOracle, and stops
 * at a wall-clock budget or a run cap. Any case with findings is
 * shrunk greedily (drop script steps, halve traffic, shrink the
 * topology) to the smallest configuration that still fails, and that
 * configuration is printed as a one-line repro string accepted by
 * decodeRepro() / `mgsec_fuzz --repro`.
 *
 * Coverage is tracked as (scheme, batching, attack class, signal
 * set) tuples; cases that light up new tuples seed the mutation
 * corpus, biasing later cases toward unexplored behavior.
 */

#ifndef MGSEC_VERIFY_FUZZ_HH
#define MGSEC_VERIFY_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/knob.hh"
#include "verify/testbed.hh"
#include "verify/verify_types.hh"

namespace mgsec::verify
{

/**
 * The repro grammar: one row per key of "v1;key=value;...", printed
 * in this order. CampaignConfig::simThreads is deliberately absent
 * (results are thread-count invariant).
 */
const std::vector<Knob<TestbedConfig>> &reproKnobs();

/** Render @p cfg as a one-line printable repro string. */
std::string encodeRepro(const TestbedConfig &cfg);

/**
 * Parse a repro string. Keys it omits keep @p out's values, and
 * every key is range-checked as encodeRepro() prints it.
 * @retval false malformed input, or nodes that do not fit the fabric
 *         (@p out is then partially updated)
 */
bool decodeRepro(const std::string &text, TestbedConfig &out);

struct CaseOutcome
{
    TestbedResult result;
    /** The oracle reported at least one finding. */
    bool failed = false;
};

/** Run one configuration to completion. */
CaseOutcome runCase(const TestbedConfig &cfg);

/**
 * Greedily shrink a failing configuration: repeatedly try removing
 * script steps, halving the message count, shrinking the topology
 * and zeroing the request mix, keeping every mutation that still
 * fails. Returns the smallest failing configuration found.
 */
TestbedConfig shrinkCase(const TestbedConfig &failing,
                         std::uint32_t *runs_used = nullptr);

/** Draw the next case from the campaign generator (exposed so tests
 *  can pin down generator determinism). */
TestbedConfig generateCase(Rng &rng, SeededBug inject);

struct CampaignConfig
{
    std::uint64_t seed = 1;
    /** Wall-clock budget in seconds; 0 disables the clock. */
    double budgetSeconds = 60.0;
    /** Hard cap on generated cases; 0 means budget-only. */
    std::uint32_t maxRuns = 0;
    /** Seed this bug into every case (oracle mutation check). */
    SeededBug injectBug = SeededBug::None;
    /** Print a line per case to stdout. */
    bool verbose = false;
    /**
     * Event-kernel threads for every case (TestbedConfig::simThreads,
     * clamped per case to its node count). Repro strings deliberately
     * omit it: results are thread-count invariant, so a repro always
     * replays on one worker.
     */
    std::uint32_t simThreads = 1;
    /**
     * Fabric for every case (knobs keep their defaults; only the
     * kind varies). Unlike simThreads this IS part of the repro —
     * switch contention changes arrival order, so a failure on
     * nvswitch/hier may not reproduce on p2p. shrinkCase() tries to
     * downgrade it (hier -> nvswitch -> p2p) like any other
     * dimension.
     */
    TopologyConfig topology{};
    /** Node-count override for every case; 0 = generator's choice. */
    std::uint32_t numNodes = 0;
};

struct CampaignResult
{
    std::uint64_t runs = 0;
    std::uint64_t attacksMounted = 0;
    /** Distinct (scheme, batching, class, signals) tuples seen. */
    std::size_t coverage = 0;
    bool failed = false;
    /** Shrunk repro of the first failing case (when failed). */
    std::string repro;
    /** Findings of the shrunk failing case (when failed). */
    std::vector<Finding> findings;
};

/** Run a campaign; stops at the first failure (after shrinking). */
CampaignResult runCampaign(const CampaignConfig &cc);

} // namespace mgsec::verify

#endif // MGSEC_VERIFY_FUZZ_HH
