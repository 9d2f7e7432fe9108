/**
 * @file
 * mgsec_fuzz — randomized adversarial campaigns over the secure
 * channel, suitable as a CI smoke gate.
 *
 *   mgsec_fuzz --budget 60 --seed 7          # one timed campaign
 *   mgsec_fuzz --max-runs 40 --seed 7        # deterministic run cap
 *   mgsec_fuzz --repro "v1;seed=..;..."      # replay one case
 *   mgsec_fuzz --inject-bug counterskip ...  # oracle mutation check
 *
 * Exit status: 0 when every case passed (or, with --inject-bug, when
 * the oracle caught the bug), 1 on a security-property failure, 2 on
 * usage errors. On failure the shrunk repro string and the findings
 * go to stdout and, with --artifact PATH, to a file CI can upload.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/knob.hh"
#include "verify/fuzz.hh"

namespace
{

using namespace mgsec;
using namespace mgsec::verify;

struct FuzzArgs
{
    CampaignConfig cc;
    std::string repro;
    std::string artifact;
};

const std::vector<Knob<FuzzArgs>> &
fuzzKnobs()
{
    using A = FuzzArgs;
    using C = CampaignConfig;
    static const std::vector<Knob<A>> rows = {
        number<&A::cc, &C::budgetSeconds>(
            "budget", nullptr, 0, 1e9,
            "wall-clock budget in seconds (0 = 60 unless --max-runs "
            "is set)"),
        number<&A::cc, &C::seed>("seed", nullptr, 0, UINT64_MAX,
                                 "campaign seed"),
        number<&A::cc, &C::maxRuns>("max-runs", nullptr, 0, UINT32_MAX,
                                    "cap on generated cases (0 = none)"),
        text<&A::repro>("repro", "replay one case", "STRING"),
        choice<&A::cc, &C::injectBug>(
            "inject-bug", nullptr, kSeededBugNames,
            "seed this bug into every case (oracle mutation check)"),
        text<&A::artifact>("artifact",
                           "also write a failure's repro and findings "
                           "to PATH",
                           "PATH"),
        number<&A::cc, &C::simThreads>(
            "sim-threads", nullptr, 1, 256,
            "event-kernel worker threads per case (repros replay on "
            "one worker)"),
        choice<&A::cc, &C::topology, &TopologyConfig::kind>(
            "topology", nullptr, kTopologyKindNames,
            "fabric for every case (part of the repro, unlike "
            "--sim-threads)"),
        number<&A::cc, &C::numNodes>(
            "nodes", nullptr, 2, 256,
            "fix the node count of every case (default: the "
            "generator's choice, 2..4)"),
    };
    return rows;
}

void
printFindings(const std::vector<Finding> &findings, std::FILE *out)
{
    for (const Finding &f : findings) {
        std::fprintf(out, "  [%s] %s\n", findingKindName(f.kind),
                     f.detail.c_str());
    }
}

void
writeArtifact(const std::string &path, const std::string &repro,
              const std::vector<Finding> &findings)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write artifact %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "repro: %s\n", repro.c_str());
    printFindings(findings, f);
    std::fclose(f);
}

int
replayRepro(const std::string &repro, const std::string &artifact)
{
    TestbedConfig cfg;
    if (!decodeRepro(repro, cfg)) {
        std::fprintf(stderr, "malformed repro string\n");
        return 2;
    }
    const CaseOutcome oc = runCase(cfg);
    std::printf("repro: %s\n", encodeRepro(cfg).c_str());
    std::printf("attacks=%llu steps=%zu/%zu delivered=%llu "
                "findings=%zu\n",
                static_cast<unsigned long long>(
                    oc.result.attacksMounted),
                oc.result.stepsFired, cfg.script.size(),
                static_cast<unsigned long long>(oc.result.delivered),
                oc.result.findings.size());
    for (const std::string &a : oc.result.attackLog)
        std::printf("  attack: %s\n", a.c_str());
    for (const std::string &n : oc.result.neutralized)
        std::printf("  neutralized: %s\n", n.c_str());
    printFindings(oc.result.findings, stdout);
    if (oc.failed && !artifact.empty())
        writeArtifact(artifact, repro, oc.result.findings);
    return oc.failed ? 1 : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    FuzzArgs args;
    args.cc.budgetSeconds = 0;
    const FuzzArgs defaults = args;
    CampaignConfig &cc = args.cc;

    const auto usage = [&](std::ostream &os) {
        os << "usage: " << argv[0] << " [--FLAG VALUE]... [--verbose]\n";
        printKnobHelp(os, fuzzKnobs(), defaults);
        os << "  --verbose                print a line per case\n";
    };
    const ParseStatus st = walkArgs(
        argc, argv, usage,
        [&](const std::string &name, const std::string &value) {
            if (name == "verbose")
                return cc.verbose = true, ParseStatus::Ok;
            return setKnob(fuzzKnobs(), args, name, value);
        },
        {"--verbose"});
    const std::string fabric = st == ParseStatus::Ok && cc.numNodes != 0
                                   ? checkFabric(cc.numNodes, cc.topology)
                                   : "";
    if (st == ParseStatus::Error || !fabric.empty()) {
        std::cerr << fabric << (fabric.empty() ? "" : "\n");
        usage(std::cerr);
        return 2;
    }
    if (st == ParseStatus::Help)
        return 0;

    if (!args.repro.empty())
        return replayRepro(args.repro, args.artifact);

    if (cc.budgetSeconds <= 0 && cc.maxRuns == 0)
        cc.budgetSeconds = 60;

    const CampaignResult r = runCampaign(cc);
    std::printf("campaign: seed=%llu runs=%llu attacks=%llu "
                "coverage=%zu\n",
                static_cast<unsigned long long>(cc.seed),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.attacksMounted),
                r.coverage);

    if (cc.injectBug != SeededBug::None) {
        // Mutation check: the campaign must CATCH the seeded channel
        // bug — an all-green result means the oracle went blind.
        if (!r.failed) {
            std::printf("MUTATION CHECK FAILED: seeded bug '%s' was "
                        "never caught\n",
                        seededBugName(cc.injectBug));
            if (!args.artifact.empty())
                writeArtifact(args.artifact, "(no failing case)", {});
            return 1;
        }
        std::printf("seeded bug '%s' caught; repro: %s\n",
                    seededBugName(cc.injectBug), r.repro.c_str());
        printFindings(r.findings, stdout);
        return 0;
    }

    if (r.failed) {
        std::printf("FAILURE; shrunk repro: %s\n", r.repro.c_str());
        printFindings(r.findings, stdout);
        if (!args.artifact.empty())
            writeArtifact(args.artifact, r.repro, r.findings);
        return 1;
    }
    std::printf("all cases passed\n");
    return 0;
}
