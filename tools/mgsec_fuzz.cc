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
#include <cstdlib>
#include <cstring>
#include <string>

#include "verify/fuzz.hh"

namespace
{

using namespace mgsec::verify;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--budget SECONDS] [--seed N] [--max-runs N]\n"
        "          [--repro STRING] [--inject-bug counterskip|"
        "stalecipher]\n"
        "          [--artifact PATH] [--sim-threads N]\n"
        "          [--topology p2p|nvswitch|hier] [--nodes N]\n"
        "          [--verbose]\n"
        "  --sim-threads N   event-kernel worker threads per case\n"
        "                    (repros replay on one worker)\n"
        "  --topology T      fabric for every case (default p2p;\n"
        "                    part of the repro, unlike --sim-threads)\n"
        "  --nodes N         fix the node count of every case\n"
        "                    (default: generator's choice, 2..4)\n",
        argv0);
    return 2;
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
    CampaignConfig cc;
    cc.budgetSeconds = 0;
    std::string repro;
    std::string artifact;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--budget") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            cc.budgetSeconds = std::atof(v);
        } else if (arg == "--seed") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            cc.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--max-runs") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            cc.maxRuns = static_cast<std::uint32_t>(
                std::strtoul(v, nullptr, 10));
        } else if (arg == "--repro") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            repro = v;
        } else if (arg == "--inject-bug") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            if (std::strcmp(v, "counterskip") == 0) {
                cc.injectBug = SeededBug::CounterSkip;
            } else if (std::strcmp(v, "stalecipher") == 0) {
                cc.injectBug = SeededBug::StaleCipher;
            } else {
                return usage(argv[0]);
            }
        } else if (arg == "--artifact") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            artifact = v;
        } else if (arg == "--sim-threads") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            const unsigned long t = std::strtoul(v, nullptr, 10);
            if (t < 1 || t > 256)
                return usage(argv[0]);
            cc.simThreads = static_cast<std::uint32_t>(t);
        } else if (arg == "--topology") {
            const char *v = value();
            if (v == nullptr ||
                !mgsec::parseTopologyKind(v, cc.topology.kind))
                return usage(argv[0]);
        } else if (arg == "--nodes") {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            const unsigned long n = std::strtoul(v, nullptr, 10);
            if (n < 2 || n > 256)
                return usage(argv[0]);
            cc.numNodes = static_cast<std::uint32_t>(n);
        } else if (arg == "--verbose") {
            cc.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            return usage(argv[0]);
        }
    }

    if (!repro.empty())
        return replayRepro(repro, artifact);

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
            if (!artifact.empty())
                writeArtifact(artifact, "(no failing case)", {});
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
        if (!artifact.empty())
            writeArtifact(artifact, r.repro, r.findings);
        return 1;
    }
    std::printf("all cases passed\n");
    return 0;
}
