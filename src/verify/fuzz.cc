#include "verify/fuzz.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "secure/batching.hh"
#include "sim/logging.hh"

namespace mgsec::verify
{

namespace
{

bool
parseScript(const std::string &text, std::vector<AttackStep> &out)
{
    if (text.empty()) {
        out.clear();
        return true;
    }
    std::vector<AttackStep> steps;
    for (const std::string &tok : splitList(text, ',')) {
        const std::size_t at = tok.find('@');
        if (at == std::string::npos)
            return false;
        AttackStep step;
        if (!parseAttackClass(tok.substr(0, at), step.cls))
            return false;
        const std::vector<std::string> nums =
            splitList(tok.substr(at + 1), '/');
        unsigned long long nth = 0, param = 0;
        if (nums.size() > 2 ||
            !parseNumber(nums[0], 0ULL, 0ULL + UINT32_MAX, nth) ||
            (nums.size() == 2 &&
             !parseNumber(nums[1], 0ULL, 0ULL + UINT64_MAX, param)))
            return false;
        step.nth = static_cast<std::uint32_t>(nth);
        step.param = param;
        steps.push_back(step);
    }
    out = std::move(steps);
    return true;
}

std::string
printScript(const std::vector<AttackStep> &script)
{
    std::string out;
    for (const AttackStep &s : script) {
        out += strformat("%s%s@%u/%llu", out.empty() ? "" : ",",
                         attackClassName(s.cls), s.nth,
                         static_cast<unsigned long long>(s.param));
    }
    return out;
}

/** Index of a secured scheme in the coverage space. */
std::size_t
schemeIndex(OtpScheme s)
{
    switch (s) {
      case OtpScheme::Private:
        return 0;
      case OtpScheme::Shared:
        return 1;
      case OtpScheme::Cached:
        return 2;
      case OtpScheme::Dynamic:
        return 3;
      case OtpScheme::Unsecure:
        break;
    }
    return 0;
}

/** Signal set a run produced, as a bitmask. */
std::uint64_t
signalMask(const TestbedResult &r)
{
    std::uint64_t m = 0;
    m |= (r.macsFailed != 0) << 0;
    m |= (r.decryptsBad != 0) << 1;
    m |= (r.replaySuspects != 0) << 2;
    m |= (r.ctrGaps != 0) << 3;
    m |= (r.outstandingTotal != 0) << 4;
    m |= (r.strandedBatches != 0) << 5;
    m |= (!r.neutralized.empty()) << 6;
    return m;
}

/**
 * Coverage tuples of one run: (scheme, batching, fired attack class,
 * signal set), plus one tuple for the case as a whole (class slot
 * kNumAttackClasses).
 */
void
coverageKeys(const TestbedConfig &cfg, const TestbedResult &r,
             std::vector<std::uint64_t> &out)
{
    const std::uint64_t base =
        (schemeIndex(cfg.scheme) * 2 + (cfg.batching ? 1 : 0)) *
        (kNumAttackClasses + 1);
    const std::uint64_t mask = signalMask(r);
    out.push_back((base + kNumAttackClasses) * 128 + mask);
    for (const std::string &line : r.attackLog) {
        const std::size_t sp = line.find(' ');
        AttackClass cls;
        if (sp != std::string::npos &&
            parseAttackClass(line.substr(0, sp), cls)) {
            out.push_back(
                (base + static_cast<std::uint64_t>(cls)) * 128 + mask);
        }
    }
}

/** Attack classes the generator scripts for @p cfg. DataDrop is
 *  excluded for the Shared scheme (one global per-sender counter
 *  stream makes mid-stream drops genuinely invisible — a documented
 *  blind spot exercised by a dedicated regression test instead). */
std::vector<AttackClass>
scriptableClasses(const TestbedConfig &cfg)
{
    std::vector<AttackClass> out = {
        AttackClass::Replay,  AttackClass::PayloadFlip,
        AttackClass::MacFlip, AttackClass::HeaderFlip,
        AttackClass::AckDrop, AttackClass::AckDup,
        AttackClass::AckReorder, AttackClass::Splice};
    if (cfg.batching) {
        out.push_back(AttackClass::TrailerCorrupt);
        out.push_back(AttackClass::LengthCorrupt);
    }
    if (cfg.scheme != OtpScheme::Shared)
        out.push_back(AttackClass::DataDrop);
    return out;
}

AttackStep
drawStep(Rng &rng, const std::vector<AttackClass> &classes)
{
    AttackStep s;
    s.cls = classes[rng.below(static_cast<std::uint32_t>(
        classes.size()))];
    s.nth = rng.below(8);
    switch (s.cls) {
      case AttackClass::PayloadFlip:
        s.param = rng.below(512);
        break;
      case AttackClass::MacFlip:
      case AttackClass::TrailerCorrupt:
        s.param = rng.below(64);
        break;
      case AttackClass::HeaderFlip:
        s.param = rng.below(6);
        break;
      default:
        s.param = 0;
        break;
    }
    return s;
}

void
finishScript(Rng &rng, TestbedConfig &cfg)
{
    const std::vector<AttackClass> classes = scriptableClasses(cfg);
    const std::uint32_t n = rng.below(4);
    for (std::uint32_t i = 0; i < n; ++i) {
        const AttackStep s = drawStep(rng, classes);
        // HeaderFlip rewrites the counter stream a DataDrop-exposed
        // gap would be attributed through; never combine them.
        const bool has = [&](AttackClass c) {
            for (const AttackStep &e : cfg.script)
                if (e.cls == c)
                    return true;
            return false;
        }(s.cls == AttackClass::DataDrop ? AttackClass::HeaderFlip
                                         : AttackClass::DataDrop);
        if ((s.cls == AttackClass::DataDrop ||
             s.cls == AttackClass::HeaderFlip) &&
            has) {
            continue;
        }
        if (s.cls == AttackClass::DataDrop)
            cfg.requestPercent = 0;
        cfg.script.push_back(s);
    }
}

TestbedConfig
mutateCase(Rng &rng, const TestbedConfig &base)
{
    TestbedConfig cfg = base;
    cfg.seed = rng.next();
    switch (rng.below(4)) {
      case 0:
        cfg.messages = 24 + rng.below(41);
        break;
      case 1:
        cfg.gap = 5 + rng.below(40);
        break;
      case 2:
        if (!cfg.script.empty()) {
            cfg.script[rng.below(static_cast<std::uint32_t>(
                           cfg.script.size()))]
                .nth = rng.below(8);
            break;
        }
        [[fallthrough]];
      default:
        cfg.script.clear();
        finishScript(rng, cfg);
        break;
    }
    return cfg;
}

} // anonymous namespace

const std::vector<Knob<TestbedConfig>> &
reproKnobs()
{
    using T = TestbedConfig;
    static const std::vector<Knob<T>> rows = {
        number<&T::seed>("seed", nullptr, 0, UINT64_MAX, "traffic seed"),
        number<&T::numNodes>("nodes", nullptr, 2, 256,
                             "nodes, node 0 included"),
        choice<&T::scheme>("scheme", nullptr, kOtpSchemeNames,
                           "protection scheme"),
        flag<&T::batching>("batch", nullptr, "metadata batching"),
        number<&T::batchSize>("bsz", nullptr, kMinBatchSize,
                              kMaxBatchSize, "batch length"),
        number<&T::messages>("msgs", nullptr, 1, UINT32_MAX,
                             "data messages sent"),
        number<&T::requestPercent>("req", nullptr, 0, 100,
                                   "percent sent as read requests"),
        number<&T::gap>("gap", nullptr, 1, UINT64_MAX,
                        "mean inter-send gap in cycles"),
        choice<&T::bug>("bug", nullptr, kSeededBugNames, "seeded bug"),
        number<&T::bugTrigger>("trigger", nullptr, 0, UINT32_MAX,
                               "eligible packet that triggers the bug"),
        choice<&T::topology, &TopologyConfig::kind>(
            "topo", nullptr, kTopologyKindNames, "fabric"),
        bind<&T::script>("script", nullptr, "STEPS",
                         "CLASS@NTH/PARAM attack steps", "", parseScript,
                         printScript),
    };
    return rows;
}

std::string
encodeRepro(const TestbedConfig &cfg)
{
    std::string out = "v1";
    for (const Knob<TestbedConfig> &k : reproKnobs())
        out += ';' + std::string(k.name) + '=' + k.print(cfg);
    return out;
}

bool
decodeRepro(const std::string &text, TestbedConfig &out)
{
    const std::vector<std::string> parts = splitList(text, ';');
    if (parts[0] != "v1")
        return false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        const Knob<TestbedConfig> *k =
            eq == std::string::npos
                ? nullptr
                : findKnob(reproKnobs(), parts[i].substr(0, eq));
        if (!k || !k->parse(out, parts[i].substr(eq + 1)))
            return false;
    }
    return checkFabric(out.numNodes, out.topology).empty();
}

CaseOutcome
runCase(const TestbedConfig &cfg)
{
    VerifyTestbed tb(cfg);
    CaseOutcome out;
    out.result = tb.run();
    out.failed = !out.result.pass();
    return out;
}

TestbedConfig
generateCase(Rng &rng, SeededBug inject)
{
    TestbedConfig cfg;
    static constexpr OtpScheme kSecured[] = {
        OtpScheme::Private, OtpScheme::Shared, OtpScheme::Cached,
        OtpScheme::Dynamic};
    cfg.scheme = kSecured[rng.below(4)];
    cfg.batching = rng.below(2) != 0;
    cfg.batchSize = 2 + rng.below(5);
    cfg.numNodes = 2 + rng.below(3);
    cfg.messages = 24 + rng.below(41);
    cfg.requestPercent = rng.below(2) != 0 ? 0 : rng.below(40);
    cfg.gap = 5 + rng.below(40);
    cfg.seed = rng.next();
    cfg.bug = inject;
    cfg.bugTrigger = 2 + rng.below(6);
    finishScript(rng, cfg);
    return cfg;
}

TestbedConfig
shrinkCase(const TestbedConfig &failing, std::uint32_t *runs_used)
{
    constexpr std::uint32_t kShrinkBudget = 200;
    TestbedConfig best = failing;
    std::uint32_t used = 0;
    const auto fails = [&used](const TestbedConfig &c) {
        ++used;
        return runCase(c).failed;
    };

    bool progress = true;
    while (progress && used < kShrinkBudget) {
        progress = false;
        for (std::size_t i = 0; i < best.script.size(); ++i) {
            TestbedConfig c = best;
            c.script.erase(c.script.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (fails(c)) {
                best = c;
                progress = true;
                break;
            }
        }
        if (progress)
            continue;
        if (best.messages > 4) {
            TestbedConfig c = best;
            c.messages = std::max<std::uint32_t>(4, best.messages / 2);
            if (fails(c)) {
                best = c;
                continue;
            }
        }
        if (best.topology.kind != TopologyKind::P2p) {
            // Downgrade one rung at a time: a hier failure may need
            // switch contention but not the inter-node trunk.
            TestbedConfig c = best;
            c.topology.kind = best.topology.kind == TopologyKind::Hier
                                  ? TopologyKind::NvSwitch
                                  : TopologyKind::P2p;
            if (fails(c)) {
                best = c;
                continue;
            }
        }
        if (best.numNodes > 4) {
            TestbedConfig c = best;
            c.numNodes = std::max<std::uint32_t>(2, best.numNodes / 2);
            if (fails(c)) {
                best = c;
                continue;
            }
        }
        if (best.numNodes > 2) {
            TestbedConfig c = best;
            c.numNodes = 2;
            if (fails(c)) {
                best = c;
                continue;
            }
        }
        if (best.requestPercent != 0) {
            TestbedConfig c = best;
            c.requestPercent = 0;
            if (fails(c)) {
                best = c;
                continue;
            }
        }
        if (best.batching) {
            TestbedConfig c = best;
            c.batching = false;
            if (fails(c)) {
                best = c;
                continue;
            }
        }
    }
    if (runs_used != nullptr)
        *runs_used = used;
    return best;
}

CampaignResult
runCampaign(const CampaignConfig &cc)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const auto expired = [&] {
        if (cc.budgetSeconds <= 0)
            return false;
        const std::chrono::duration<double> dt = Clock::now() - start;
        return dt.count() >= cc.budgetSeconds;
    };
    // A campaign with neither bound would spin forever.
    const std::uint32_t max_runs =
        (cc.maxRuns == 0 && cc.budgetSeconds <= 0) ? 1 : cc.maxRuns;

    Rng rng(cc.seed);
    std::set<std::uint64_t> coverage;
    std::vector<TestbedConfig> corpus;
    CampaignResult out;

    while ((max_runs == 0 || out.runs < max_runs) && !expired()) {
        TestbedConfig cfg;
        if (!corpus.empty() && rng.below(2) != 0) {
            cfg = mutateCase(
                rng, corpus[rng.below(static_cast<std::uint32_t>(
                         corpus.size()))]);
        } else {
            cfg = generateCase(rng, cc.injectBug);
        }
        // Campaign-wide overrides land after generation so they never
        // perturb the seeded RNG stream (same trick as simThreads).
        cfg.simThreads = cc.simThreads;
        cfg.topology = cc.topology;
        if (cc.numNodes != 0)
            cfg.numNodes = cc.numNodes;
        const CaseOutcome oc = runCase(cfg);
        ++out.runs;
        out.attacksMounted += oc.result.attacksMounted;

        std::vector<std::uint64_t> keys;
        coverageKeys(cfg, oc.result, keys);
        bool fresh = false;
        for (std::uint64_t k : keys)
            fresh |= coverage.insert(k).second;
        if (fresh && corpus.size() < 32)
            corpus.push_back(cfg);

        if (cc.verbose) {
            std::printf("run %llu: %s | attacks=%llu findings=%zu "
                        "cov=%zu\n",
                        static_cast<unsigned long long>(out.runs),
                        encodeRepro(cfg).c_str(),
                        static_cast<unsigned long long>(
                            oc.result.attacksMounted),
                        oc.result.findings.size(), coverage.size());
        }

        if (oc.failed) {
            out.failed = true;
            std::uint32_t shrink_runs = 0;
            const TestbedConfig small =
                shrinkCase(cfg, &shrink_runs);
            out.runs += shrink_runs;
            out.repro = encodeRepro(small);
            out.findings = runCase(small).result.findings;
            ++out.runs;
            break;
        }
    }
    out.coverage = coverage.size();
    return out;
}

} // namespace mgsec::verify
