/**
 * @file
 * Offline analyzer for the simulator's observability artifacts.
 *
 * Report mode (one input): print a Fig. 11-shaped per-stage latency
 * breakdown table from the "attr" histogram group of a stats/hist
 * JSON dump, or from every run indexed in an --observe directory.
 *
 * Compare mode (--compare OLD NEW): flatten every numeric leaf of
 * both documents into dotted paths (core/compare.hh), flag any value
 * that moved by more than --threshold percent, and write a
 * machine-readable BENCH_report.json verdict. Exit status 1 when the
 * gate trips, so CI can use it directly as a regression gate.
 *
 * Leakage mode: an --observe directory whose runs carry WIRE_*.json
 * wire-observer dumps additionally gets a "leakage" section — per
 * configuration signature and shaping policy, the wire-timing
 * workload classifier's accuracy (src/verify/observer_adversary.hh),
 * the gap-distribution channel capacity, and the time/traffic cost
 * of the policy relative to the unshaped runs: the leakage-vs-
 * overhead frontier. --leakage-json FILE writes it machine-readably.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/compare.hh"
#include "core/json_in.hh"
#include "core/knobs.hh"
#include "sim/json_writer.hh"
#include "verify/observer_adversary.hh"

namespace
{

using mgsec::CompareStats;
using mgsec::JsonValue;

int
usage(const char *argv0, int status)
{
    std::ostream &os = status == 0 ? std::cout : std::cerr;
    os << "usage: " << argv0 << " [options] INPUT\n"
       << "       " << argv0 << " [options] --compare OLD NEW\n"
       << "\n"
       << "INPUT, OLD, NEW are stats/histogram JSON files "
       << "(--stats-json dumps,\n"
       << "sweep --json results, HIST_*.json) or --observe "
       << "directories holding\n"
       << "an OBSERVE_INDEX.json.\n"
       << "\n"
       << "  --compare OLD NEW  diff two inputs instead of printing "
       << "a breakdown\n"
       << "  --threshold PCT    flag leaves moving more than PCT% "
       << "(default 10)\n"
       << "  --out FILE         compare verdict JSON (default "
       << "BENCH_report.json)\n"
       << "  --ignore SUBSTR    skip paths containing SUBSTR "
       << "(repeatable;\n"
       << "                     wall-clock rates are always "
       << "ignored)\n"
       << "  --leakage-json FILE  also write the leakage/frontier "
       << "section as JSON\n"
       << "                     (report mode on an --observe "
       << "directory with WIRE files)\n"
       << "  --prof             INPUT is a PROF_*.json self-profiler "
       << "dump (or an\n"
       << "                     --observe directory with PROF files): "
       << "print the\n"
       << "                     host phase breakdown and PDES "
       << "efficiency verdict\n";
    return status;
}

bool
isObserveDir(const std::string &path)
{
    std::ifstream is(path + "/OBSERVE_INDEX.json");
    return static_cast<bool>(is);
}

double
num(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f ? f->asNumber() : 0.0;
}

/** One row of the breakdown table, read from a histogram object. */
struct Row
{
    std::string label;
    bool present = false;
    double count = 0, sum = 0, mean = 0;
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
};

Row
makeRow(const std::string &label, const JsonValue *h)
{
    Row r;
    r.label = label;
    if (!h || !h->isObject())
        return r;
    r.present = true;
    r.count = num(*h, "count");
    r.sum = num(*h, "sum");
    r.mean = num(*h, "mean");
    r.p50 = num(*h, "p50");
    r.p90 = num(*h, "p90");
    r.p99 = num(*h, "p99");
    r.p999 = num(*h, "p999");
    r.max = num(*h, "max");
    return r;
}

const char *const kStages[] = {"padClaim", "padWait", "xmit", "wire",
                               "recvVerify"};
const char *const kLinks[] = {"pcie", "nvlink"};

/** Print the per-stage breakdown of one "attr" group object. */
void
printAttrTable(const JsonValue &attr)
{
    for (const char *link : kLinks) {
        const Row e2e =
            makeRow("e2e", attr.find(std::string(link) + ".e2e"));
        if (!e2e.present || e2e.count == 0)
            continue;
        std::printf("\n%s (%.0f messages)\n", link, e2e.count);
        std::printf("  %-12s %10s %10s %10s %10s %10s %10s %7s\n",
                    "stage", "mean", "p50", "p90", "p99", "p99.9",
                    "max", "%e2e");
        auto line = [&](const Row &r) {
            if (!r.present)
                return;
            const double share =
                e2e.sum > 0 ? 100.0 * r.sum / e2e.sum : 0.0;
            std::printf(
                "  %-12s %10.1f %10.0f %10.0f %10.0f %10.0f %10.0f "
                "%6.1f%%\n",
                r.label.c_str(), r.mean, r.p50, r.p90, r.p99, r.p999,
                r.max, share);
        };
        for (const char *st : kStages)
            line(makeRow(st,
                         attr.find(std::string(link) + "." + st)));
        std::printf(
            "  %-12s %10.1f %10.0f %10.0f %10.0f %10.0f %10.0f "
            "%6.1f%%\n",
            "e2e", e2e.mean, e2e.p50, e2e.p90, e2e.p99, e2e.p999,
            e2e.max, 100.0);
    }
}

/** Report mode over one parsed document. */
bool
reportDocument(const JsonValue &doc, const std::string &what)
{
    const JsonValue *attr = doc.find("attr");
    if (!attr || !attr->isObject()) {
        std::fprintf(stderr,
                     "%s: no \"attr\" histogram group (was the run "
                     "made with --attr on?)\n",
                     what.c_str());
        return false;
    }
    if (const JsonValue *scheme = doc.find("scheme"))
        std::printf("scheme: %s", scheme->string.c_str());
    if (const JsonValue *folds = doc.find("folds"))
        std::printf("  folds: %.0f", folds->asNumber());
    if (doc.find("scheme") || doc.find("folds"))
        std::printf("\n");
    printAttrTable(*attr);
    return true;
}

/**
 * Self-profiler report mode over one PROF_*.json document: phase
 * breakdown plus the PDES efficiency verdict. Times in the document
 * are nanoseconds; the table prints microseconds/milliseconds.
 */
bool
reportProf(const JsonValue &doc, const std::string &what)
{
    const JsonValue *phases = doc.find("phases");
    if (!phases || !phases->isObject()) {
        std::fprintf(stderr,
                     "%s: no \"phases\" group (not a PROF_*.json "
                     "self-profiler dump?)\n",
                     what.c_str());
        return false;
    }
    std::printf("host profile: %.0f worker(s), %.0f domain(s), "
                "%.1f ms wall, %.0f spans\n",
                num(doc, "threads"), num(doc, "domains"),
                num(doc, "wallNs") / 1e6, num(doc, "spans"));

    // Share is of summed phase time. cryptoSeal/cryptoOpen enclose
    // padGen, so the column can exceed 100% in crypto-heavy runs —
    // it ranks phases, it is not a partition of wall time.
    std::vector<Row> rows;
    double totalSum = 0.0;
    for (const auto &[name, h] : phases->fields) {
        Row r = makeRow(name, &h);
        if (r.present && r.count > 0) {
            totalSum += r.sum;
            rows.push_back(std::move(r));
        }
    }
    std::printf("  %-13s %10s %11s %11s %11s %11s %7s\n", "phase",
                "spans", "mean us", "p50 us", "p99 us", "total ms",
                "%time");
    for (const Row &r : rows)
        std::printf("  %-13s %10.0f %11.1f %11.1f %11.1f %11.2f "
                    "%6.1f%%\n",
                    r.label.c_str(), r.count, r.mean / 1e3,
                    r.p50 / 1e3, r.p99 / 1e3, r.sum / 1e6,
                    totalSum > 0 ? 100.0 * r.sum / totalSum : 0.0);

    const JsonValue *pdes = doc.find("pdes");
    if (!pdes || num(*pdes, "windows") == 0) {
        std::printf("pdes: no barrier windows recorded\n");
        return true;
    }
    const JsonValue *stall = pdes->find("topStallPhase");
    std::printf("pdes: %.0f windows, parallel efficiency %.1f%%, "
                "imbalance %.2fx,\n"
                "      barrier-wait %.1f%% of exec+wait, top stall: "
                "%s\n",
                num(*pdes, "windows"),
                num(*pdes, "parallelEfficiencyPct"),
                num(*pdes, "imbalance"),
                100.0 * num(*pdes, "barrierFrac"),
                stall && stall->isString() ? stall->string.c_str()
                                           : "none");
    if (const JsonValue *workers = pdes->find("workers")) {
        std::printf("  %-8s %14s %12s %14s\n", "worker", "events",
                    "busy ms", "events/s");
        for (const JsonValue &wv : workers->items)
            std::printf("  %-8.0f %14.0f %12.2f %14.0f\n",
                        num(wv, "worker"), num(wv, "events"),
                        num(wv, "busyNs") / 1e6,
                        num(wv, "eventsPerSec"));
    }
    if (const JsonValue *doms = pdes->find("domains")) {
        std::printf("  %-8s %14s %12s %14s\n", "domain", "events",
                    "busy ms", "windows");
        for (const JsonValue &dv : doms->items)
            std::printf("  %-8.0f %14.0f %12.2f %14.0f\n",
                        num(dv, "domain"), num(dv, "events"),
                        num(dv, "busyNs") / 1e6,
                        num(dv, "windowsActive"));
    }
    return true;
}

/** The runs an OBSERVE_INDEX.json names, as (hash, key) pairs. */
bool
loadIndex(const std::string &dir,
          std::vector<std::pair<std::string, std::string>> &out)
{
    JsonValue idx;
    std::string err;
    if (!mgsec::jsonParseFile(dir + "/OBSERVE_INDEX.json", idx,
                              err)) {
        std::fprintf(stderr, "%s/OBSERVE_INDEX.json: %s\n",
                     dir.c_str(), err.c_str());
        return false;
    }
    const JsonValue *runs = idx.find("runs");
    if (!runs || !runs->isArray()) {
        std::fprintf(stderr, "%s: index has no \"runs\" array\n",
                     dir.c_str());
        return false;
    }
    for (const JsonValue &r : runs->items) {
        const JsonValue *h = r.find("hash");
        const JsonValue *k = r.find("key");
        if (h && h->isString())
            out.emplace_back(h->string,
                             k && k->isString() ? k->string : "");
    }
    return true;
}

/**
 * @name Leakage section
 * Built from the WIRE_*.json dumps of an --observe directory. Runs
 * are grouped by configuration signature (configKey minus its
 * workload, seed and shape segments) x shaping policy; within a
 * group the workload is the class label and the seed the LOSO fold.
 */
/// @{

/** One observed run with everything the frontier table needs. */
struct LeakRun
{
    std::string hash;
    std::string workload;
    std::string shape = "none";
    std::string signature; ///< configKey minus workload/seed/shape
    std::uint64_t seed = 0;
    double bytes = 0.0;
    double duration = 0.0;
    mgsec::verify::ObservedRun obs;
    /** pcie+nvlink merged inter-packet-gap buckets (lo -> count). */
    std::map<double, std::uint64_t> gapBuckets;
};

/** "SEGMENT=" of the experiment knob that takes --@p flag. */
std::string
keySegment(const char *flag)
{
    using namespace mgsec;
    return std::string(findKnob(experimentKnobs(), flag)->segment) + "=";
}

/** Split a configKey into workload/seed/shape and the signature. */
void
parseConfigKey(const std::string &key, LeakRun &run)
{
    static const std::string seed = keySegment("seed");
    static const std::string shape = keySegment("shape");
    const std::vector<std::string> segs = mgsec::splitList(key, '|');
    run.workload = segs[0];
    for (std::size_t i = 1; i < segs.size(); ++i) {
        const std::string &seg = segs[i];
        if (seg.rfind(seed, 0) == 0) {
            mgsec::parseNumber<std::uint64_t>(seg.substr(seed.size()), 0,
                                              UINT64_MAX, run.seed);
        } else if (seg.rfind(shape, 0) == 0) {
            // "constant-rate/64/128/96" -> policy name only
            run.shape = mgsec::splitList(seg.substr(shape.size()), '/')[0];
        } else {
            run.signature.append(run.signature.empty() ? "" : "|")
                .append(seg);
        }
    }
}

/** Accumulate a histogram object's [lo, count] buckets into @p out. */
void
addGapBuckets(const JsonValue *hist,
              std::map<double, std::uint64_t> &out)
{
    const JsonValue *buckets = hist ? hist->find("buckets") : nullptr;
    if (!buckets || !buckets->isArray())
        return;
    for (const JsonValue &b : buckets->items) {
        if (b.isArray() && b.items.size() == 2)
            out[b.items[0].asNumber()] += static_cast<std::uint64_t>(
                b.items[1].asNumber());
    }
}

/** Load WIRE_<hash>.json into @p run. False when absent/invalid. */
bool
loadWire(const std::string &dir, const std::string &hash,
         const std::string &key, LeakRun &run)
{
    JsonValue doc;
    std::string err;
    if (!mgsec::jsonParseFile(dir + "/WIRE_" + hash + ".json", doc,
                              err))
        return false;
    run.hash = hash;
    parseConfigKey(key, run);
    run.bytes = num(doc, "bytes");
    run.duration = num(doc, "durationCycles");
    run.obs.label = run.workload;
    run.obs.seed = run.seed;
    const JsonValue *features = doc.find("features");
    if (!features || !features->isObject())
        return false;
    for (const auto &[name, v] : features->fields)
        run.obs.features.emplace_back(name, v.asNumber());
    if (const JsonValue *links = doc.find("links")) {
        for (const char *link : kLinks)
            if (const JsonValue *cls = links->find(link))
                addGapBuckets(cls->find("gap"), run.gapBuckets);
    }
    return true;
}

/** One frontier row: a (signature, shape) cell's scores. */
struct FrontierRow
{
    std::string shape;
    mgsec::verify::LeakageReport rep;
    double capacityBits = 0.0;
    double timeX = 1.0;    ///< mean duration vs the unshaped runs
    double trafficX = 1.0; ///< mean bytes vs the unshaped runs
    bool hasOverhead = false;
};

/** "none" sorts first so every table leads with the baseline. */
bool
shapeBefore(const std::string &a, const std::string &b)
{
    if (a == b)
        return false;
    if (a == "none")
        return true;
    if (b == "none")
        return false;
    return a < b;
}

std::vector<FrontierRow>
frontierRows(const std::vector<const LeakRun *> &group)
{
    // Partition by shape.
    std::map<std::string, std::vector<const LeakRun *>> by_shape;
    for (const LeakRun *r : group)
        by_shape[r->shape].push_back(r);
    const auto *none_runs = by_shape.count("none")
                                ? &by_shape.at("none")
                                : nullptr;

    std::vector<FrontierRow> rows;
    for (const auto &[shape, runs] : by_shape) {
        FrontierRow row;
        row.shape = shape;

        std::vector<mgsec::verify::ObservedRun> obs;
        std::map<std::string,
                 std::map<double, std::uint64_t>> class_gaps;
        for (const LeakRun *r : runs) {
            obs.push_back(r->obs);
            for (const auto &[lo, n] : r->gapBuckets)
                class_gaps[r->workload][lo] += n;
        }
        row.rep = mgsec::verify::classifyLeaveOneSeedOut(obs);
        std::vector<std::vector<std::pair<double, std::uint64_t>>>
            hists;
        for (const auto &[wl, buckets] : class_gaps)
            hists.emplace_back(buckets.begin(), buckets.end());
        row.capacityBits = mgsec::verify::jsdCapacityBits(hists);

        // Overhead vs the matching unshaped (workload, seed) runs.
        if (none_runs) {
            double time_sum = 0.0, traf_sum = 0.0;
            std::size_t matches = 0;
            for (const LeakRun *r : runs) {
                for (const LeakRun *base : *none_runs) {
                    if (base->workload != r->workload ||
                        base->seed != r->seed)
                        continue;
                    if (base->duration > 0.0 && base->bytes > 0.0) {
                        time_sum += r->duration / base->duration;
                        traf_sum += r->bytes / base->bytes;
                        ++matches;
                    }
                    break;
                }
            }
            if (matches) {
                row.timeX = time_sum / static_cast<double>(matches);
                row.trafficX =
                    traf_sum / static_cast<double>(matches);
                row.hasOverhead = true;
            }
        }
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const FrontierRow &a, const FrontierRow &b) {
                  return shapeBefore(a.shape, b.shape);
              });
    return rows;
}

/**
 * Print the leakage section (and optionally write it as JSON) from
 * an observe directory's indexed WIRE dumps. Returns false only on
 * a write failure of @p jsonOut.
 */
bool
reportLeakage(
    const std::string &dir,
    const std::vector<std::pair<std::string, std::string>> &idx,
    const std::string &jsonOut)
{
    std::vector<LeakRun> runs;
    for (const auto &[hash, key] : idx) {
        LeakRun run;
        if (loadWire(dir, hash, key, run))
            runs.push_back(std::move(run));
    }
    if (runs.empty())
        return true; // no WIRE dumps -> no section

    std::map<std::string, std::vector<const LeakRun *>> groups;
    for (const LeakRun &r : runs)
        groups[r.signature].push_back(&r);

    std::printf("\n== leakage (passive wire observer) ==\n");
    std::printf("classifier: nearest-centroid, leave-one-seed-out, "
                "timing-shape features only\n");
    for (const auto &[signature, group] : groups) {
        const auto rows = frontierRows(group);
        std::printf("\nconfig: %s\n", signature.c_str());
        std::printf("  %-15s %5s %4s %7s %7s %10s %7s %7s\n",
                    "shape", "runs", "cls", "acc", "chance",
                    "cap(bits)", "timeX", "trafX");
        for (const FrontierRow &r : rows) {
            std::printf(
                "  %-15s %5zu %4zu %7.3f %7.3f %10.3f %7.3f %7.3f\n",
                r.shape.c_str(), r.rep.runs, r.rep.classes,
                r.rep.accuracy, r.rep.chance, r.capacityBits,
                r.timeX, r.trafficX);
        }
    }

    if (jsonOut.empty())
        return true;
    std::ofstream os(jsonOut);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", jsonOut.c_str());
        return false;
    }
    mgsec::JsonWriter w(os);
    w.beginObject();
    w.field("classifier",
            std::string("nearest-centroid-loso-timing"));
    w.beginArray("groups");
    for (const auto &[signature, group] : groups) {
        w.beginObject();
        w.field("signature", signature);
        w.beginArray("rows");
        for (const FrontierRow &r : frontierRows(group)) {
            w.beginObject();
            w.field("shape", r.shape);
            w.field("runs", static_cast<std::uint64_t>(r.rep.runs));
            w.field("classes",
                    static_cast<std::uint64_t>(r.rep.classes));
            w.field("evaluated",
                    static_cast<std::uint64_t>(r.rep.evaluated));
            w.field("correct",
                    static_cast<std::uint64_t>(r.rep.correct));
            w.field("accuracy", r.rep.accuracy);
            w.field("chance", r.rep.chance);
            w.field("capacityBits", r.capacityBits);
            w.field("timeX", r.timeX);
            w.field("trafficX", r.trafficX);
            w.field("hasOverhead", r.hasOverhead);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return true;
}

/// @}

/**
 * The per-thread-count speedups of a document's "simThreads" bench
 * section, as (point key, speedup) pairs in document order. Empty
 * when the document has no such section (sweep dumps, HIST files).
 */
std::vector<std::pair<std::string, double>>
simThreadsSpeedups(const JsonValue &doc)
{
    std::vector<std::pair<std::string, double>> out;
    const JsonValue *st = doc.find("simThreads");
    if (!st || !st->isObject())
        return out;
    for (const auto &[k, v] : st->fields) {
        if (!v.isObject())
            continue;
        if (const JsonValue *s = v.find("speedup"))
            out.emplace_back(k, s->asNumber());
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    // Wall-clock-derived keys vary run to run on a shared CI host;
    // the simulated counters are the deterministic gate.
    std::vector<std::string> ignores = mgsec::defaultCompareIgnores();
    double threshold = 10.0;
    std::string outPath = "BENCH_report.json";
    std::string leakageJson;
    bool compare = false;
    bool prof = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for '%s'\n",
                             arg.c_str());
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--prof") {
            prof = true;
        } else if (arg == "--threshold") {
            if (!mgsec::parseNumber(value(), 0.0, 1e9, threshold)) {
                std::fprintf(stderr, "bad --threshold value\n");
                return usage(argv[0], 2);
            }
        } else if (arg == "--out") {
            outPath = value();
        } else if (arg == "--ignore") {
            ignores.push_back(value());
        } else if (arg == "--leakage-json") {
            leakageJson = value();
        } else if (arg == "--stats-json" || arg == "--observe") {
            inputs.push_back(value());
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return usage(argv[0], 2);
        } else {
            inputs.push_back(arg);
        }
    }

    if (compare ? inputs.size() != 2 : inputs.size() != 1)
        return usage(argv[0], 2);

    // Resolve each input to named JSON documents: a file is one
    // document; an --observe directory is one per indexed run,
    // matched across inputs by config hash.
    auto loadDocs =
        [&](const std::string &in,
            std::vector<std::pair<std::string, JsonValue>> &docs) {
            std::string err;
            if (isObserveDir(in)) {
                std::vector<std::pair<std::string, std::string>> idx;
                if (!loadIndex(in, idx))
                    return false;
                for (const auto &[hash, key] : idx) {
                    JsonValue doc;
                    const std::string path = in + "/" +
                        (prof ? "PROF_" : "STATS_") + hash + ".json";
                    if (prof &&
                        !static_cast<bool>(std::ifstream(path))) {
                        // mgsec_run --observe-dir bundles carry no
                        // PROF file; a killed sweep may index runs
                        // it never profiled. Report what exists.
                        std::fprintf(stderr, "%s: absent, skipped\n",
                                     path.c_str());
                        continue;
                    }
                    if (!mgsec::jsonParseFile(path, doc, err)) {
                        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                                     err.c_str());
                        return false;
                    }
                    docs.emplace_back(hash, std::move(doc));
                }
                return true;
            }
            JsonValue doc;
            if (!mgsec::jsonParseFile(in, doc, err)) {
                std::fprintf(stderr, "%s: %s\n", in.c_str(),
                             err.c_str());
                return false;
            }
            docs.emplace_back("", std::move(doc));
            return true;
        };

    std::vector<std::pair<std::string, JsonValue>> oldDocs;
    if (!loadDocs(inputs[0], oldDocs))
        return 2;

    if (!compare) {
        bool any = false;
        for (const auto &[name, doc] : oldDocs) {
            if (!name.empty())
                std::printf("== run %s ==\n", name.c_str());
            const std::string what =
                name.empty() ? inputs[0] : name;
            any |= prof ? reportProf(doc, what)
                        : reportDocument(doc, what);
        }
        if (prof)
            return any ? 0 : 2;
        if (isObserveDir(inputs[0])) {
            std::vector<std::pair<std::string, std::string>> idx;
            if (loadIndex(inputs[0], idx)) {
                if (!reportLeakage(inputs[0], idx, leakageJson))
                    return 2;
                any = true;
            }
        }
        return any ? 0 : 2;
    }

    std::vector<std::pair<std::string, JsonValue>> newDocs;
    if (!loadDocs(inputs[1], newDocs))
        return 2;

    // Sharded-kernel scaling column: speedups are wall-clock derived
    // and therefore never gated, but a scaling regression should be
    // visible in the CI log right next to the verdict.
    struct StRow
    {
        std::string key;
        double oldSp = 0.0, newSp = 0.0;
    };
    std::vector<StRow> stRows;

    CompareStats cs;
    for (const auto &[name, oldDoc] : oldDocs) {
        const JsonValue *newDoc = nullptr;
        for (const auto &[nname, nd] : newDocs) {
            if (nname == name) {
                newDoc = &nd;
                break;
            }
        }
        if (!newDoc) {
            std::fprintf(stderr,
                         "run '%s' only present in old input\n",
                         name.c_str());
            ++cs.onlyOld;
            continue;
        }
        mgsec::compareDocs(oldDoc, *newDoc, name, threshold, ignores,
                           cs);

        const auto oldSp = simThreadsSpeedups(oldDoc);
        const auto newSp = simThreadsSpeedups(*newDoc);
        for (const auto &[k, ov] : oldSp) {
            StRow row;
            row.key = name.empty() ? k : name + "." + k;
            row.oldSp = ov;
            for (const auto &[nk, nv] : newSp) {
                if (nk == k)
                    row.newSp = nv;
            }
            stRows.push_back(std::move(row));
        }
    }

    const bool regressed = !cs.flagged.empty();
    std::printf("compared %llu leaves at threshold %.3g%%: %zu "
                "flagged (%llu only-old, %llu only-new paths)\n",
                static_cast<unsigned long long>(cs.checked),
                threshold, cs.flagged.size(),
                static_cast<unsigned long long>(cs.onlyOld),
                static_cast<unsigned long long>(cs.onlyNew));
    for (const mgsec::FlaggedLeaf &f : cs.flagged)
        std::printf("  %-50s %14g -> %14g  (%+.2f%%)\n",
                    f.path.c_str(), f.oldVal, f.newVal, f.deltaPct);

    if (!stRows.empty()) {
        std::printf("sim-threads speedup (informational, never "
                    "gated):\n");
        std::printf("  %-16s %12s %12s\n", "threads", "old", "new");
        for (const StRow &r : stRows)
            std::printf("  %-16s %11.2fx %11.2fx\n", r.key.c_str(),
                        r.oldSp, r.newSp);
    }

    std::ofstream os(outPath);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", outPath.c_str());
        return 2;
    }
    mgsec::JsonWriter w(os);
    w.beginObject();
    w.field("verdict", std::string(regressed ? "regressed" : "ok"));
    w.field("threshold", threshold);
    w.field("checked", cs.checked);
    w.field("onlyOld", cs.onlyOld);
    w.field("onlyNew", cs.onlyNew);
    w.beginArray("flagged");
    for (const mgsec::FlaggedLeaf &f : cs.flagged) {
        w.beginObject();
        w.field("path", f.path);
        w.field("old", f.oldVal);
        w.field("new", f.newVal);
        w.field("deltaPct", f.deltaPct);
        w.endObject();
    }
    w.endArray();
    if (!stRows.empty()) {
        w.key("simThreads");
        w.beginObject();
        for (const StRow &r : stRows) {
            w.key(r.key);
            w.beginObject();
            w.field("oldSpeedup", r.oldSp);
            w.field("newSpeedup", r.newSp);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    os << "\n";

    return regressed ? 1 : 0;
}
