/**
 * @file
 * mgsec_sweep — the full workload x scheme matrix in one run:
 * normalized execution time for every paper workload under every
 * protection scheme, plus traffic ratios. This is the "is the model
 * calibrated?" dashboard used while developing the reproduction.
 *
 * Flags: mgsec_sweep --help.
 *
 * The matrix runs on the parallel job pool; the unsecure baseline of
 * each (workload, seed) is simulated once and shared by all six
 * configurations, and results are keyed by submission order, so any
 * --jobs value emits identical tables.
 *
 * --shape repeats the matrix once per traffic-shaping policy (one
 * table per policy; JSON rows gain a "shape" field), sharing the
 * unshaped baselines. The default (--shape none) reproduces the
 * historical output byte for byte.
 */

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/json_out.hh"
#include "core/knobs.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace mgsec;

namespace
{

struct Config
{
    const char *label;
    OtpScheme scheme;
    bool batching;
    std::uint32_t mult;
};

const std::vector<Config> kConfigs = {
    {"Priv4x", OtpScheme::Private, false, 4},
    {"Priv16x", OtpScheme::Private, false, 16},
    {"Shared", OtpScheme::Shared, false, 4},
    {"Cached4x", OtpScheme::Cached, false, 4},
    {"Dyn4x", OtpScheme::Dynamic, false, 4},
    {"Ours4x", OtpScheme::Dynamic, true, 4},
};

/** A comma-separated list field, parsed and printed item by item. */
template <auto M, typename Parse, typename Print>
Knob<SweepArgs>
listOf(const char *name, const char *meta, const char *help,
       std::string values, Parse parse, Print print)
{
    using V = typename KnobField<M>::value_type;
    return bind<M>(
        name, nullptr, meta, help, std::move(values),
        [parse](const std::string &text, std::vector<V> &out) {
            std::vector<V> vs;
            for (const std::string &tok : splitList(text, ',')) {
                if (!parse(tok, vs.emplace_back()))
                    return false;
            }
            return out = std::move(vs), true;
        },
        [print](const std::vector<V> &vs) {
            std::string text;
            for (const V &v : vs)
                text.append(text.empty() ? "" : ",").append(print(v));
            return text;
        });
}

/** The matrix flags mgsec_sweep adds to the shared sweep rows. */
std::vector<Knob<SweepArgs>>
matrixKnobs()
{
    using S = SweepArgs;
    using E = ExperimentConfig;
    return {
        sweepKnob<&S::gpus, &E::numGpus>("gpus"),
        text<&S::observeDir>(
            "observe",
            "write per-job METRICS_/TRACE_/STATS_/HIST_/WIRE_/"
            "PROF_<hash>.json files, an OBSERVE_INDEX.json and a "
            "PROGRESS.jsonl heartbeat into DIR",
            "DIR"),
        listOf<&S::shapes>(
            "shape", "P[,P...]",
            "shaping policies to sweep (extra policies add rows to the "
            "matrix)",
            findKnob(experimentKnobs(), "shape")->values,
            [](const std::string &t, ShapingPolicy &p) {
                return parseIn(kShapingPolicyNames, t, p);
            },
            shapingPolicyName),
        listOf<&S::workloads>(
            "workloads", "W[,W...]",
            "restrict the matrix to these workloads (default all)", "",
            parseWorkload, [](const std::string &w) { return w; }),
        sweepKnob<&S::topology, &E::topology>("topology"),
    };
}

/** handles[shape][workload][config]; shaped = --shape was given. */
void
writeJson(std::ostream &os, const SweepArgs &args, const Sweep &sweep,
          const std::vector<std::string> &names, bool shaped,
          const std::vector<std::vector<std::vector<std::size_t>>>
              &handles)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("gpus", static_cast<std::uint64_t>(args.gpus));
    if (args.topology.kind != TopologyKind::P2p)
        w.field("topology",
                std::string(topologyKindName(args.topology.kind)));
    w.field("scale", args.scale);
    w.field("seeds", static_cast<std::uint64_t>(args.seeds));
    w.field("jobs", static_cast<std::uint64_t>(sweep.jobs()));
    w.field("baselineRuns", sweep.baselineRuns());
    w.field("baselineHits", sweep.baselineHits());
    w.beginArray("rows");
    for (std::size_t sh = 0; sh < args.shapes.size(); ++sh) {
        for (std::size_t wl = 0; wl < names.size(); ++wl) {
            w.beginObject();
            w.field("workload", names[wl]);
            if (shaped)
                w.field("shape",
                        std::string(
                            shapingPolicyName(args.shapes[sh])));
            for (std::size_t c = 0; c < kConfigs.size(); ++c) {
                const NormResult &n =
                    sweep.normalized(handles[sh][wl][c]);
                w.key(std::string("time") + kConfigs[c].label);
                w.value(n.time);
                w.key(std::string("traffic") + kConfigs[c].label);
                w.value(n.traffic);
            }
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SweepArgs args;
    args.scale = 1.0;
    args.parseArgs(argc, argv, matrixKnobs());

    // With the default --shape none / all-workloads arguments the
    // loops below degenerate to the historical single matrix and the
    // output stays byte-identical.
    const bool shaped = args.shapes.size() > 1 ||
                        args.shapes[0] != ShapingPolicy::None;
    const std::vector<std::string> names =
        args.workloads.empty() ? workloadNames() : args.workloads;

    std::cout << "normalized execution time, " << args.gpus
              << "-GPU system, " << args.seeds << " seed(s), scale "
              << args.scale;
    if (args.topology.kind != TopologyKind::P2p)
        std::cout << ", topology "
                  << topologyKindName(args.topology.kind);
    std::cout << "\n\n";

    Sweep sweep(args);
    std::vector<std::vector<std::vector<std::size_t>>> handles;
    for (const ShapingPolicy shape : args.shapes) {
        std::vector<std::vector<std::size_t>> per_wl;
        for (const auto &wl : names) {
            std::vector<std::size_t> hs;
            for (const auto &c : kConfigs) {
                ExperimentConfig e;
                e.numGpus = args.gpus;
                e.scheme = c.scheme;
                e.batching = c.batching;
                e.otpMult = c.mult;
                e.shaping = shape;
                e.topology = args.topology;
                hs.push_back(sweep.addNormalized(wl, e));
            }
            per_wl.push_back(std::move(hs));
        }
        handles.push_back(std::move(per_wl));
    }
    sweep.run();

    for (std::size_t sh = 0; sh < args.shapes.size(); ++sh) {
        if (shaped)
            std::cout << "shape: "
                      << shapingPolicyName(args.shapes[sh]) << "\n";
        Table t({"workload", "Priv4x", "Priv16x", "Shared",
                 "Cached4x", "Dyn4x", "Ours4x", "trafP4x",
                 "trafOurs"});
        std::map<std::string, std::vector<double>> agg;
        std::vector<double> traf_p, traf_o;

        for (std::size_t wl = 0; wl < names.size(); ++wl) {
            std::vector<std::string> row = {names[wl]};
            double tp = 0, to = 0;
            for (std::size_t c = 0; c < kConfigs.size(); ++c) {
                const NormResult &n =
                    sweep.normalized(handles[sh][wl][c]);
                row.push_back(fmtDouble(n.time));
                agg[kConfigs[c].label].push_back(n.time);
                if (std::string("Priv4x") == kConfigs[c].label)
                    tp = n.traffic;
                if (std::string("Ours4x") == kConfigs[c].label)
                    to = n.traffic;
            }
            row.push_back(fmtDouble(tp));
            row.push_back(fmtDouble(to));
            traf_p.push_back(tp);
            traf_o.push_back(to);
            t.addRow(row);
        }
        std::vector<std::string> avg = {"MEAN"};
        for (const auto &c : kConfigs)
            avg.push_back(fmtDouble(mean(agg[c.label])));
        avg.push_back(fmtDouble(mean(traf_p)));
        avg.push_back(fmtDouble(mean(traf_o)));
        t.addRow(avg);
        t.print(std::cout);
        if (shaped && sh + 1 < args.shapes.size())
            std::cout << "\n";
    }

    std::cout << "\nbaseline cache: " << sweep.baselineRuns()
              << " baseline run(s), " << sweep.baselineHits()
              << " hit(s); " << sweep.jobs() << " job(s)\n";
    if (!args.observeDir.empty())
        std::cout << "observability files written to "
                  << args.observeDir << "/ (see OBSERVE_INDEX.json)\n";
    std::cout << "\npaper (4 GPUs): Private 1.195, Private16x 1.140, "
                 "Shared 2.663, Cached 1.163, Dynamic 1.147, Ours "
                 "1.079; traffic 1.365 -> ~1.09\n";

    if (!args.jsonOut.empty()) {
        if (args.jsonOut == "-") {
            writeJson(std::cout, args, sweep, names, shaped, handles);
        } else {
            std::ofstream os(args.jsonOut);
            if (!os) {
                std::cerr << "cannot write " << args.jsonOut << "\n";
                return 1;
            }
            writeJson(os, args, sweep, names, shaped, handles);
        }
    }
    return 0;
}
