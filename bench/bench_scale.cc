/**
 * @file
 * Scale-out figure: the secure-scheme comparison (Private / Cached /
 * Ours = Dynamic + Batching, normalized to the unsecure system of
 * the same size) re-run at 8, 16 and 64 GPUs. Extends the paper's
 * Fig. 24/25 sensitivity study past its 16-GPU ceiling and, with
 * --topology, onto the switch-based fabrics, where metadata traffic
 * contends at crossbar egress and inter-node trunk ports instead of
 * the p2p ingress ports.
 */

#include <fstream>
#include <iostream>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "sim/json_writer.hh"

using namespace mgsec;

int
main(int argc, char **argv)
{
    SweepArgs args;
    args.acceptJson = true;
    args.acceptTopology = true;
    args.acceptWorkloads = true;
    args.parseArgs(argc, argv);
    std::cout << "=== Scale-out — secure schemes at 8/16/64 GPUs\n"
              << "    reproduces: extends Fig. 24/25 to 64 GPUs and "
                 "switch fabrics\n\n";

    const std::vector<std::uint32_t> gpu_counts = {8, 16, 64};
    struct Handles
    {
        std::size_t priv, cached, ours;
    };

    const std::vector<std::string> names =
        args.workloads.empty() ? workloadNames() : args.workloads;

    Sweep sweep(args);
    std::vector<std::vector<Handles>> handles(gpu_counts.size());
    for (std::size_t g = 0; g < gpu_counts.size(); ++g) {
        for (const auto &wl : names) {
            ExperimentConfig cfg;
            cfg.numGpus = gpu_counts[g];
            cfg.topology = args.topology;
            cfg.scheme = OtpScheme::Private;
            const std::size_t hp = sweep.addNormalized(wl, cfg);
            cfg.scheme = OtpScheme::Cached;
            const std::size_t hc = sweep.addNormalized(wl, cfg);
            cfg.scheme = OtpScheme::Dynamic;
            cfg.batching = true;
            handles[g].push_back(
                Handles{hp, hc, sweep.addNormalized(wl, cfg)});
        }
    }
    sweep.run();

    std::vector<std::vector<double>> means(gpu_counts.size());
    for (std::size_t g = 0; g < gpu_counts.size(); ++g) {
        std::cout << "--- " << gpu_counts[g] << "-GPU system on "
                  << topologyKindName(args.topology.kind)
                  << " fabric\n";
        Table t({"workload", "Private", "Cached", "Ours"});
        std::vector<double> cp, cc, co;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const NormResult &np = sweep.normalized(handles[g][w].priv);
            const NormResult &nc = sweep.normalized(handles[g][w].cached);
            const NormResult &no = sweep.normalized(handles[g][w].ours);
            t.addRow({names[w], fmtDouble(np.time),
                      fmtDouble(nc.time), fmtDouble(no.time)});
            cp.push_back(np.time);
            cc.push_back(nc.time);
            co.push_back(no.time);
        }
        t.addRow({"MEAN", fmtDouble(mean(cp)), fmtDouble(mean(cc)),
                  fmtDouble(mean(co))});
        t.print(std::cout);
        std::cout << "Ours vs Private: "
                  << fmtPct(1.0 - mean(co) / mean(cp))
                  << ", Ours vs Cached: "
                  << fmtPct(1.0 - mean(co) / mean(cc)) << "\n\n";
        means[g] = {mean(cp), mean(cc), mean(co)};
    }

    if (!args.jsonOut.empty()) {
        std::ofstream os(args.jsonOut);
        if (!os) {
            std::cerr << "cannot write " << args.jsonOut << "\n";
            return 1;
        }
        const std::vector<std::string> labels = {"Private", "Cached",
                                                 "Ours"};
        JsonWriter w(os);
        w.beginObject();
        w.field("bench", std::string("scale"));
        w.field("topology",
                std::string(topologyKindName(args.topology.kind)));
        w.field("scale", args.scale);
        w.field("seeds", static_cast<std::uint64_t>(args.seeds));
        w.beginArray("systems");
        for (std::size_t g = 0; g < gpu_counts.size(); ++g) {
            w.beginObject();
            w.field("gpus",
                    static_cast<std::uint64_t>(gpu_counts[g]));
            w.beginArray("rows");
            for (std::size_t wl = 0; wl < names.size(); ++wl) {
                w.beginObject();
                w.field("workload", names[wl]);
                w.key("Private");
                w.value(sweep.normalized(handles[g][wl].priv).time);
                w.key("Cached");
                w.value(sweep.normalized(handles[g][wl].cached).time);
                w.key("Ours");
                w.value(sweep.normalized(handles[g][wl].ours).time);
                w.endObject();
            }
            w.endArray();
            w.key("mean");
            w.beginObject();
            for (std::size_t s = 0; s < labels.size(); ++s) {
                w.key(labels[s]);
                w.value(means[g][s]);
            }
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        std::cout << "wrote " << args.jsonOut << "\n";
    }
    return 0;
}
