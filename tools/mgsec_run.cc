/**
 * @file
 * mgsec_run — the command-line front end of the simulator.
 *
 * Examples:
 *   mgsec_run --workload spmv --scheme dynamic --batching on
 *   mgsec_run --config my.cfg --stats-out stats.txt
 *   mgsec_run --workload mm --trace-record /tmp/mm   # write traces
 *   mgsec_run --trace-play /tmp/mm.gpu1.trace        # replay GPU 1
 */

#include <fstream>
#include <iostream>
#include <memory>

#include "core/json_out.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "workload/trace_io.hh"

using namespace mgsec;

int
main(int argc, char **argv)
{
    // Exit 0 on --help, 2 on a usage error, 1 when the run fails.
    RunOptions opts;
    switch (opts.parse(argc, argv)) {
      case RunOptions::ParseStatus::Help:
        return 0;
      case RunOptions::ParseStatus::Error:
        RunOptions::usage(std::cerr);
        return 2;
      case RunOptions::ParseStatus::Ok:
        break;
    }
    if (!opts.finalizeObservability())
        return 2;

    const double scale = opts.exp.strongScaling
        ? opts.exp.scale * kScalingBaselineGpus / opts.exp.numGpus
        : opts.exp.scale;
    const WorkloadProfile profile =
        makeProfile(opts.workload, scale, opts.exp.numGpus);

    if (!opts.traceRecord.empty()) {
        for (NodeId g = 1; g <= opts.exp.numGpus; ++g) {
            const std::string path = strformat(
                "%s.gpu%u.trace", opts.traceRecord.c_str(), g);
            const std::uint64_t n = recordTrace(
                path, profile, g, opts.exp.numGpus + 1,
                opts.exp.seed);
            std::cout << "wrote " << n << " ops to " << path << "\n";
        }
        return 0;
    }

    auto build = [&](OtpScheme scheme, bool batching, bool observe) {
        ExperimentConfig e = opts.exp;
        e.scheme = scheme;
        e.batching = batching;
        if (!observe)
            e.observe = ObserveConfig{};
        auto sys = std::make_unique<MultiGpuSystem>(
            makeSystemConfig(e), profile);
        if (!opts.tracePlay.empty()) {
            sys->replaceWorkload(
                1, std::make_unique<TraceFileSource>(opts.tracePlay));
        }
        return sys;
    };

    auto sys = build(opts.exp.scheme, opts.exp.batching, true);
    const RunResult r = sys->run();
    if (!r.completed) {
        std::cerr << "run did not complete\n";
        return 1;
    }

    std::cout << "workload " << opts.workload << " on "
              << opts.exp.numGpus << " GPUs, scheme "
              << otpSchemeName(opts.exp.scheme)
              << (opts.exp.batching ? "+Batching" : "") << "\n";
    std::cout << "  cycles:        " << r.cycles << "\n";
    std::cout << "  traffic:       "
              << fmtBytes(static_cast<double>(r.totalBytes)) << "\n";
    std::cout << "  remote ops:    " << r.remoteOps << "\n";
    std::cout << "  local ops:     " << r.localOps << "\n";
    std::cout << "  migrations:    " << r.migrations << "\n";
    std::cout << "  avg latency:   "
              << fmtDouble(r.avgRemoteLatency, 0) << " cycles\n";
    if (opts.exp.scheme != OtpScheme::Unsecure) {
        for (Direction d : {Direction::Send, Direction::Recv}) {
            std::cout << "  OTP " << directionName(d) << ":      "
                      << fmtPct(r.otp.frac(d, OtpOutcome::Hit))
                      << " hit / "
                      << fmtPct(r.otp.frac(d, OtpOutcome::Partial))
                      << " partial / "
                      << fmtPct(r.otp.frac(d, OtpOutcome::Miss))
                      << " miss\n";
        }
    }

    if (opts.baseline && opts.exp.scheme != OtpScheme::Unsecure) {
        // The baseline never re-opens the primary run's sinks.
        auto base_sys = build(OtpScheme::Unsecure, false, false);
        const RunResult base = base_sys->run();
        if (base.completed) {
            std::cout << "  vs unsecure:   "
                      << fmtDouble(normalizedTime(r, base))
                      << "x time, "
                      << fmtDouble(normalizedTraffic(r, base))
                      << "x traffic\n";
        }
    }

    if (!opts.jsonOut.empty()) {
        if (opts.jsonOut == "-") {
            writeResultJson(std::cout, r);
        } else {
            std::ofstream os(opts.jsonOut);
            if (!os) {
                std::cerr << "cannot write " << opts.jsonOut << "\n";
                return 1;
            }
            writeResultJson(os, r);
        }
    }

    if (!opts.statsOut.empty()) {
        if (opts.statsOut == "-") {
            sys->dumpStats(std::cout);
        } else {
            std::ofstream os(opts.statsOut);
            if (!os) {
                std::cerr << "cannot write " << opts.statsOut << "\n";
                return 1;
            }
            sys->dumpStats(os);
            std::cout << "stats written to " << opts.statsOut << "\n";
        }
    }

    const ObserveConfig &obs = opts.exp.observe;
    if (!obs.metricsOut.empty())
        std::cout << "metrics written to " << obs.metricsOut << "\n";
    if (!obs.traceOut.empty())
        std::cout << "trace written to " << obs.traceOut << "\n";
    if (!obs.statsJsonOut.empty())
        std::cout << "stats JSON written to " << obs.statsJsonOut
                  << "\n";
    if (!obs.wireOut.empty())
        std::cout << "wire observer written to " << obs.wireOut
                  << "\n";
    if (!obs.profOut.empty())
        std::cout << "profiler written to " << obs.profOut << "\n";

    if (!opts.observeDir.empty()) {
        // Single-entry manifest in the same schema mgsec_sweep
        // emits, so mgsec_report can consume either directory.
        if (!writeObserveIndex(
                opts.observeDir, obs.metricsInterval,
                {{configHash(opts.workload, opts.exp),
                  configKey(opts.workload, opts.exp)}}))
            return 1;
        std::cout << "observability bundle in " << opts.observeDir
                  << "\n";
    }
    return 0;
}
