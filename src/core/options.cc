#include "core/options.hh"

#include <filesystem>
#include <fstream>
#include <iostream>

namespace mgsec
{

namespace
{

/** The rows of RunOptions' own fields; experimentKnobs() has the rest. */
const std::vector<Knob<RunOptions>> &
runKnobs()
{
    using R = RunOptions;
    static const std::vector<Knob<R>> rows = {
        bind<&R::workload>("workload", nullptr, "NAME",
                           "one of the 17 paper workloads", "",
                           parseWorkload,
                           [](const std::string &w) { return w; }),
        flag<&R::baseline>("baseline", nullptr,
                           "also run the unsecure baseline"),
        text<&R::statsOut>("stats-out",
                           "dump component stats ('-' = stdout)"),
        text<&R::jsonOut>("json-out",
                          "write the result as JSON ('-' = stdout)"),
        text<&R::traceRecord>("trace-record",
                              "write PREFIX.gpuN.trace files", "PREFIX"),
        text<&R::tracePlay>("trace-play", "replay GPU 1 from a trace file"),
        text<&R::observeDir>("observe-dir",
                             "bundle every sink into DIR under sweep's "
                             "METRICS_/TRACE_/STATS_/HIST_/WIRE_/"
                             "PROF_<hash>.json names (+ "
                             "OBSERVE_INDEX.json)",
                             "DIR"),
    };
    return rows;
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // anonymous namespace

RunOptions::ParseStatus
RunOptions::set(const std::string &key, const std::string &value)
{
    if (key == "debug")
        return setDebugFlags(value);
    if (findKnob(runKnobs(), key))
        return setKnob(runKnobs(), *this, key, value);
    return setKnob(experimentKnobs(), exp, key, value);
}

bool
RunOptions::finalizeObservability()
{
    if (observeDir.empty())
        return true;
    const ObserveConfig &obs = exp.observe;
    if (!obs.metricsOut.empty() || !obs.traceOut.empty() ||
        !obs.statsJsonOut.empty() || !obs.histJsonOut.empty() ||
        !obs.wireOut.empty() || !obs.profOut.empty()) {
        std::cerr << "--observe-dir bundles --metrics-out/--trace-out/"
                     "--stats-json/--hist-json/--wire-json/--prof-out; "
                     "remove the explicit path options\n";
        return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(observeDir, ec);
    if (ec) {
        std::cerr << "cannot create observability directory '"
                  << observeDir << "': " << ec.message() << "\n";
        return false;
    }
    setObserveBundle(observeDir, workload, exp);
    return true;
}

RunOptions::ParseStatus
RunOptions::loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot open config file '" << path << "'\n";
        return ParseStatus::Error;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            std::cerr << path << ":" << lineno
                      << ": expected 'key = value'\n";
            return ParseStatus::Error;
        }
        const ParseStatus st =
            set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
        if (st != ParseStatus::Ok)
            return st;
    }
    return ParseStatus::Ok;
}

RunOptions::ParseStatus
RunOptions::parse(int argc, char **argv)
{
    const ParseStatus st = walkArgs(
        argc, argv, usage,
        [this](const std::string &key, const std::string &v) {
            return key == "config" ? loadFile(v) : set(key, v);
        });
    const std::string fabric =
        st == ParseStatus::Ok ? checkFabric(exp.numGpus + 1, exp.topology)
                              : "";
    if (!fabric.empty())
        std::cerr << fabric << "\n";
    return fabric.empty() ? st : ParseStatus::Error;
}

void
RunOptions::usage(std::ostream &os)
{
    os << "mgsec_run — simulate one secure multi-GPU configuration\n\n";
    const RunOptions def;
    printKnobHelp(os, runKnobs(), def);
    printKnobHelp(os, experimentKnobs(), def.exp);
    os << knobHelpLine("debug", "FLAGS",
                       "enable trace flags ('help' lists them)", "", "")
       << knobHelpLine("config", "FILE",
                       "read 'key = value' lines first", "", "");
}

} // namespace mgsec
