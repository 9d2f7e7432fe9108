/**
 * @file
 * Command-line / config-file option handling for the mgsec_run
 * tool (and any embedding application).
 *
 * Options are `--key value` pairs on the command line or `key =
 * value` lines in a config file (`--config FILE`; '#' comments).
 * Command-line settings override file settings. Both parse through
 * the same knob rows: experimentKnobs() plus RunOptions' own.
 */

#ifndef MGSEC_CORE_OPTIONS_HH
#define MGSEC_CORE_OPTIONS_HH

#include <iosfwd>
#include <string>

#include "core/knobs.hh"

namespace mgsec
{

/** mgsec_run's options: each field below is a row in options.cc. */
struct RunOptions
{
    ExperimentConfig exp;
    std::string workload = "mm";
    bool baseline = true;
    std::string statsOut;
    std::string jsonOut;
    std::string traceRecord;
    std::string tracePlay;
    /**
     * Bundle every observability sink into one directory using the
     * sweep's naming scheme (setObserveBundle() plus
     * OBSERVE_INDEX.json). Mutually exclusive with the explicit
     * per-sink path options.
     */
    std::string observeDir;

    /**
     * Resolve observeDir into concrete sink paths (after parse(),
     * before running). Rejects conflicting explicit paths and
     * creates the directory.
     * @retval false on conflict or unusable directory (reported to
     *         stderr).
     */
    bool finalizeObservability();

    /** What parse(), set() and loadFile() found. */
    using ParseStatus = mgsec::ParseStatus;

    /** Apply one key=value setting. */
    ParseStatus set(const std::string &key, const std::string &value);

    /** Load `key = value` lines, stopping at the first non-Ok one. */
    ParseStatus loadFile(const std::string &path);

    /** Parse argv, then check that the GPUs fit the fabric. */
    ParseStatus parse(int argc, char **argv);

    static void usage(std::ostream &os);
};

} // namespace mgsec

#endif // MGSEC_CORE_OPTIONS_HH
