/**
 * @file
 * Command-line / config-file option handling for the mgsec_run
 * tool (and any embedding application).
 *
 * Options are `--key value` pairs on the command line or `key =
 * value` lines in a config file (`--config FILE`; '#' comments).
 * Command-line settings override file settings.
 */

#ifndef MGSEC_CORE_OPTIONS_HH
#define MGSEC_CORE_OPTIONS_HH

#include <iosfwd>
#include <string>

#include "core/experiment.hh"

namespace mgsec
{

/** Parse a scheme name ("private", "Dynamic", ...). */
bool parseScheme(const std::string &text, OtpScheme &out);

/** Parse a shaping-policy name ("none", "constant-rate", ...). */
bool parseShaping(const std::string &text, ShapingPolicy &out);

/**
 * @name Strict numeric parsing
 * The entire string must convert (no trailing junk, no empty string)
 * and the value must lie in [lo, hi]; @p out is untouched on failure.
 * Shared by the bench/tool argument parsers and RunOptions.
 */
/// @{
bool parseNumber(const std::string &text, double lo, double hi,
                 double &out);
bool parseNumber(const std::string &text, long long lo, long long hi,
                 long long &out);
bool parseNumber(const std::string &text, unsigned long long lo,
                 unsigned long long hi, unsigned long long &out);
/// @}

struct RunOptions
{
    ExperimentConfig exp;
    std::string workload = "mm";
    /** Also run the unsecure baseline and print normalized numbers. */
    bool baseline = true;
    /** Dump per-component statistics to this file ("-" = stdout). */
    std::string statsOut;
    /** Write the RunResult as JSON to this file ("-" = stdout). */
    std::string jsonOut;
    /** Record each GPU's op stream to <prefix>.gpu<N>.trace. */
    std::string traceRecord;
    /** Replay GPU 1's stream from this trace file. */
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

    /**
     * Apply one key=value setting.
     * @retval false the key is unknown (error reported to stderr).
     */
    bool set(const std::string &key, const std::string &value);

    /** Load `key = value` lines. @retval false on any bad line. */
    bool loadFile(const std::string &path);

    /** What parse() found on the command line. */
    enum class ParseStatus
    {
        Ok,
        Help, ///< --help: usage is printed to stdout
        Error ///< reported to stderr
    };

    /** Parse argv. */
    ParseStatus parse(int argc, char **argv);

    static void usage(std::ostream &os);
};

} // namespace mgsec

#endif // MGSEC_CORE_OPTIONS_HH
