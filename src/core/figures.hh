/**
 * @file
 * The paper's evaluation as data. Each Figure entry names its
 * configurations, its metric, the paper's value per row with a
 * tolerance, and the ordering laws the paper argues from. runFigures()
 * runs any set of entries on one Sweep (a configuration that several
 * figures share is simulated once), prints their tables and checks
 * every pin and law: at pinnedSettings() a failed check fails the run,
 * elsewhere it is only reported.
 */

#ifndef MGSEC_CORE_FIGURES_HH
#define MGSEC_CORE_FIGURES_HH

#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace mgsec
{

class FigureRun;

/** A Pin field the row leaves unset. */
inline constexpr double kNoValue =
    std::numeric_limits<double>::quiet_NaN();

/** Sets the knobs one column, row or table stands for. */
using ConfigMod = std::function<void(ExperimentConfig &)>;

/** What a normalized cell reports. */
enum class Metric { Time, Traffic };

/** One labelled entry of a table axis. */
struct Axis
{
    std::string label;
    ConfigMod mod;
    Metric metric = Metric::Time;
};

/** One printed table of a figure. */
struct FigureTable
{
    std::string key;     ///< prefix of the table's value keys
    std::string heading; ///< printed above the table
    ConfigMod mod;       ///< applied to every cell's configuration
    std::string corner = "workload"; ///< the row header
    std::vector<Axis> rows; ///< points; none: one row per workload
    /** Printed below the table; "{A vs B}" expands to 1 - A/B. */
    std::string footer;
};

enum class Layout
{
    Grid,       ///< workloads and MEAN, or points (FigureTable::rows)
    OtpSplit,   ///< OTP hit/partial/miss, summed over workloads
    CommSeries, ///< GPU 1's communication mix over time (mm)
    Burst,      ///< block-accumulation time histograms
    Storage     ///< Table I's closed form
};

/**
 * A value checked at the pinned settings. With only a paper value,
 * the row claims to match the paper within tol. With expect as well,
 * the row is a known deviation: it is held to our own value, and why
 * says why it differs from the paper. With expect alone, the paper
 * prints no such value.
 */
struct Pin
{
    std::string key;
    double paper = kNoValue;
    double tol = 0.0;
    double expect = kNoValue;
    std::string why;
};

/**
 * An ordering between two values, or a value and a number: "A < B",
 * "A > B", or "A ~ B" for "within slack of". A law with a why is a
 * known deviation: it states the ordering we measure where the
 * paper's does not hold, and why.
 */
struct Law
{
    std::string text;
    double slack = 0.0;
    std::string why;
};

struct Figure
{
    std::string name;       ///< --figure NAME
    std::string title;      ///< banner line
    std::string reproduces; ///< the banner's "reproduces:" line
    Layout layout = Layout::Grid;
    std::vector<Axis> cols;
    std::vector<FigureTable> tables{FigureTable{}};
    std::string footer; ///< printed last; "{A vs B}" as in tables
    bool classSplit = false; ///< Grid: byte-class shares (Fig. 12)
    /** Records further checked values, e.g. a deviation's cause. */
    std::function<void(FigureRun &)> extra;
    std::vector<Pin> pins;
    std::vector<Law> laws;
};

/** The verdict on one pin or law. */
struct Check
{
    std::string kind; ///< match, deviation, pin or law
    std::string what;
    bool ok = false;
    std::string why;
};

/** Every table and figure, in the paper's order. */
const std::vector<Figure> &figureSpecs();

/**
 * Check @p f's pins and laws against @p values. A key that is not in
 * @p values fails its check; a key that parses as a number is that
 * number.
 */
std::vector<Check> checkFigure(const Figure &f,
                               const std::map<std::string, double> &values);

/** The settings the pins and laws were recorded at (0.6, 2 seeds). */
bool pinnedSettings(const SweepArgs &args);

/**
 * Run @p figs on one Sweep. Prints their tables to @p out (each
 * behind a "### NAME" line when there is more than one), the check
 * verdicts to @p log, and FIDELITY JSON to args.jsonOut when set.
 * @return 1 when a check fails at the pinned settings or the JSON
 *         cannot be written, else 0
 */
int runFigures(const std::vector<const Figure *> &figs,
               const SweepArgs &args, std::ostream &out,
               std::ostream &log);

} // namespace mgsec

#endif // MGSEC_CORE_FIGURES_HH
