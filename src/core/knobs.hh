/**
 * @file
 * The experiment knobs as rows over ExperimentConfig (sim/knob.hh):
 * mgsec_run's and SweepArgs' flags, configKey() and baselineConfig().
 */

#ifndef MGSEC_CORE_KNOBS_HH
#define MGSEC_CORE_KNOBS_HH

#include <vector>

#include "core/experiment.hh"
#include "sim/knob.hh"

namespace mgsec
{

/**
 * Every ExperimentConfig knob in configKey() order: the rows with a
 * segment form the key, the host-only ones follow. dynParams and
 * hostMemProtect are key-only rows without a flag.
 */
const std::vector<Knob<ExperimentConfig>> &experimentKnobs();

/**
 * The unsecure configuration a normalized run of @p cfg measures
 * against: the Unsecure scheme with every secured-only knob at its
 * default, so every secure variant of one unsecure run shares its
 * configKey() (the baseline memo key and observability tag).
 */
ExperimentConfig baselineConfig(ExperimentConfig cfg);

/** Take @p text as a workload name if it is one of workloadNames(). */
bool parseWorkload(const std::string &text, std::string &out);

} // namespace mgsec

#endif // MGSEC_CORE_KNOBS_HH
