/**
 * @file
 * Regression gate: compare a results file against a committed
 * baseline with per-metric relative tolerances. The ctest pair
 * lab_fig6_counters_exact{,_swapped} runs `liquid-lab diff` on the
 * fig6 smoke matrix at zero tolerance; a cycle count that grew past
 * its tolerance, or a job missing from the new results, fails the
 * build.
 */

#ifndef LIQUID_LAB_DIFF_HH
#define LIQUID_LAB_DIFF_HH

#include <map>
#include <string>
#include <vector>

#include "lab/results.hh"

namespace liquid::lab
{

/** Tolerances, as relative fractions (0.02 = 2%). */
struct DiffOptions
{
    /** Cycles may grow by this much before failing. */
    double cycleTolerance = 0.02;
    /**
     * Per-metric overrides for counters beyond cycles; a metric listed
     * here is gated like cycles (named as in RunOutcome::counters,
     * e.g. "translator.aborts"). Direction: increases are regressions.
     */
    std::map<std::string, double> counterTolerances;
};

/** One metric excursion. */
struct DiffEntry
{
    std::string key;     ///< job key, or "" for set-level findings
    std::string metric;  ///< "cycles", counter name, or "missing"
    double baseline = 0;
    double current = 0;
    double relative = 0; ///< (current - baseline) / baseline

    std::string describe() const;
};

/** Outcome of one comparison. */
struct DiffReport
{
    std::vector<DiffEntry> regressions;   ///< gate failures
    std::vector<DiffEntry> improvements;  ///< beyond-tolerance gains
    std::vector<DiffEntry> notes;         ///< e.g. jobs new vs baseline
    std::uint64_t jobsCompared = 0;

    bool ok() const { return regressions.empty(); }
};

/** Compare @p current against @p baseline. */
DiffReport diffResults(const ResultSet &baseline,
                       const ResultSet &current,
                       const DiffOptions &options = {});

} // namespace liquid::lab

#endif // LIQUID_LAB_DIFF_HH
