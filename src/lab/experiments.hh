/**
 * @file
 * The standard paper-evaluation campaigns, declared once and run by
 * the liquid-lab CLI (`liquid-lab run --experiment NAME --render`):
 * Figure 6 speedups (+ virtualization-overhead callout), the
 * microcode-cache capacity sweep, the translation-latency sweep and
 * the data-cache sweep. Each campaign also has a renderer that
 * reproduces the classic text table (including the paper shape
 * checks) from a ResultSet, so the human tables are a pure function
 * of the machine-readable JSON.
 */

#ifndef LIQUID_LAB_EXPERIMENTS_HH
#define LIQUID_LAB_EXPERIMENTS_HH

#include <ostream>
#include <string>
#include <vector>

#include "lab/results.hh"
#include "lab/spec.hh"

namespace liquid::lab
{

/** One named campaign: specs to run and a renderer for the results. */
struct Campaign
{
    std::string name;        ///< CLI name, e.g. "fig6"
    std::string outputFile;  ///< e.g. "BENCH_fig6.json"
    ExperimentMatrix matrix;
    /** Render paper tables + shape checks; false = a check failed. */
    bool (*render)(std::ostream &os, const ResultSet &results);
};

/**
 * All standard campaigns. @p smoke shrinks every workload to 2 outer
 * reps and drops the expensive Figure 6 call-count callout — the
 * configuration CI runs and the committed baseline is generated from.
 */
std::vector<Campaign> standardCampaigns(bool smoke);

/** Campaign by name; fatal() listing the choices on a miss. */
Campaign campaignByName(const std::string &name, bool smoke);

} // namespace liquid::lab

#endif // LIQUID_LAB_EXPERIMENTS_HH
