/**
 * @file
 * Stress programs for the liquid-range analysis: hand-built binaries
 * whose regions the facts-free verifier cannot close — the loop bound
 * lives in caller state (a register or a memory cell the scalarizer
 * never materializes into the region) — but whole-program value-range
 * analysis can. Each case
 * defines label `fn` as the region entry and a `main` with hinted
 * calls, mirroring tests/abort_cases.hh, so the same source runs the
 * static verifier, the tool and the dynamic differential oracle.
 *
 * These are deliberately NOT part of makeSuite(): they stress the
 * analysis, not the paper's benchmark set.
 */

#ifndef LIQUID_WORKLOADS_RANGE_STRESS_HH
#define LIQUID_WORKLOADS_RANGE_STRESS_HH

#include <string>
#include <vector>

namespace liquid
{

/** One range-analysis stress program. */
struct RangeStressCase
{
    /** Case name; doubles as the test/JSON label. */
    const char *name;
    /** Why the facts-free verifier cannot close the region. */
    const char *blocker;
    /**
     * True: the range analysis must upgrade the region (Warn -> Ok via
     * entry facts).
     * False: a negative control the analysis must NOT upgrade.
     */
    bool expectUpgrade;
    /** Assembly source; region entry is `fn`, driver is `main`. */
    std::string src;
};

/** The stress set (built once; sources are partly generated). */
const std::vector<RangeStressCase> &rangeStressCases();

} // namespace liquid

#endif // LIQUID_WORKLOADS_RANGE_STRESS_HH
