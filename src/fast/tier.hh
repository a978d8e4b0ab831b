/**
 * @file
 * Execution-tier selection shared by the lab, the CLI drivers and the
 * lockstep harness.
 *
 * The cycle tier is the five-stage pipeline model (cpu/core.hh); the
 * functional tier is the predecoding interpreter (fast/fast.hh),
 * which retires the same architectural state with no cycle clock, no
 * caches and no translator. Anything cycle-shaped is *absent* under the
 * functional tier — never reported as zero.
 */

#ifndef LIQUID_FAST_TIER_HH
#define LIQUID_FAST_TIER_HH

#include <string>

#include "common/logging.hh"

namespace liquid::fast
{

/** Which execution engine retires instructions. */
enum class ExecTier
{
    Cycle,       ///< five-stage pipeline model with timing
    Functional,  ///< predecoding interpreter, arch state only
};

/** Canonical tier name used in CLI flags and results JSON. */
inline const char *
tierName(ExecTier tier)
{
    return tier == ExecTier::Functional ? "functional" : "cycle";
}

/** Inverse of tierName(); fatal() on unknown names. */
inline ExecTier
tierFromName(const std::string &name)
{
    if (name == "cycle")
        return ExecTier::Cycle;
    if (name == "functional")
        return ExecTier::Functional;
    fatal("unknown execution tier '", name,
          "' (expected 'cycle' or 'functional')");
}

} // namespace liquid::fast

#endif // LIQUID_FAST_TIER_HH
