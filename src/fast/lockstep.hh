/**
 * @file
 * Lockstep differential harness: run the cycle core and the functional
 * interpreter over the same program, compare architectural state after
 * every retired instruction, and report the first divergences.
 *
 * This is the functional tier's correctness gate. Per-retire lockstep
 * requires the two retire streams to be identical instruction-for-
 * instruction, which holds for ScalarBaseline and NativeSimd execution;
 * Liquid mode interleaves dispatched microcode into the stream, so its
 * equivalence is covered by the chaos oracle's end-state contract
 * instead, and the harness rejects it.
 *
 * The per-retire compare covers pc, the full scalar and vector register
 * files, the compare flags and the halt state; the data-memory image is
 * compared periodically and in full at the end, together with the call
 * log shape and the total retire count.
 */

#ifndef LIQUID_FAST_LOCKSTEP_HH
#define LIQUID_FAST_LOCKSTEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hh"
#include "fast/fast.hh"
#include "sim/system.hh"

namespace liquid::fast
{

/** Lockstep-run parameters. */
struct LockstepOptions
{
    /** Retire-keyed fault events delivered to BOTH tiers. */
    FaultSchedule faults{};
    /** Seed a deliberate functional-side bug (self-test). */
    Sabotage sabotage = Sabotage::None;
    /** Watchdog for both tiers. */
    std::uint64_t maxRetires = 50'000'000ull;
    /** Full data-image compare every N retires; 0 = only at the end. */
    std::uint64_t memCompareEvery = 4096;
    /** Cap on recorded divergence messages. */
    std::size_t maxDivergences = 8;
};

/** Outcome of one lockstep run. */
struct LockstepResult
{
    bool equal = true;
    std::uint64_t retires = 0;
    std::vector<std::string> divergences;  ///< empty when equal
};

/**
 * Run @p prog on both tiers under @p mode / @p width and compare
 * per-retire. fatal() on ExecMode::Liquid (see file header).
 */
LockstepResult runLockstep(const Program &prog, ExecMode mode,
                           unsigned width,
                           const LockstepOptions &opts = {});

} // namespace liquid::fast

#endif // LIQUID_FAST_LOCKSTEP_HH
