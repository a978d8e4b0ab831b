/**
 * @file
 * Architectural-state equivalence oracle for fault injection.
 *
 * The paper's correctness contract (Sections 3.4, 4) is that Liquid
 * SIMD execution is transparent: whatever external events occur —
 * interrupts, microcode-cache flushes or evictions, self-modifying
 * code — the architectural results are bit-identical to the scalar
 * loop, because every abort path falls back to the original scalar
 * code. The oracle makes that checkable: run the scalar baseline once
 * (fault-free, by construction the ground truth), then run the same
 * program in Liquid mode under an arbitrary FaultSchedule and compare
 *
 *   - the final data-memory image, word for word, and
 *   - the call log's shape (targets and call counts; cycle stamps
 *     legitimately differ between modes).
 *
 * Registers are deliberately NOT part of the cross-strategy contract:
 * by the paper's region liveness contract only region live-outs must
 * survive translation, scratch registers may hold different residue
 * under scalar vs microcode execution, and at the halt boundary no
 * register is live — every live-out was flushed to memory by the
 * driver, where the comparison sees it. The full register file IS
 * part of the determinism contract instead: the same (program, width,
 * schedule) triple must reproduce the identical final state, bit for
 * bit, which checkSchedule exposes via ChaosReport::finalState.
 *
 * The schedule explorer sweeps schedules — exhaustively over small
 * retire windows, randomized beyond — reusing one reference snapshot
 * per (program, width).
 */

#ifndef LIQUID_CHAOS_ORACLE_HH
#define LIQUID_CHAOS_ORACLE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hh"
#include "common/random.hh"
#include "isa/registers.hh"

namespace liquid
{

class Program;
class System;
struct UcodeEntry;

/** The architectural state the scalar ISA promises after a run. */
struct ArchSnapshot
{
    std::vector<Word> memory;  ///< data image, words from dataBase
    std::array<Word, 2 * regsPerClass> scalars{};  ///< r0..15, f0..15
    int cmpState = 0;
    std::map<Addr, std::size_t> callCounts;  ///< bl target -> count

    bool operator==(const ArchSnapshot &o) const;

    /**
     * Human-readable differences against @p other (the reference),
     * capped at a handful per category. Empty when equal.
     */
    std::vector<std::string> diff(const ArchSnapshot &other) const;
};

/** Fault-free ground truth for one (program, width). */
struct ChaosReference
{
    ArchSnapshot snapshot;        ///< scalar-baseline final state
    std::uint64_t instsRetired = 0;  ///< retire window for schedules
    std::vector<Addr> regions;    ///< bl targets (addressed events)
};

/**
 * Run the scalar baseline once and snapshot the result. It runs on the
 * functional tier (fast/fast.hh), which retires the cycle core's
 * architectural state at a fraction of its cost;
 * FastLockstep.FunctionalReferenceMatchesCycleReference holds the two
 * equal over the suite. @p width only names the build: the scalar
 * baseline has no SIMD accelerator.
 */
ChaosReference makeReference(const Program &prog, unsigned width);

/** The snapshot of @p sys after a run of @p prog on its cycle core. */
ArchSnapshot snapshotSystem(const System &sys, const Program &prog);

/** Outcome of one Liquid-under-faults run against the reference. */
struct ChaosReport
{
    bool equal = false;
    std::vector<std::string> mismatches;  ///< empty when equal
    Cycles cycles = 0;
    std::uint64_t faultsFired = 0;     ///< core "faults.*" total
    std::uint64_t retranslations = 0;  ///< translator re-commits
    std::uint64_t translations = 0;
    /**
     * Complete final state (memory, all scalar registers, cmpState,
     * call counts) — the determinism contract: repeating the same
     * (program, width, schedule) triple must reproduce it exactly.
     */
    ArchSnapshot finalState;
};

/**
 * The oracle proper: run @p prog in Liquid mode at @p width under
 * @p sched and compare the final architectural state against the
 * reference. A run retiring far beyond the scalar reference trips an
 * instruction watchdog and reports as divergence (a correct core can
 * only be slowed by faults, never livelocked). @p sabotage enables
 * the deliberately broken abandon-microcode-on-interrupt core model
 * (tests only).
 */
ChaosReport checkSchedule(const ChaosReference &ref, const Program &prog,
                          unsigned width, const FaultSchedule &sched,
                          bool sabotage = false);

/**
 * Counterexample-replay hook for the translation-validation prover
 * (proof.hh): run @p prog in Liquid mode at @p width with @p entry
 * pre-inserted into the microcode cache, ready at cycle 0, so the core
 * dispatches the injected microcode on the first bl instead of waiting
 * for the translator. No faults are scheduled. A refuted (mutated or
 * mis-translated) entry must surface here as an architectural
 * divergence against the scalar reference.
 */
ChaosReport checkUcodeInjection(const ChaosReference &ref,
                                const Program &prog, unsigned width,
                                const UcodeEntry &entry);

/** Schedule-exploration parameters. */
struct ExploreOptions
{
    /**
     * Exhaustive part: every single-event schedule with each fault
     * kind at each retire index in [1, window]. 0 skips it.
     */
    std::uint64_t window = 24;
    /** Randomized part: multi-event schedules beyond the window. */
    unsigned trials = 32;
    std::uint64_t seed = 1;
};

/** One failing schedule, replayable from its key. */
struct ExploreFailure
{
    std::string scheduleKey;
    std::vector<std::string> mismatches;
};

/** Aggregate outcome of an exploration sweep. */
struct ExploreSummary
{
    unsigned schedulesRun = 0;
    std::uint64_t faultsFired = 0;
    std::uint64_t retranslations = 0;
    std::vector<ExploreFailure> failures;  ///< empty on success
    /** Schedules that contained each kind, keyed by faultKindName. */
    std::map<std::string, unsigned> kindCoverage;

    bool ok() const { return failures.empty(); }
};

/**
 * Sweep schedules for one (program, width): exhaustive single-event
 * schedules over the retire window, then randomized multi-event ones.
 * The reference snapshot is computed once and shared.
 */
ExploreSummary exploreSchedules(const Program &prog, unsigned width,
                                const ExploreOptions &opts);

} // namespace liquid

#endif // LIQUID_CHAOS_ORACLE_HH
