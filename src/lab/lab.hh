/**
 * @file
 * Job execution for the lab orchestration subsystem: build a workload,
 * construct a private System, run it and snapshot everything the
 * results layer serializes. This is the single simulation entry point
 * shared by the lab runner, the ported bench binaries and the
 * bench_util.hh wrappers.
 *
 * Thread-safety: one runJob()/runOnce() call simulates only state it
 * creates itself — the Program, MainMemory, caches, translator and
 * every StatGroup live inside the per-call System (logging reports
 * errors by throwing, the RNG is an explicitly seeded value type, and
 * StatGroup is move-only so a group cannot alias across Systems). The
 * only mutable global in src/ is the intern table of sorted counter
 * name lists behind CounterMap (lab/counter_map.hh): it is append-only
 * and mutex-guarded, and an interned list never changes or moves.
 * Concurrent calls from the Runner's worker threads are therefore
 * safe, and results are bit-identical regardless of thread count or
 * schedule.
 */

#ifndef LIQUID_LAB_LAB_HH
#define LIQUID_LAB_LAB_HH

#include <map>
#include <string>

#include "lab/counter_map.hh"
#include "lab/spec.hh"
#include "workloads/workload.hh"

namespace liquid::lab
{

/**
 * Simulator model version, part of every result-cache content hash:
 * bump it whenever a change alters simulated timing or statistics so
 * stale cached results can never be served for new model behaviour.
 */
inline constexpr const char *modelVersion = "liquid-sim-2026.08-3";

/** Everything harvested from one finished simulation. */
struct RunOutcome
{
    /**
     * False for functional-tier runs: there is no cycle clock, so
     * cycles and the other timing mirrors below are ABSENT — the
     * serializer omits them and ResultSet::cycles() refuses to serve
     * them — never reported as zero.
     */
    bool hasCycles = true;

    Cycles cycles = 0;

    // Convenience mirrors of the counters the paper tables use most.
    std::uint64_t translations = 0;
    std::uint64_t aborts = 0;
    std::uint64_t ucodeDispatches = 0;
    /** Re-commits after a loss/abort; per-reason breakdown lives in
     *  counters as "translator.retranslate.<reason>". */
    std::uint64_t retranslations = 0;

    /** Full StatGroup snapshot, flattened as "<group>.<stat>". */
    CounterMap counters;

    /** Cycle of each bl per target (paper Table 6), moved out of the
     *  Core rather than copied. */
    std::map<Addr, std::vector<Cycles>> callLog;
};

/** Run @p build under @p config and harvest the outcome. */
RunOutcome runOnce(const Workload::Build &build,
                   const SystemConfig &config);

/**
 * Build the program a Job simulates: locate the workload in a private
 * copy of the suite, apply the rep override, emit for the job's mode.
 * Deterministic — the same Job always yields the same program, which
 * is what makes the content-addressed result cache sound.
 */
Workload::Build buildJob(const Job &job);

/**
 * Execute a job whose program is already built (twice with a
 * warm-started microcode cache for warmStart jobs).
 */
RunOutcome runBuilt(const Job &job, const Workload::Build &build);

/** buildJob + runBuilt. */
RunOutcome runJob(const Job &job);

} // namespace liquid::lab

#endif // LIQUID_LAB_LAB_HH
