/**
 * @file
 * Declarative experiment specs for the lab orchestration subsystem.
 *
 * An ExperimentMatrix is a set of ExperimentSpecs; each spec expands a
 * cartesian product of (workload x ExecMode x width x config override
 * x rep count) into independent Jobs. A Job is pure data: everything a
 * worker thread needs to build the program and SystemConfig from
 * scratch, so jobs can run in any order on any thread and still
 * produce identical results. The canonical Job::key() both names the
 * result in the JSON output and seeds the job's deterministic RNG.
 */

#ifndef LIQUID_LAB_SPEC_HH
#define LIQUID_LAB_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fast/tier.hh"
#include "sim/system.hh"

namespace liquid::lab
{

/** FNV-1a over a string: job keys -> RNG seeds, content hashes. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** Human-readable ExecMode name used in job keys and JSON. */
const char *modeName(ExecMode mode);

/** Parse a modeName(); fatal() on unknown names. */
ExecMode modeFromName(const std::string &name);

/**
 * Optional deviations from the default SystemConfig. Every field that
 * is set contributes a component to the job key, so distinct
 * configurations can never collide in the result set or the cache.
 */
struct ConfigOverrides
{
    std::optional<unsigned> ucodeEntries;        ///< microcode cache slots
    std::optional<Cycles> translatorLatency;     ///< cycles / observed inst
    std::optional<std::size_t> dcacheSizeBytes;  ///< data cache capacity
    std::optional<unsigned> dcacheAssoc;         ///< data cache ways
    /**
     * Fault-injection schedule as a canonical FaultSchedule key
     * ("p700", "int@200+flush@400", ...). Replaces the retired
     * interruptPeriod override; legacy results files carrying
     * "interruptPeriod": N are read back as faults = "pN".
     */
    std::optional<std::string> faults;

    /** Key suffix, e.g. "/e4" or "/lat10/dc4096"; empty if default. */
    std::string tag() const;

    /** Apply on top of a mode/width-coupled config. */
    void applyTo(SystemConfig &config) const;

    bool
    operator==(const ConfigOverrides &o) const
    {
        return ucodeEntries == o.ucodeEntries &&
               translatorLatency == o.translatorLatency &&
               dcacheSizeBytes == o.dcacheSizeBytes &&
               dcacheAssoc == o.dcacheAssoc && faults == o.faults;
    }
};

/** One independent unit of simulation work. */
struct Job
{
    std::string experiment;  ///< spec name, e.g. "fig6"
    std::string workload;    ///< suite benchmark name, e.g. "fir"
    ExecMode mode = ExecMode::Liquid;
    unsigned width = 8;      ///< SIMD lanes; 0 for ScalarBaseline
    unsigned repsOverride = 0;  ///< 0 = workload default
    /**
     * "Ideal" run for the paper's Figure 6 callout: run once to
     * translate, then run again with the microcode cache warm-started,
     * modelling built-in ISA support. Both runs happen inside this one
     * job so it stays independent of every other job.
     */
    bool warmStart = false;
    /**
     * Execution tier: the cycle core (timing + architectural state) or
     * the functional interpreter (architectural state only; cycle-shaped
     * results are absent, not zero). Functional excludes Liquid mode
     * (no translator), warmStart and cycle-periodic fault schedules.
     */
    fast::ExecTier tier = fast::ExecTier::Cycle;
    ConfigOverrides over;

    /**
     * Canonical identity, e.g. "fig6/fir/liquid/w8/ideal" or
     * "fast/fir/native/w8/fun". Stable across runs, threads and
     * platforms; results are sorted by it.
     */
    std::string key() const;

    /** Deterministic per-job RNG seed, derived from the key. */
    std::uint64_t rngSeed() const { return fnv1a(key()); }

    /** The full SystemConfig this job simulates. */
    SystemConfig config() const;
};

/** One named sweep; expands to jobs. */
struct ExperimentSpec
{
    std::string name;
    /** Suite benchmark names; empty = the whole 15-benchmark suite. */
    std::vector<std::string> workloads;
    std::vector<ExecMode> modes{ExecMode::Liquid};
    /** Ignored for ScalarBaseline (recorded as width 0). */
    std::vector<unsigned> widths{8};
    /**
     * Execution-tier axis. Functional-tier jobs are only generated for
     * non-Liquid modes (the functional interpreter has no translator);
     * a tier list of {Cycle, Functional} over a mode list containing
     * Liquid simply skips the impossible combination.
     */
    std::vector<fast::ExecTier> tiers{fast::ExecTier::Cycle};
    /** Config override axis; empty = the default configuration. */
    std::vector<ConfigOverrides> overrides;
    /** Rep-count axis; empty = the workload default. */
    std::vector<unsigned> repsList;
    /** Add a warm-started Liquid job per (workload, override, reps). */
    bool includeIdeal = false;
    unsigned idealWidth = 8;

    /** Expand into jobs (deduplicated by key, declaration order). */
    std::vector<Job> expand() const;
};

/** A full experiment campaign. */
struct ExperimentMatrix
{
    std::vector<ExperimentSpec> specs;

    /** All specs' jobs, deduplicated by key. */
    std::vector<Job> expand() const;
};

} // namespace liquid::lab

#endif // LIQUID_LAB_SPEC_HH
