/**
 * @file
 * Chaos-injection equivalence tests (metamorphic property).
 *
 * The paper's transparency claim — Liquid SIMD execution survives any
 * external event with architectural results identical to the scalar
 * loop — is checked here as a metamorphic property: for random legal
 * kernels under random fault schedules, the Liquid-with-faults final
 * state must equal the fault-free scalar reference (memory image and
 * call-log shape; see src/chaos/oracle.hh for why registers belong to
 * the determinism contract instead).
 *
 * The randomized section scales with LIQUID_CHAOS_TRIALS and derives
 * its generator seed from LIQUID_CHAOS_SEED, so the nightly CI chaos
 * job can run a long sweep on a date-derived seed without a rebuild.
 * Any failing trial dumps its program listing and schedule key to
 * $LIQUID_CHAOS_DUMP_DIR (default chaos_failures/) for replay.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/oracle.hh"
#include "test_env.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

/** Build the named suite workload, Scalarized at @p width. */
Workload::Build
buildSuiteWorkload(const std::string &name, unsigned width)
{
    return makeWorkload(name)->build(EmitOptions::Mode::Scalarized, width);
}

// --- Schedule-key grammar -------------------------------------------

TEST(FaultScheduleKey, RoundTripsThroughParse)
{
    const std::vector<std::string> keys = {
        "none",
        "p700",
        "int@40",
        "flush@80",
        "evict@60:4160",
        "smc@100:4608",
        "dcache@50",
        "p250+int@40+flush@80+smc@100:4608",
    };
    for (const auto &key : keys) {
        const FaultSchedule sched = FaultSchedule::parse(key);
        EXPECT_EQ(sched.key(), key) << "key " << key;
        EXPECT_EQ(FaultSchedule::parse(sched.key()), sched);
    }
}

TEST(FaultScheduleKey, NormalizeSortsEventsByRetireIndex)
{
    FaultSchedule sched;
    sched.add(FaultKind::SmcStore, 100);
    sched.add(FaultKind::Interrupt, 40);
    sched.add(FaultKind::UcodeFlush, 80);
    EXPECT_EQ(sched.key(), "int@40+flush@80+smc@100");
}

TEST(FaultScheduleKey, RandomSchedulesAlwaysRoundTrip)
{
    Rng rng(7);
    const std::vector<Addr> regions = {0x1000, 0x1400};
    for (unsigned i = 0; i < 200; ++i) {
        const FaultSchedule sched =
            FaultSchedule::random(rng, 500, regions);
        EXPECT_FALSE(sched.empty());
        EXPECT_EQ(FaultSchedule::parse(sched.key()), sched)
            << "key " << sched.key();
    }
}

// --- Suite smoke: every fault kind, oracle-equal --------------------

/**
 * Tier-1 coverage guarantee: every fault event type fires at least
 * once against a real suite workload, and each preserves state.
 */
TEST(ChaosOracle, EveryFaultKindPreservesStateOnFir)
{
    const Workload::Build build = buildSuiteWorkload("fir", 8);
    const ChaosReference ref = makeReference(build.prog, 8);
    const std::vector<std::string> keys = {
        "p700", "int@40", "flush@80", "evict@60", "smc@100", "dcache@50",
    };
    for (const auto &key : keys) {
        SCOPED_TRACE(key);
        const ChaosReport report = checkSchedule(
            ref, build.prog, 8, FaultSchedule::parse(key));
        EXPECT_TRUE(report.equal) << "schedule " << key;
        for (const auto &m : report.mismatches)
            ADD_FAILURE() << "  " << m;
        EXPECT_GE(report.faultsFired, 1u) << "schedule " << key
                                          << " never fired";
    }
}

/** Composed multi-kind schedules force the loss -> re-translate path. */
TEST(ChaosOracle, ComposedScheduleRetranslatesAndStaysEqual)
{
    const Workload::Build build = buildSuiteWorkload("fir", 8);
    const ChaosReference ref = makeReference(build.prog, 8);
    const ChaosReport report = checkSchedule(
        ref, build.prog, 8,
        FaultSchedule::parse("int@40+flush@80+smc@100"));
    EXPECT_TRUE(report.equal);
    for (const auto &m : report.mismatches)
        ADD_FAILURE() << "  " << m;
    EXPECT_GE(report.faultsFired, 3u);
    EXPECT_GE(report.retranslations, 1u)
        << "flush/smc should force at least one re-translation";
}

// --- Determinism contract -------------------------------------------

/**
 * The same (program, width, schedule) triple must reproduce the full
 * final state — including scratch-register residue — bit for bit.
 */
TEST(ChaosOracle, SameScheduleReproducesIdenticalFinalState)
{
    const Workload::Build build = buildSuiteWorkload("fft", 8);
    const ChaosReference ref = makeReference(build.prog, 8);
    const FaultSchedule sched =
        FaultSchedule::parse("p250+evict@60+smc@100");
    const ChaosReport a = checkSchedule(ref, build.prog, 8, sched);
    const ChaosReport b = checkSchedule(ref, build.prog, 8, sched);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.faultsFired, b.faultsFired);
    EXPECT_EQ(a.retranslations, b.retranslations);
    EXPECT_TRUE(a.finalState == b.finalState)
        << "replay diverged from first run";
}

// --- Sabotage: the oracle must catch a broken fallback --------------

/**
 * The deliberately broken core model (abandon in-flight microcode on
 * interrupt instead of completing it) violates the paper's precise
 * fault model. Sweeping the interrupt across retire indices must make
 * the oracle catch the divergence at least once — proof the oracle
 * detects real fallback bugs rather than vacuously passing.
 */
TEST(ChaosOracle, CatchesSabotagedInterruptFallback)
{
    // A generated kernel keeps each run small enough to sweep every
    // retire index; the sabotage only bites when the interrupt lands
    // while microcode is executing, so the sweep must be dense.
    KernelCorpus corpus(11);
    corpus.next();
    Rng data_rng(12);
    const Program prog =
        corpus.mustBuild(data_rng, EmitOptions::Mode::Scalarized, 8);
    const ChaosReference ref = makeReference(prog, 8);

    unsigned caught = 0;
    const std::uint64_t sweep =
        std::min<std::uint64_t>(ref.instsRetired, 1500);
    for (std::uint64_t at = 1; at <= sweep; ++at) {
        FaultSchedule sched;
        sched.add(FaultKind::Interrupt, at);
        const ChaosReport report =
            checkSchedule(ref, prog, 8, sched, /*sabotage=*/true);
        if (!report.equal)
            ++caught;
    }
    EXPECT_GE(caught, 1u)
        << "oracle never caught the sabotaged interrupt fallback";
}

/** Without an interrupt the sabotage knob must be inert. */
TEST(ChaosOracle, SabotageWithoutInterruptIsInert)
{
    const Workload::Build build = buildSuiteWorkload("fir", 8);
    const ChaosReference ref = makeReference(build.prog, 8);
    const ChaosReport report = checkSchedule(
        ref, build.prog, 8, FaultSchedule{}, /*sabotage=*/true);
    EXPECT_TRUE(report.equal);
    for (const auto &m : report.mismatches)
        ADD_FAILURE() << "  " << m;
}

// --- Metamorphic property: random kernels x random schedules --------

/**
 * The ISSUE's headline property: >= 200 random (kernel, schedule)
 * pairs, each equal to the fault-free scalar reference. Trials and
 * seed come from LIQUID_CHAOS_TRIALS / LIQUID_CHAOS_SEED.
 */
TEST(ChaosProperty, RandomKernelsUnderRandomSchedules)
{
    const unsigned trials = envNumber("LIQUID_CHAOS_TRIALS", 300u);
    const unsigned seed = envNumber("LIQUID_CHAOS_SEED", 1u);
    KernelCorpus corpus(seed);
    Rng &rng = corpus.rng();
    Rng data_rng(seed ^ 0x9e3779b9u);

    // A kernel the scalarizer rejects is not chaos-relevant; draw
    // another without burning a trial.
    for (unsigned done = 0, t = 0; done < trials; ++t) {
        ASSERT_LT(t, 4 * trials)
            << "too many scalarizer rejects: " << corpus.skipSummary();
        corpus.next();
        const unsigned width = rng.chance(0.5) ? 8 : 4;
        const std::optional<Program> built = corpus.build(
            data_rng, EmitOptions::Mode::Scalarized, width);
        if (!built)
            continue;
        const Program &prog = *built;
        ++done;

        const ChaosReference ref = makeReference(prog, width);
        const FaultSchedule sched = FaultSchedule::random(
            rng, std::max<std::uint64_t>(ref.instsRetired, 1),
            ref.regions);
        SCOPED_TRACE("trial " + std::to_string(t) + " width=" +
                     std::to_string(width) + " schedule=" +
                     sched.key());

        const ChaosReport report =
            checkSchedule(ref, prog, width, sched);
        EXPECT_TRUE(report.equal);
        for (const auto &m : report.mismatches)
            ADD_FAILURE() << "  " << m;
        if (!report.equal)
            dumpListing("LIQUID_CHAOS_DUMP_DIR", "chaos_failures",
                        "chaos_trial" + std::to_string(t), prog,
                        "; failing fault schedule: " + sched.key() + "\n");
    }
}

/**
 * Explorer sanity on a generated kernel: exhaustive window plus
 * random trials, no failures, and every kind covered.
 */
TEST(ChaosProperty, ExplorerCoversEveryKindWithoutFailures)
{
    KernelCorpus corpus(42);
    corpus.next();
    Rng data_rng(43);
    const Program prog =
        corpus.mustBuild(data_rng, EmitOptions::Mode::Scalarized, 8);

    ExploreOptions opts;
    opts.window = 8;
    opts.trials = 8;
    opts.seed = 5;
    const ExploreSummary summary = exploreSchedules(prog, 8, opts);

    EXPECT_TRUE(summary.ok());
    for (const auto &f : summary.failures)
        ADD_FAILURE() << f.scheduleKey;
    EXPECT_EQ(summary.schedulesRun,
              8 * static_cast<unsigned>(FaultKind::NumKinds) + 8);
    for (const char *kind : {"int", "flush", "evict", "smc", "dcache"})
        EXPECT_GE(summary.kindCoverage.at(kind), 8u) << kind;
    EXPECT_GE(summary.faultsFired, 1u);
}

} // namespace
} // namespace liquid
