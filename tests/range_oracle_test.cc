/**
 * @file
 * Differential soundness oracle for the liquid-range analysis.
 *
 * Every program — the curated stress set, the fifteen-benchmark
 * workload suite, and randomized scalarized kernels — is executed on
 * the scalar-baseline core with a RangeObserver on the retire bus.
 * Each retired scalar value and effective address must lie inside the
 * static fact the interprocedural solver proved for its instruction;
 * a single escape is a soundness bug in a transfer function.
 *
 * A second section seeds every --sabotage mutation (unsound join,
 * wrap clamping, skipped store havoc, over-tight branch refinement)
 * and requires the oracle to CATCH each one on the stress set: the
 * oracle itself is under test, not just the analysis.
 *
 * The randomized section scales with LIQUID_RANGE_ORACLE_TRIALS (its
 * own knob: the depcheck oracle has another) and derives its generator
 * seed from LIQUID_ORACLE_SEED, so the nightly CI fuzz job can run a
 * wide sweep on a date-derived seed without a rebuild.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "asm/assembler.hh"
#include "sim/system.hh"
#include "test_env.hh"
#include "verifier/range.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/range_stress.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

struct OracleRun
{
    unsigned checked = 0;
    std::vector<std::string> violations;
};

/** Solve, execute on the scalar baseline, and collect violations. */
OracleRun
runOracle(const Program &prog, unsigned sabotage = SabNone)
{
    RangeSolveOptions ropt;
    ropt.sabotage = sabotage;
    const ProgramRanges pr = solveProgramRanges(prog, ropt);

    System sys(SystemConfig::make(ExecMode::ScalarBaseline), prog);
    RangeObserver obs(prog, pr);
    sys.core().setRetireSink(&obs);
    sys.run();

    OracleRun run;
    run.checked = obs.checkedRetires();
    run.violations = obs.violations();
    return run;
}

TEST(RangeOracle, StressCasesAreViolationFree)
{
    for (const RangeStressCase &c : rangeStressCases()) {
        SCOPED_TRACE(c.name);
        const OracleRun run = runOracle(assemble(c.src));
        EXPECT_GT(run.checked, 0u);
        EXPECT_TRUE(run.violations.empty())
            << run.violations.size() << " violation(s), first: "
            << run.violations.front();
    }
}

TEST(RangeOracle, WorkloadSuiteIsViolationFree)
{
    for (const auto &wl : makeSuite()) {
        SCOPED_TRACE(wl->name());
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const OracleRun run = runOracle(build.prog);
        EXPECT_GT(run.checked, 0u);
        EXPECT_TRUE(run.violations.empty())
            << run.violations.size() << " violation(s), first: "
            << run.violations.front();
    }
}

TEST(RangeOracle, RandomizedKernelsAreViolationFree)
{
    const unsigned trials = envNumber("LIQUID_RANGE_ORACLE_TRIALS", 10u);
    const unsigned seed = envNumber("LIQUID_ORACLE_SEED", 919u);

    KernelCorpus corpus(seed);
    unsigned totalChecked = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        const GeneratedKernel &g = corpus.next();
        Rng data(seed * 97 + trial);
        const auto prog = corpus.build(data, EmitOptions::Mode::Scalarized, 8);
        // A kernel the scalarizer rejects has no program to observe.
        if (!prog)
            continue;
        SCOPED_TRACE(g.kernel.name() + "_r" + std::to_string(trial));
        const OracleRun run = runOracle(*prog);
        totalChecked += run.checked;
        EXPECT_TRUE(run.violations.empty())
            << run.violations.size() << " violation(s), first: "
            << run.violations.front();
    }
    std::cout << corpus.skipSummary() << " of " << trials << '\n';
    // The skip path must stay the exception, not the rule.
    EXPECT_LE(corpus.skipped(), trials / 10 + 1);
    EXPECT_GT(totalChecked, 0u);
}

/**
 * Mutation coverage: each seeded unsoundness must produce at least one
 * observed violation somewhere in the stress set. If a mutation slips
 * past, either the oracle or the stress programs have gone stale.
 */
TEST(RangeOracle, SabotageMutationsAreCaught)
{
    const unsigned mutations[] = {SabUnsoundJoin, SabWrapClamp,
                                  SabStoreNoHavoc, SabEdgeTighten};
    const char *names[] = {"unsoundJoin", "wrapClamp", "storeNoHavoc",
                           "edgeTighten"};
    for (unsigned m = 0; m < 4; ++m) {
        SCOPED_TRACE(names[m]);
        bool caught = false;
        for (const RangeStressCase &c : rangeStressCases()) {
            const OracleRun run =
                runOracle(assemble(c.src), mutations[m]);
            if (!run.violations.empty()) {
                caught = true;
                break;
            }
        }
        EXPECT_TRUE(caught) << "mutation escaped the oracle";
    }
}

} // namespace
} // namespace liquid
