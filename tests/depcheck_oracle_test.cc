/**
 * @file
 * Differential execution oracle for the memory-dependence analysis.
 *
 * For each kernel (curated Overlap* sabotage shapes at known carried
 * distances, plus randomized kernels and layouts) the same scalarized
 * program is executed twice through src/sim/system — once on the
 * scalar baseline, once under the Liquid translator at a given width —
 * and the final data images are compared. The verifier's verdict must
 * exactly predict the comparison:
 *
 *   Ok                      -> translation commits, memories equal
 *   Error + depMiscompile   -> translation commits, memories DIFFER
 *   Error (anything else)   -> translation aborts (same reason),
 *                              scalar fallback keeps memories equal
 *
 * A false Ok (committed and diverged) is the one unacceptable outcome;
 * any oracle disagreement dumps the offending program listing to
 * $LIQUID_ORACLE_DUMP_DIR (default oracle_failures/) for triage.
 *
 * The randomized section scales with LIQUID_DEPCHECK_ORACLE_TRIALS (its
 * own knob: the range oracle has another) and derives its generator
 * seed from LIQUID_ORACLE_SEED, so the nightly CI fuzz job can run a
 * 10x sweep on a date-derived seed without a rebuild.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "fast/fast.hh"
#include "sim/system.hh"
#include "test_env.hh"
#include "translator/offline.hh"
#include "verifier/verifier.hh"
#include "workloads/kernel_corpus.hh"

namespace liquid
{
namespace
{

/** The words of @p prog's data segment in @p mem. */
std::vector<Word>
dataWords(const Program &prog, const MainMemory &mem)
{
    const std::size_t bytes = prog.dataImage().size();
    std::vector<Word> image;
    image.reserve(bytes / 4 + 1);
    for (std::size_t off = 0; off + 4 <= bytes; off += 4)
        image.push_back(mem.readWord(Program::dataBase + off));
    return image;
}

/** Run @p prog under @p mode and return its final data image. */
std::vector<Word>
runImage(const Program &prog, ExecMode mode, unsigned width)
{
    System sys(SystemConfig::make(mode, width), prog);
    sys.run();
    return dataWords(prog, sys.memory());
}

/**
 * The scalar-baseline data image, computed on the functional tier (a
 * fraction of the cycle model's cost; fast_lockstep_test proves the
 * tiers architecturally identical) — this is what lets the default
 * trial count rise while wall-clock stays flat. Set
 * LIQUID_ORACLE_REFERENCE=cycle to restore the cycle-core reference.
 */
std::vector<Word>
scalarImage(const Program &prog, unsigned width)
{
    const char *v = std::getenv("LIQUID_ORACLE_REFERENCE");
    if (v && std::string(v) == "cycle")
        return runImage(prog, ExecMode::ScalarBaseline, width);
    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastInterp interp(fast::FastConfig{}, prog, mem);
    interp.run();
    return dataWords(prog, mem);
}

/**
 * The oracle proper: check that the verifier's single-width verdict
 * for @p entry exactly predicts commit/abort and memory equivalence.
 * Returns false (and dumps the program) on any disagreement.
 */
void
checkOracle(const Program &prog, const std::string &label,
            const std::string &trace, unsigned width, unsigned hint)
{
    SCOPED_TRACE(trace + " width=" + std::to_string(width));

    VerifyOptions vopts;
    vopts.config.simdWidth = width;
    vopts.widthFallback = false;
    const int entry = prog.labelIndex(label);
    const RegionReport r = verifyRegion(prog, entry, vopts, hint);

    const OfflineResult off =
        translateOffline(prog, entry, width, hint);
    const bool match = scalarImage(prog, width) ==
                       runImage(prog, ExecMode::Liquid, width);

    bool agreed = true;
    switch (r.verdict) {
      case Severity::Ok:
        // Ok promises commit AND semantic equivalence — a false Ok
        // here is the failure mode depcheck exists to rule out.
        EXPECT_TRUE(off.ok) << "verdict ok but translation aborts: "
                            << off.abortReason;
        EXPECT_TRUE(match) << "verdict ok but memories diverge";
        agreed = off.ok && match;
        break;
      case Severity::Error:
        if (r.depMiscompile) {
            EXPECT_TRUE(off.ok)
                << "depMiscompile predicts a commit, got abort: "
                << off.abortReason;
            EXPECT_FALSE(match)
                << "depMiscompile predicts divergence, memories equal";
            agreed = off.ok && !match;
        } else {
            EXPECT_FALSE(off.ok)
                << "error verdict but translation commits";
            if (!off.ok) {
                EXPECT_EQ(r.reason, off.reason)
                    << "predicted " << abortReasonName(r.reason)
                    << ", dynamic " << abortReasonName(off.reason);
            }
            EXPECT_TRUE(match)
                << "aborted region must fall back to scalar";
            agreed = !off.ok && match && r.reason == off.reason;
        }
        break;
      case Severity::Warn:
        // Runtime-dependent: the oracle cannot contradict the verdict
        // itself, but a dependence proof is still binding — if
        // depcheck certified this width safe and the translation
        // commits anyway, the memories must match.
        if (off.ok && r.depAnalyzed && r.dep.safeAt(width)) {
            EXPECT_TRUE(match)
                << "committed region with a safety proof diverged";
            agreed = match;
        }
        break;
    }
    if (!agreed)
        dumpListing("LIQUID_ORACLE_DUMP_DIR", "oracle_failures",
                    trace + "_w" + std::to_string(width), prog);
}

TEST(DepcheckOracle, OverlapKernelsAtKnownDistances)
{
    using Sabotage = EmitOptions::Sabotage;
    const Sabotage modes[] = {
        Sabotage::OverlapStoreStore,
        Sabotage::OverlapLoadAhead,
        Sabotage::OverlapStoreAfterLoad,
    };

    KernelCorpus corpus(515);
    const GeneratedKernel &g = corpus.next();
    for (const Sabotage mode : modes) {
        for (const unsigned d : {1u, 2u, 3u, 4u, 8u, 16u}) {
            for (const unsigned width : {2u, 4u, 8u}) {
                Rng data(77);
                const Program prog = corpus.mustBuild(
                    data, EmitOptions::Mode::Scalarized, width, mode, d);
                checkOracle(prog, g.kernel.name(),
                            g.kernel.name() + "_m" +
                                std::to_string(static_cast<int>(mode)) +
                                "_d" + std::to_string(d),
                            width, g.kernel.maxWidth());
            }
        }
    }
}

TEST(DepcheckOracle, CleanKernelsNeverDiverge)
{
    KernelCorpus corpus(626);
    for (unsigned trial = 0; trial < 6; ++trial) {
        const GeneratedKernel &g = corpus.next();
        for (const unsigned width : {2u, 8u}) {
            Rng data(trial * 13 + 5);
            const Program prog = corpus.mustBuild(
                data, EmitOptions::Mode::Scalarized, width);
            checkOracle(prog, g.kernel.name(), g.kernel.name(),
                        width, g.kernel.maxWidth());
        }
    }
}

TEST(DepcheckOracle, RandomizedKernelsAndLayouts)
{
    using Sabotage = EmitOptions::Sabotage;
    const unsigned trials =
        envNumber("LIQUID_DEPCHECK_ORACLE_TRIALS", 15u);
    const unsigned seed = envNumber("LIQUID_ORACLE_SEED", 811u);

    KernelCorpus corpus(seed);
    Rng &rng = corpus.rng();
    const Sabotage modes[] = {
        Sabotage::None,
        Sabotage::OverlapStoreStore,
        Sabotage::OverlapLoadAhead,
        Sabotage::OverlapStoreAfterLoad,
    };
    const unsigned distances[] = {1, 2, 3, 4, 8, 16};
    for (unsigned trial = 0; trial < trials; ++trial) {
        const GeneratedKernel &g = corpus.next();
        const Sabotage mode = modes[rng.range(0, 3)];
        const unsigned d = distances[rng.range(0, 5)];
        const unsigned width = 2u << rng.range(0, 2);  // 2/4/8

        Rng data(seed * 131 + trial);
        const std::optional<Program> prog = corpus.build(
            data, EmitOptions::Mode::Scalarized, width, mode, d);
        // A kernel the scalarizer rejects has no region to check.
        if (!prog)
            continue;
        checkOracle(*prog, g.kernel.name(),
                    g.kernel.name() + "_r" + std::to_string(trial),
                    width, g.kernel.maxWidth());
    }
    std::cout << corpus.skipSummary() << " of " << trials << '\n';
    // The skip path must stay the exception, not the rule.
    EXPECT_LE(corpus.skipped(), trials / 10 + 1);
}

/**
 * Acceptance sweep: across the sabotage matrix no statically
 * resolvable kernel may be left at Warn(memoryDependence) — depcheck
 * must discharge every one to Ok or Error.
 */
TEST(DepcheckOracle, NoResidualMemoryDependenceWarns)
{
    using Sabotage = EmitOptions::Sabotage;
    KernelCorpus corpus(717);
    unsigned checked = 0;
    for (unsigned trial = 0; trial < 8; ++trial) {
        const GeneratedKernel &g = corpus.next();
        for (const Sabotage mode :
             {Sabotage::None, Sabotage::OverlapStoreStore,
              Sabotage::OverlapLoadAhead,
              Sabotage::OverlapStoreAfterLoad}) {
            Rng data(trial);
            const Program prog = corpus.mustBuild(
                data, EmitOptions::Mode::Scalarized, 8, mode, 3);
            VerifyOptions vopts;
            vopts.config.simdWidth = 8;
            const RegionReport r = verifyRegion(
                prog, prog.labelIndex(g.kernel.name()), vopts,
                g.kernel.maxWidth());
            if (!r.depAnalyzed || !r.dep.resolved)
                continue;
            ++checked;
            EXPECT_NE(r.verdict, Severity::Warn)
                << "resolvable kernel left at warn, trial " << trial;
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace liquid
