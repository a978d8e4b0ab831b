/**
 * @file
 * Lockstep differential tests for the functional execution tier: the
 * interpreter must retire exactly the architectural state the cycle
 * core retires, instruction for instruction, across the whole workload
 * suite, randomized kernels, shared user errors and fault injection —
 * and the sabotage self-test proves the compare actually bites.
 *
 * Random-kernel count defaults to 200 and can be raised for fuzz runs
 * via LIQUID_LOCKSTEP_KERNELS (the strided kernel case runs a quarter
 * of it); LIQUID_LOCKSTEP_SEED seeds the strided cases' strides.
 */

#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hh"
#include "chaos/fault_schedule.hh"
#include "chaos/oracle.hh"
#include "common/random.hh"
#include "fast/lockstep.hh"
#include "memory/main_memory.hh"
#include "sim/system.hh"
#include "test_env.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

namespace liquid::fast
{
namespace
{

std::string
firstDivergence(const LockstepResult &r)
{
    return r.divergences.empty() ? std::string("(none)")
                                 : r.divergences.front();
}

/** Every suite workload, scalar build, per-retire equal. */
TEST(FastLockstep, SuiteScalarBaseline)
{
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult r =
            runLockstep(build.prog, ExecMode::ScalarBaseline, 0);
        EXPECT_TRUE(r.equal)
            << wl->name() << ": " << firstDivergence(r);
        EXPECT_GT(r.retires, 0u) << wl->name();
    }
}

/** Every suite workload, native SIMD build at width 8. */
TEST(FastLockstep, SuiteNativeSimd)
{
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult r =
            runLockstep(build.prog, ExecMode::NativeSimd, 8);
        EXPECT_TRUE(r.equal)
            << wl->name() << ": " << firstDivergence(r);
        EXPECT_GT(r.retires, 0u) << wl->name();
    }
}

/**
 * Randomized kernels (>= 200 by default), both modes per kernel. The
 * scalar side runs the Scalarized build so bl/ret and the call log
 * are in the retire stream too.
 */
TEST(FastLockstep, RandomKernels)
{
    const unsigned kernels = envNumber("LIQUID_LOCKSTEP_KERNELS", 200u);
    KernelCorpus corpus(7);
    unsigned checked = 0;
    for (unsigned i = 0; i < kernels; ++i) {
        const GeneratedKernel &g = corpus.next();
        Rng scalarData(0x9e3779b97f4a7c15ull + i);
        const auto scalarProg =
            corpus.build(scalarData, EmitOptions::Mode::Scalarized, 8);
        Rng nativeData(0x9e3779b97f4a7c15ull + i);
        const auto nativeProg =
            corpus.build(nativeData, EmitOptions::Mode::Native, 8);
        if (!scalarProg || !nativeProg)
            continue;
        ++checked;
        const LockstepResult rs =
            runLockstep(*scalarProg, ExecMode::ScalarBaseline, 0);
        EXPECT_TRUE(rs.equal)
            << g.kernel.name() << " (scalar): " << firstDivergence(rs);
        const LockstepResult rn =
            runLockstep(*nativeProg, ExecMode::NativeSimd, 8);
        EXPECT_TRUE(rn.equal)
            << g.kernel.name() << " (native): " << firstDivergence(rn);
    }
    // The skip path must stay the exception, not the rule.
    EXPECT_GE(checked, kernels * 9 / 10) << corpus.skipSummary();
}

/**
 * A program that fails the same way on both tiers agrees: a top-level
 * ret and running off the text are user errors with one text on both.
 */
TEST(FastLockstep, SharedUserErrorsAgree)
{
    for (const char *src : {"main:\n  ret\n", "main:\n  nop\n"}) {
        const Program prog = assemble(src);
        const LockstepResult r =
            runLockstep(prog, ExecMode::ScalarBaseline, 0);
        EXPECT_TRUE(r.equal) << src << ": " << firstDivergence(r);
    }
}

/**
 * Retire-keyed fault events deliver to both tiers; the dispatch-cache
 * invalidation they trigger on the functional side must never change
 * architectural results.
 */
TEST(FastLockstep, FaultEventsStayEqual)
{
    LockstepOptions opts;
    opts.faults =
        FaultSchedule::parse("dcache@77+int@50+smc@123+flush@199");
    for (const auto &wl : makeSuite()) {
        if (wl->name() != "fir" && wl->name() != "lu")
            continue;
        const auto scalar = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, opts);
        EXPECT_TRUE(rs.equal)
            << wl->name() << ": " << firstDivergence(rs);
        const auto native = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult rn =
            runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
        EXPECT_TRUE(rn.equal)
            << wl->name() << ": " << firstDivergence(rn);
    }
}

/** Liquid mode interleaves microcode into the retire stream; the
 *  harness must refuse it rather than report spurious divergences. */
TEST(FastLockstep, LiquidModeRejected)
{
    const auto suite = makeSuite();
    const auto build =
        suite.front()->build(EmitOptions::Mode::Scalarized, 8);
    EXPECT_THROW(runLockstep(build.prog, ExecMode::Liquid, 8),
                 FatalError);
}

/**
 * Self-test: every seeded handler bug must surface as a divergence on
 * at least one of the two lockstep runs — a compare that misses a
 * known-wrong functional tier would also miss a real bug.
 */
TEST(FastLockstep, SabotageModesAllCaught)
{
    const auto fir = makeWorkload("fir");
    const auto scalar = fir->build(EmitOptions::Mode::Scalarized, 8);
    const auto native = fir->build(EmitOptions::Mode::Native, 8);

    for (Sabotage s :
         {Sabotage::WrongFlagUpdate, Sabotage::SkippedStore,
          Sabotage::StaleDecodeAfterSmc, Sabotage::OffByOneBlock}) {
        LockstepOptions opts;
        opts.sabotage = s;
        // The stale-decode mutation only bites when an SMC event
        // exercises the invalidation path it corrupts.
        if (s == Sabotage::StaleDecodeAfterSmc)
            opts.faults = FaultSchedule::parse("smc@40");
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, opts);
        const LockstepResult rn =
            runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
        EXPECT_FALSE(rs.equal && rn.equal)
            << "sabotage mode " << static_cast<int>(s)
            << " was not caught";
    }
}

/**
 * The cycle-core scalar reference: the oracle the functional
 * makeReference is held to below, and its only remaining use.
 */
ChaosReference
cycleReference(const Program &prog, unsigned width)
{
    System sys(SystemConfig::make(ExecMode::ScalarBaseline, width), prog);
    sys.run();
    ChaosReference ref;
    ref.snapshot = snapshotSystem(sys, prog);
    ref.instsRetired = sys.core().instsRetired();
    for (const auto &[target, stamps] : sys.core().callLog())
        ref.regions.push_back(target);
    return ref;
}

/**
 * makeReference (the functional tier) must be bit-identical to the
 * cycle-core reference across the suite, for the builds at every
 * width the chaos class and the oracles run: this is what licenses
 * every scalar reference to ride on the functional tier.
 */
TEST(FastLockstep, FunctionalReferenceMatchesCycleReference)
{
    for (const auto &wl : makeSuite()) {
        for (unsigned width : {4u, 8u, 16u}) {
            const auto build =
                wl->build(EmitOptions::Mode::Scalarized, width);
            const ChaosReference cyc = cycleReference(build.prog, width);
            const ChaosReference fun = makeReference(build.prog, width);
            EXPECT_EQ(fun.instsRetired, cyc.instsRetired)
                << wl->name() << " w" << width;
            EXPECT_EQ(fun.regions, cyc.regions)
                << wl->name() << " w" << width;
            const bool same = fun.snapshot == cyc.snapshot;
            EXPECT_TRUE(same) << wl->name() << " w" << width << ": "
                              << (same ? std::string()
                                       : fun.snapshot.diff(cyc.snapshot)
                                             .front());
        }
    }
}

// --- Random strides ---------------------------------------------------
//
// step() stops after every op, so the per-retire runs above never take
// a multi-op block or stop inside one. These cases advance the
// functional tier by runUntil(retired() + s), s random in [1, 64], and
// compare at each boundary (docs/FAST.md lists the block-loop
// mutations each case catches). They run as their own ctest case,
// fast_lockstep_strided_test.

/** Stride seed of the strided cases; LIQUID_LOCKSTEP_SEED overrides. */
std::uint64_t
strideSeed()
{
    return envNumber("LIQUID_LOCKSTEP_SEED", std::uint64_t{2028});
}

LockstepOptions
strided(std::uint64_t salt)
{
    LockstepOptions opts;
    opts.strideSeed = strideSeed() * 1000 + salt + 1;
    return opts;
}

/** The suite, scalar and native builds, advanced by random strides. */
TEST(FastLockstepStrided, Suite)
{
    std::uint64_t salt = 0;
    for (const auto &wl : makeSuite()) {
        const auto scalar = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, strided(salt++));
        EXPECT_TRUE(rs.equal) << wl->name() << ": " << firstDivergence(rs);
        const auto native = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult rn = runLockstep(
            native.prog, ExecMode::NativeSimd, 8, strided(salt++));
        EXPECT_TRUE(rn.equal) << wl->name() << ": " << firstDivergence(rn);
    }
}

/** KernelCorpus kernels, both modes, advanced by random strides. */
TEST(FastLockstepStrided, CorpusKernels)
{
    const unsigned kernels =
        envNumber("LIQUID_LOCKSTEP_KERNELS", 200u) / 4;
    KernelCorpus corpus(29);
    unsigned checked = 0;
    for (unsigned i = 0; i < kernels; ++i) {
        const GeneratedKernel &g = corpus.next();
        Rng scalarData(0x5eed0000ull + i);
        const auto scalarProg =
            corpus.build(scalarData, EmitOptions::Mode::Scalarized, 8);
        Rng nativeData(0x5eed0000ull + i);
        const auto nativeProg =
            corpus.build(nativeData, EmitOptions::Mode::Native, 8);
        if (!scalarProg || !nativeProg)
            continue;
        ++checked;
        const LockstepResult rs = runLockstep(
            *scalarProg, ExecMode::ScalarBaseline, 0, strided(2 * i));
        EXPECT_TRUE(rs.equal)
            << g.kernel.name() << " (scalar): " << firstDivergence(rs);
        const LockstepResult rn = runLockstep(
            *nativeProg, ExecMode::NativeSimd, 8, strided(2 * i + 1));
        EXPECT_TRUE(rn.equal)
            << g.kernel.name() << " (native): " << firstDivergence(rn);
    }
    EXPECT_GE(checked, kernels * 9 / 10) << corpus.skipSummary();
}

/**
 * Random fault schedules over the whole run: their events land inside
 * blocks, so the functional tier must cut a block at each event's
 * retire and fire it there, as the cycle core does.
 */
TEST(FastLockstepStrided, FaultSchedules)
{
    Rng rng(strideSeed());
    std::uint64_t salt = 0;
    for (const auto &wl : makeSuite()) {
        const auto scalar = wl->build(EmitOptions::Mode::Scalarized, 8);
        const auto native = wl->build(EmitOptions::Mode::Native, 8);
        const ChaosReference ref = makeReference(scalar.prog, 8);
        for (int trial = 0; trial < 2; ++trial) {
            LockstepOptions opts = strided(salt++);
            opts.faults =
                FaultSchedule::random(rng, ref.instsRetired, ref.regions);
            const LockstepResult rs = runLockstep(
                scalar.prog, ExecMode::ScalarBaseline, 0, opts);
            EXPECT_TRUE(rs.equal) << wl->name() << " "
                                  << opts.faults.key() << ": "
                                  << firstDivergence(rs);
            const LockstepResult rn =
                runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
            EXPECT_TRUE(rn.equal) << wl->name() << " "
                                  << opts.faults.key() << ": "
                                  << firstDivergence(rn);
        }
    }
}

/**
 * An out-of-bounds load at each position but the last of a 13-op
 * block, after a 40-trip warm-up loop so that strides stop inside the
 * block too: run() on the functional tier must stop with the cycle
 * core's FatalError text, retire count (which counts the faulting
 * load) and pc, and so must every stride that reaches it.
 */
TEST(FastLockstepStrided, OutOfBoundsLoadAtEveryBlockPosition)
{
    constexpr int blockOps = 12;
    constexpr std::uint64_t before = 1 + 40 * 3 + 2;  // retires to body
    for (int at = 0; at < blockOps; ++at) {
        std::string src = ".words x 1 2 3 4\nmain:\n  mov r9, #0\n"
                          "warm:\n  add r9, r9, #1\n  cmp r9, #40\n"
                          "  blt warm\n  mov r9, #1000000\n  b body\n"
                          "body:\n";
        for (int k = 0; k < blockOps; ++k) {
            src += k == at ? "  ldw r2, [x + r9]\n"
                           : "  add r1, r1, #" + std::to_string(k) + "\n";
        }
        src += "  halt\n";
        const Program prog = assemble(src);

        System sys(SystemConfig::make(ExecMode::ScalarBaseline, 0), prog);
        std::string cycle_err;
        try {
            sys.run();
        } catch (const FatalError &e) {
            cycle_err = e.what();
        }
        ASSERT_NE(cycle_err, "") << "load at " << at;
        ASSERT_EQ(sys.core().instsRetired(),
                  before + static_cast<std::uint64_t>(at) + 1);

        MainMemory mem = MainMemory::forProgram(prog);
        FastInterp interp(FastConfig{}, prog, mem);
        std::string fast_err;
        try {
            interp.run();
        } catch (const FatalError &e) {
            fast_err = e.what();
        }
        EXPECT_EQ(fast_err, cycle_err) << "load at " << at;
        EXPECT_EQ(interp.retired(), sys.core().instsRetired())
            << "load at " << at;
        EXPECT_EQ(interp.pc(), sys.core().pc()) << "load at " << at;

        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            LockstepOptions opts;
            opts.strideSeed = seed;
            const LockstepResult r =
                runLockstep(prog, ExecMode::ScalarBaseline, 0, opts);
            EXPECT_TRUE(r.equal) << "load at " << at << " seed " << seed
                                 << ": " << firstDivergence(r);
        }
    }
}

} // namespace
} // namespace liquid::fast
