/**
 * @file
 * Unit tests for the static memory-dependence and stride analysis
 * (src/verifier/depcheck.*): access classification over the address
 * lattice, per-width safety verdicts, the scalarizer's Overlap*
 * sabotage kernels, and the verifyRegion() wiring (silent-miscompile
 * Error, conservative-abort note, pair-budget Warn).
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "scalarizer/scalarizer.hh"
#include "verifier/cfg.hh"
#include "verifier/depcheck.hh"
#include "verifier/verifier.hh"

namespace liquid
{
namespace
{

const char *copySrc = R"(
    .words src 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    .data dst 64
    fn:
        mov r0, #0
    top:
        ldw r1, [src + r0]
        stw [dst + r0], r1
        add r0, r0, #1
        cmp r0, #16
        blt top
        ret
    main:
        bl.simd fn
        halt
)";

/**
 * a[i] = a[i+1] + 7: each store overlaps the previous iteration's load,
 * which runs first in textual order too, so every width is safe. The
 * translator's interval test ignores a store below a load stream.
 */
const char *shiftDownSrc = R"(
    .words sa 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17
    fn:
        mov r0, #0
        mov r5, #1
    top:
        ldw r1, [sa + r5]
        add r1, r1, #7
        stw [sa + r0], r1
        add r5, r5, #1
        add r0, r0, #1
        cmp r0, #16
        blt top
        ret
    main:
        bl.simd fn
        halt
)";

const char *gatherSrc = R"(
    .rowords bfly 4 4 4 4 -4 -4 -4 -4
    .words src 10 11 12 13 14 15 16 17
    .data dst 32
    fn:
        mov r0, #0
    top:
        ldw r1, [bfly + r0]
        add r1, r0, r1
        ldw r2, [src + r1]
        stw [dst + r0], r2
        add r0, r0, #1
        cmp r0, #8
        blt top
        ret
    main:
        bl.simd fn
        halt
)";

DepcheckResult
analyze(const Program &prog, const DepcheckOptions &opts = {},
        const char *label = "fn")
{
    const int entry = prog.labelIndex(label);
    const RegionCfg cfg = RegionCfg::build(prog, entry);
    return analyzeDeps(prog, entry, cfg, opts);
}

/** Minimal copy kernel for the sabotage-mode builds. */
Program
sabotagedProgram(EmitOptions::Sabotage kind, unsigned distance,
                 unsigned trip = 16)
{
    vir::Kernel k("dk", trip);
    k.store("dkout", k.load("dkin", 4, false, false, 0));

    Program prog;
    std::vector<Word> words(trip + 16);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = static_cast<Word>(10 + i);
    prog.allocWords("dkin", words);
    prog.allocData("dkout", (trip + 16) * 4);

    EmitOptions opts;
    opts.mode = EmitOptions::Mode::Scalarized;
    opts.sabotage = kind;
    opts.sabotageDistance = distance;
    emitKernel(prog, k, opts);
    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, "dk", 0));
    prog.addInst(Inst::halt());
    prog.resolveBranches();
    return prog;
}

TEST(Depcheck, UnitStrideCopyIsSafeAtEveryWidth)
{
    const Program prog = assemble(copySrc);
    const DepcheckResult dep = analyze(prog);
    ASSERT_TRUE(dep.analyzed);
    ASSERT_TRUE(dep.resolved);
    EXPECT_EQ(dep.loopsAnalyzed, 1u);
    EXPECT_EQ(dep.carriedPairs, 0u);

    ASSERT_EQ(dep.accesses.size(), 2u);
    for (const MemAccess &a : dep.accesses) {
        EXPECT_EQ(a.cls, AccessClass::UnitStride);
        EXPECT_EQ(a.strideBytes, 4);
        EXPECT_EQ(a.events, 16u);
    }
    EXPECT_EQ(dep.accesses[0].arrayName, "src");
    EXPECT_TRUE(dep.accesses[1].isStore);
    EXPECT_EQ(dep.accesses[1].arrayName, "dst");

    for (const unsigned w : DepcheckResult::widths)
        EXPECT_TRUE(dep.safeAt(w)) << "width " << w;
    EXPECT_FALSE(dep.proofSummary(8).empty());
}

TEST(Depcheck, OffsetTableLoadClassifiedAsGather)
{
    const Program prog = assemble(gatherSrc);
    const DepcheckResult dep = analyze(prog);
    ASSERT_TRUE(dep.resolved);

    bool gather = false;
    for (const MemAccess &a : dep.accesses) {
        if (a.arrayName == "src") {
            EXPECT_EQ(a.cls, AccessClass::GatherScatter);
            EXPECT_FALSE(a.isStore);
            gather = true;
        }
    }
    EXPECT_TRUE(gather);
    // Loads never conflict with each other; the one store is to a
    // disjoint array, so every width stays safe.
    for (const unsigned w : DepcheckResult::widths)
        EXPECT_TRUE(dep.safeAt(w)) << "width " << w;
}

TEST(Depcheck, RegionWithoutLoopsIsTriviallySafe)
{
    const Program prog = assemble(R"(
        .data flat 64
        fn:
            mov r0, #1
            ret
        main:
            bl.simd fn
            halt
    )");
    const DepcheckResult dep = analyze(prog);
    EXPECT_FALSE(dep.analyzed);
    for (const unsigned w : DepcheckResult::widths)
        EXPECT_TRUE(dep.safeAt(w));
}

TEST(Depcheck, OverlapStoreStoreUnsafeBelowDistance)
{
    const Program prog =
        sabotagedProgram(EmitOptions::Sabotage::OverlapStoreStore, 4);
    const DepcheckResult dep = analyze(prog, {}, "dk");
    ASSERT_TRUE(dep.resolved);
    EXPECT_GT(dep.carriedPairs, 0u);
    EXPECT_EQ(dep.minDistance, 4u);

    EXPECT_TRUE(dep.safeAt(2));
    EXPECT_TRUE(dep.safeAt(4));
    EXPECT_EQ(dep.verdictAt(8).kind, WidthVerdict::Kind::Unsafe);
    EXPECT_EQ(dep.verdictAt(16).kind, WidthVerdict::Kind::Unsafe);

    const DepPair &pair = dep.verdictAt(8).pair;
    EXPECT_TRUE(pair.otherIsStore);
    EXPECT_TRUE(pair.orderFlips);
    EXPECT_EQ(pair.distance, 4u);
}

TEST(Depcheck, OverlapLoadAheadUnsafeBelowDistance)
{
    const Program prog =
        sabotagedProgram(EmitOptions::Sabotage::OverlapLoadAhead, 2);
    const DepcheckResult dep = analyze(prog, {}, "dk");
    ASSERT_TRUE(dep.resolved);
    EXPECT_EQ(dep.minDistance, 2u);
    EXPECT_TRUE(dep.safeAt(2));
    EXPECT_EQ(dep.verdictAt(4).kind, WidthVerdict::Kind::Unsafe);
    EXPECT_FALSE(dep.verdictAt(4).pair.otherIsStore);
}

TEST(Depcheck, VerifierFlagsSilentMiscompile)
{
    const Program prog =
        sabotagedProgram(EmitOptions::Sabotage::OverlapStoreStore, 2);
    VerifyOptions opts;
    opts.config.simdWidth = 8;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("dk"), opts);

    EXPECT_EQ(r.verdict, Severity::Error);
    EXPECT_EQ(r.reason, AbortReason::MemoryDependence);
    EXPECT_TRUE(r.depMiscompile);
    // The translator still commits, so the predictions are filled in.
    EXPECT_EQ(r.predictedWidth, 8u);
    EXPECT_GT(r.predictedUcode, 0u);
    bool named = false;
    for (const Diagnostic &d : r.diags) {
        if (d.severity == Severity::Error &&
            d.message.find("silent miscompile") != std::string::npos)
            named = true;
    }
    EXPECT_TRUE(named);
}

TEST(Depcheck, VerifierUpgradesWhenDistanceCoversWidth)
{
    // Distance 8 at width 8: every carried pair lands in a different
    // vector group, so the commit is provably safe.
    const Program prog =
        sabotagedProgram(EmitOptions::Sabotage::OverlapStoreStore, 8);
    VerifyOptions opts;
    opts.config.simdWidth = 8;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("dk"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
    EXPECT_EQ(r.predictedWidth, 8u);
    ASSERT_TRUE(r.depAnalyzed);
    EXPECT_EQ(r.dep.minDistance, 8u);
}

TEST(Depcheck, ConservativeAbortGetsAnExplanatoryNote)
{
    // Load then store +8 into one array: the translator's interval
    // test aborts at every width, but at width 8 the distance makes
    // the loop provably safe — the verifier keeps the Error verdict
    // (the hardware will abort) and documents the conservatism.
    const Program prog = sabotagedProgram(
        EmitOptions::Sabotage::OverlapStoreAfterLoad, 8, 32);
    VerifyOptions opts;
    opts.config.simdWidth = 8;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("dk"), opts);

    EXPECT_EQ(r.verdict, Severity::Error);
    EXPECT_EQ(r.reason, AbortReason::MemoryDependence);
    EXPECT_FALSE(r.depMiscompile);
    bool noted = false;
    for (const Diagnostic &d : r.diags) {
        if (d.message.find("conservative abort") != std::string::npos)
            noted = true;
    }
    EXPECT_TRUE(noted);
}

TEST(Depcheck, PairBudgetDegradesWideWidthsFirst)
{
    const Program prog = assemble(shiftDownSrc);
    DepcheckOptions opts;
    // Stores 1..15 each overlap one load, so the index build and every
    // width's scan visit 15 pairs: a budget of 45 covers the build and
    // widths 2 and 4 and leaves the wide ones unknown.
    opts.pairBudget = 45;
    const DepcheckResult dep = analyze(prog, opts);
    ASSERT_TRUE(dep.resolved);
    EXPECT_TRUE(dep.safeAt(2));
    EXPECT_TRUE(dep.safeAt(4));
    EXPECT_EQ(dep.verdictAt(8).kind, WidthVerdict::Kind::Unknown);
    EXPECT_EQ(dep.verdictAt(8).reason, DepReason::PairBudgetAtWidth);
    EXPECT_EQ(dep.verdictAt(16).kind, WidthVerdict::Kind::Unknown);
    EXPECT_EQ(dep.verdictAt(16).reason, DepReason::PairBudgetBefore);
    EXPECT_FALSE(dep.verdictAt(16).why.empty());

    // Accesses that never share a byte visit no pair at all.
    opts.pairBudget = 0;
    const DepcheckResult copy = analyze(assemble(copySrc), opts);
    EXPECT_EQ(copy.pairsExamined, 0u);
    for (const unsigned w : DepcheckResult::widths)
        EXPECT_TRUE(copy.safeAt(w)) << w;
}

TEST(Depcheck, PredicatedMemoryAccessIsUnresolved)
{
    // A conditional store inside the loop: which iterations touch
    // memory depends on data, so the walk refuses to claim a verdict.
    const Program prog = assemble(R"(
        .words psrc 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        .data pdst 64
        fn:
            mov r0, #0
        top:
            ldw r1, [psrc + r0]
            cmp r1, #8
            stwlt [pdst + r0], r1
            add r0, r0, #1
            cmp r0, #16
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    const DepcheckResult dep = analyze(prog);
    EXPECT_TRUE(dep.analyzed);
    EXPECT_FALSE(dep.resolved);
    for (const unsigned w : DepcheckResult::widths)
        EXPECT_EQ(dep.verdictAt(w).kind, WidthVerdict::Kind::Unknown);
    EXPECT_FALSE(dep.unresolvedWhy.empty());
}

} // namespace
} // namespace liquid
