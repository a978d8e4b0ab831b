/**
 * @file
 * Dynamic-translator tests: one test per rule of paper Table 3, plus
 * legality/abort behaviour, hint gating, blacklist, translation
 * latency, and failure injection.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "sim/system.hh"

namespace liquid
{
namespace
{

/** Assemble + run under Liquid mode; expose everything for inspection. */
struct LiquidRun
{
    Program prog;
    SystemConfig config;
    System sys;

    LiquidRun(const std::string &src, unsigned width = 8,
              std::function<void(SystemConfig &)> tweak = {})
        : prog(assemble(src)),
          config([&] {
              SystemConfig c = SystemConfig::make(ExecMode::Liquid, width);
              if (tweak)
                  tweak(c);
              return c;
          }()),
          sys(config, prog)
    {
        sys.run();
    }

    const UcodeEntry *
    ucodeFor(const std::string &fn)
    {
        return sys.ucodeCache().lookup(
            Program::instAddr(prog.labelIndex(fn)),
            sys.cycles() + 1'000'000);
    }

    std::uint64_t tstat(const std::string &s)
    {
        return sys.translator().stats().get(s);
    }
};

/** Scalar copy-and-add loop: rules 1, 2, 4, 10, 11. */
const char *copyLoop = R"(
    .words src 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    .data dst 64
    fn:
        mov r0, #0
    top:
        ldw r1, [src + r0]
        add r1, r1, #100
        stw [dst + r0], r1
        add r0, r0, #1
        cmp r0, #16
        blt top
        ret
    main:
        bl.simd fn
        bl.simd fn
        bl.simd fn
        halt
)";

TEST(TranslatorRules, BasicLoopTranslates)
{
    LiquidRun r(copyLoop);
    EXPECT_EQ(r.tstat("translations"), 1u);
    EXPECT_EQ(r.tstat("aborts"), 0u);

    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    // mov; vldw; vadd#; vstw; add#8; cmp; blt
    ASSERT_EQ(uc->insts.size(), 7u);
    EXPECT_EQ(uc->insts[0].op, Opcode::Mov);
    EXPECT_EQ(uc->insts[1].op, Opcode::Vldw);
    EXPECT_EQ(uc->insts[1].dst, RegId(RegClass::Vec, 1));
    EXPECT_EQ(uc->insts[2].op, Opcode::Vadd);
    EXPECT_TRUE(uc->insts[2].hasImm);
    EXPECT_EQ(uc->insts[2].imm, 100);
    EXPECT_EQ(uc->insts[3].op, Opcode::Vstw);
    EXPECT_EQ(uc->insts[4].op, Opcode::Add);
    EXPECT_EQ(uc->insts[4].imm, 8);  // rule 10: stride becomes W
    EXPECT_EQ(uc->insts[5].op, Opcode::Cmp);
    EXPECT_EQ(uc->insts[6].op, Opcode::B);
    EXPECT_EQ(uc->insts[6].target, 1);  // loop head past the mov
}

TEST(TranslatorRules, MicrocodeExecutesCorrectly)
{
    LiquidRun r(copyLoop);
    EXPECT_GE(r.sys.core().stats().get("ucodeDispatches"), 1u);
    // dst = src + 100 regardless of which calls ran as microcode.
    const Addr dst = r.prog.symbol("dst");
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.sys.memory().readWord(dst + 4 * i), i + 101);
}

TEST(TranslatorRules, Rule6TwoVectorOp)
{
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        .words b 9 9 9 9 9 9 9 9
        .data c 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            ldw r2, [b + r0]
            mul r3, r1, r2
            stw [c + r0], r3
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    EXPECT_EQ(uc->insts[3].op, Opcode::Vmul);
    EXPECT_EQ(uc->insts[3].src1, RegId(RegClass::Vec, 1));
    EXPECT_EQ(uc->insts[3].src2, RegId(RegClass::Vec, 2));
}

TEST(TranslatorRules, Rule9ReductionUcodeAndResult)
{
    LiquidRun r(R"(
        .words a 5 3 8 1 7 2 9 4
        .data res 64
        fn:
            mov r1, #1000
            mov r0, #0
        top:
            ldw r2, [a + r0]
            min r1, r1, r2
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            mov r10, #0
            bl.simd fn
            stw [res + r10], r1
            mov r10, #1
            bl.simd fn
            stw [res + r10], r1
            halt
    )",
                8,
                [](SystemConfig &c) { c.translator.latencyPerInst = 0; });
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    bool found = false;
    for (const auto &inst : uc->insts)
        found = found || inst.op == Opcode::Vredmin;
    EXPECT_TRUE(found);
    // Both the scalar (first) and microcode (second) call produce 1.
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("res")), 1u);
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("res") + 4), 1u);
    EXPECT_GE(r.sys.core().stats().get("ucodeDispatches"), 1u);
}

TEST(TranslatorRules, Rules3And8PermutationLoad)
{
    // Offsets +1,-1 per pair: the swap-pairs shuffle.
    LiquidRun r(R"(
        .rowords off 1 -1 1 -1 1 -1 1 -1
        .words a 10 11 12 13 14 15 16 17
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [off + r0]
            add r1, r0, r1
            ldw r2, [a + r1]
            stw [b + r0], r2
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )",
                8,
                [](SystemConfig &c) { (void)c; });
    ASSERT_EQ(r.tstat("translations"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    // The tentative vld of the offset array must be collapsed away.
    unsigned loads = 0;
    bool has_perm = false;
    for (const auto &inst : uc->insts) {
        loads += inst.op == Opcode::Vldw;
        if (inst.op == Opcode::Vperm) {
            has_perm = true;
            // At block 2, swap-pairs and swap-halves coincide; the CAM
            // may return either.
            EXPECT_TRUE(inst.permKind == PermKind::SwapPairs ||
                        inst.permKind == PermKind::SwapHalves);
            EXPECT_EQ(inst.permBlock, 2);
        }
    }
    EXPECT_EQ(loads, 1u) << "offset-array vld should be collapsed";
    EXPECT_TRUE(has_perm);
    EXPECT_GE(r.tstat("instsCollapsed"), 1u);
    // b = swap-pairs of a.
    const Addr b = r.prog.symbol("b");
    const Word expect[8] = {11, 10, 13, 12, 15, 14, 17, 16};
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(b + 4 * i), expect[i]);
}

TEST(TranslatorRules, Rule5PermutationStore)
{
    LiquidRun r(R"(
        .rowords off 4 4 4 4 -4 -4 -4 -4
        .words a 0 1 2 3 4 5 6 7
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r2, [a + r0]
            ldw r1, [off + r0]
            add r1, r0, r1
            stw [b + r1], r2
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    ASSERT_EQ(r.tstat("translations"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    bool has_perm = false;
    for (const auto &inst : uc->insts) {
        if (inst.op == Opcode::Vperm) {
            has_perm = true;
            EXPECT_EQ(inst.permKind, PermKind::SwapHalves);
        }
    }
    EXPECT_TRUE(has_perm);
    // b[i+off] = a[i]: halves swapped.
    const Addr b = r.prog.symbol("b");
    const Word expect[8] = {4, 5, 6, 7, 0, 1, 2, 3};
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(b + 4 * i), expect[i]);
}

TEST(TranslatorRules, Rule7LaneMaskFromConstantArray)
{
    LiquidRun r(R"(
        .rowords mask -1 -1 0 0 -1 -1 0 0
        .words a 7 7 7 7 7 7 7 7
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            ldw r2, [mask + r0]
            and r3, r1, r2
            stw [b + r0], r3
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    ASSERT_EQ(r.tstat("translations"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    bool has_mask = false;
    for (const auto &inst : uc->insts) {
        if (inst.op == Opcode::Vmask) {
            has_mask = true;
            EXPECT_EQ(inst.maskBits, 0x3u);
            EXPECT_EQ(inst.maskBlock, 4);
        }
    }
    EXPECT_TRUE(has_mask);
    const Addr b = r.prog.symbol("b");
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(b + 4 * i),
                  (i % 4) < 2 ? 7u : 0u);
}

TEST(TranslatorRules, Rule7ConstantVectorOperand)
{
    LiquidRun r(R"(
        .rowords cnst 1 2 1 2 1 2 1 2
        .words a 10 10 10 10 10 10 10 10
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            ldw r2, [cnst + r0]
            mul r3, r1, r2
            stw [b + r0], r3
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    ASSERT_EQ(r.tstat("translations"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    bool has_cvec = false;
    for (const auto &inst : uc->insts) {
        if (inst.op == Opcode::Vmul && inst.cvec != noCvec) {
            has_cvec = true;
            ASSERT_LT(inst.cvec, uc->cvecs.size());
            EXPECT_EQ(uc->cvecs[inst.cvec].lanes,
                      (std::vector<Word>{1, 2}));
        }
    }
    EXPECT_TRUE(has_cvec);
    const Addr b = r.prog.symbol("b");
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(b + 4 * i),
                  i % 2 ? 20u : 10u);
}

TEST(TranslatorRules, SaturationIdiomBecomesVqadd)
{
    LiquidRun r(R"(
        .words a 30000 -30000 100 200 30000 -30000 100 200
        .words b 10000 -10000 50 60 10000 -10000 50 60
        .data c 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            ldw r2, [b + r0]
            add r3, r1, r2
            cmp r3, #32767
            movgt r3, #32767
            cmp r3, #-32768
            movlt r3, #-32768
            stw [c + r0], r3
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    ASSERT_EQ(r.tstat("translations"), 1u);
    EXPECT_EQ(r.tstat("idiomsRecognized"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    bool has_vqadd = false;
    for (const auto &inst : uc->insts)
        has_vqadd = has_vqadd || inst.op == Opcode::Vqadd;
    EXPECT_TRUE(has_vqadd);

    const Addr c = r.prog.symbol("c");
    EXPECT_EQ(r.sys.memory().readWord(c + 0), 32767u);
    EXPECT_EQ(static_cast<SWord>(r.sys.memory().readWord(c + 4)),
              -32768);
    EXPECT_EQ(r.sys.memory().readWord(c + 8), 150u);
}

// ---------------------------------------------------------------------------
// Legality / abort behaviour.
// ---------------------------------------------------------------------------

TEST(TranslatorAborts, CountersOfAbortedCaptureStay)
{
    // The loop recognizes the saturation idiom on a constant-vector add
    // (rule 7) and verifies; the vector op after the loop then aborts
    // the commit. Counters bumped mid-capture keep their values, and
    // the collapsed constant-array load is counted before the
    // vectorOutsideLoop check fires.
    LiquidRun r(R"(
        .words a 32760 -32760 100 200 32760 -32760 100 200 0
        .rowords k 10 -10 50 60 10 -10 50 60
        .data c 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            ldw r2, [k + r0]
            add r3, r1, r2
            cmp r3, #32767
            movgt r3, #32767
            cmp r3, #-32768
            movlt r3, #-32768
            stw [c + r0], r3
            add r0, r0, #1
            cmp r0, #8
            blt top
            ldw r4, [a + r0]
            add r4, r4, #1
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.vectorOutsideLoop"), 1u);
    EXPECT_EQ(r.tstat("aborts"), 1u);
    EXPECT_EQ(r.tstat("translations"), 0u);
    EXPECT_EQ(r.tstat("capturesStarted"), 1u);
    EXPECT_EQ(r.tstat("idiomsRecognized"), 1u);
    EXPECT_EQ(r.tstat("loopsVerified"), 1u);
    EXPECT_EQ(r.tstat("instsCollapsed"), 1u);
    EXPECT_EQ(r.sys.core().stats().get("ucodeDispatches"), 0u);
}

TEST(TranslatorAborts, TripCountWidthFallback)
{
    // A 12-iteration loop cannot bind on 8 lanes, but it can on 4: the
    // first call aborts and the second call re-captures at half width
    // (a W-lane accelerator executes narrower vectors).
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8 9 10 11 12
        .data b 48
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #12
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.tripCount"), 1u);
    EXPECT_EQ(r.tstat("widthFallbacks"), 1u);
    EXPECT_EQ(r.tstat("translations"), 1u);
    const UcodeEntry *uc = r.ucodeFor("fn");
    ASSERT_NE(uc, nullptr);
    EXPECT_EQ(uc->simdWidth, 4u);
    // Functionally correct throughout.
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("b") + 44), 12u);
}

TEST(TranslatorAborts, PrimeTripCountRevertsToScalar)
{
    // 13 iterations divide no width: fall back 8 -> 4 -> 2, then
    // blacklist; the region runs as scalar code forever.
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8 9 10 11 12 13
        .data b 52
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #13
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.tripCount"), 3u);
    EXPECT_EQ(r.tstat("translations"), 0u);
    EXPECT_TRUE(r.sys.translator().isBlacklisted(
        Program::instAddr(r.prog.labelIndex("fn"))));
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("b") + 48), 13u);
}

TEST(TranslatorAborts, UnsupportedShuffle)
{
    // Offsets that no accelerator shuffle matches.
    LiquidRun r(R"(
        .rowords off 2 0 -1 -1 2 0 -1 -1
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [off + r0]
            add r1, r0, r1
            ldw r2, [a + r1]
            stw [b + r0], r2
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.unsupportedShuffle"), 1u);
    EXPECT_EQ(r.tstat("translations"), 0u);
}

TEST(TranslatorAborts, WideShuffleRefusedByNarrowAccelerator)
{
    // Block-8 butterfly on a 4-wide accelerator: CAM miss.
    LiquidRun r(R"(
        .rowords off 4 4 4 4 -4 -4 -4 -4
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [off + r0]
            add r1, r0, r1
            ldw r2, [a + r1]
            stw [b + r0], r2
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )",
                4);
    // The block-8 pattern is not even periodic in a 4-lane vector, so
    // lane verification rejects it before (or instead of) the CAM.
    EXPECT_EQ(r.tstat("abort.valueMismatch") +
                  r.tstat("abort.unsupportedShuffle"),
              1u);
    EXPECT_EQ(r.tstat("translations"), 0u);
}

TEST(TranslatorAborts, NestedCall)
{
    LiquidRun r(R"(
        inner:
            ret
        fn:
            mov r0, #0
            bl inner
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.nestedCall"), 1u);
}

TEST(TranslatorAborts, InductionVariableArithmeticEscapes)
{
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            add r5, r0, #4
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.ivArithmetic"), 1u);
}

TEST(TranslatorAborts, StoreOfScalarData)
{
    LiquidRun r(R"(
        .data b 32
        fn:
            mov r0, #0
            mov r1, #7
        top:
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.storeScalarData"), 1u);
}

TEST(TranslatorAborts, MicrocodeBufferOverflow)
{
    // A loop body longer than 64 instructions must abort (paper: the
    // compiler splits such loops instead).
    std::string body;
    for (int i = 0; i < 70; ++i)
        body += "            add r1, r1, #1\n";
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
)" + body + R"(
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.ucodeOverflow"), 1u);
    EXPECT_EQ(r.tstat("translations"), 0u);
}

TEST(TranslatorAborts, BlacklistPreventsRetranslation)
{
    // A structurally untranslatable region (nested call) is
    // blacklisted after the first attempt and never re-captured.
    LiquidRun r(R"(
        inner:
            ret
        fn:
            mov r0, #0
            bl inner
            ret
        main:
            bl.simd fn
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.nestedCall"), 1u);
    EXPECT_EQ(r.tstat("capturesStarted"), 1u)
        << "aborted region must be blacklisted, not retried";
    EXPECT_TRUE(r.sys.translator().isBlacklisted(
        Program::instAddr(r.prog.labelIndex("fn"))));
}

TEST(TranslatorAborts, CrossIterationMemoryDependence)
{
    // a[i+1] = f(a[i]): each scalar iteration feeds the next, which a
    // whole-vector load/store pair would break. The paper notes this
    // is the one case where a false-positive translation could
    // miscompute; our translator detects the overlapping streams and
    // aborts.
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8 9
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            add r1, r1, #1
            stw [a + r0 + #1], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("abort.memoryDependence"), 1u);
    EXPECT_EQ(r.sys.core().stats().get("ucodeDispatches"), 0u);
    // Scalar execution carries the chain from a[0] on every call:
    // a[8] = a[0] + 8 = 9 (idempotent across calls).
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("a") + 32), 9u);
}

TEST(TranslatorRules, ReadThenWriteSameElementIsLegal)
{
    // a[i] = f(a[i]) in place: read-before-write within the iteration,
    // identical under vector order — must still translate.
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            add r1, r1, #10
            stw [a + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("translations"), 1u);
    EXPECT_GE(r.sys.core().stats().get("ucodeDispatches"), 1u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("a") + 4 * i),
                  i + 21);
}

TEST(TranslatorRules, StoreBehindLoadIsLegal)
{
    // b[i] = a[i+1] with a distinct from b, plus a store behind the
    // load of the same array: no cross-iteration feeding.
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8 9
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0 + #1]
            stw [a + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    EXPECT_EQ(r.tstat("translations"), 1u);
    // a becomes shifted left by one.
    EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("a")), 2u);
}

// ---------------------------------------------------------------------------
// Hints, latency, failure injection.
// ---------------------------------------------------------------------------

TEST(TranslatorGating, UnhintedCallsIgnoredWhenHintRequired)
{
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl fn
            bl fn
            halt
    )");
    EXPECT_EQ(r.tstat("capturesStarted"), 0u);
    EXPECT_EQ(r.tstat("translations"), 0u);
}

TEST(TranslatorGating, UnhintedCallsTranslateWithoutHintRequirement)
{
    // Paper Section 3.5: shape recognition without a marked bl. The
    // "false positive" case stays functionally correct.
    LiquidRun r(R"(
        .words a 1 2 3 4 5 6 7 8
        .data b 32
        fn:
            mov r0, #0
        top:
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl fn
            bl fn
            halt
    )",
                8,
                [](SystemConfig &c) { c.translator.requireHint = false; });
    EXPECT_EQ(r.tstat("translations"), 1u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.sys.memory().readWord(r.prog.symbol("b") + 4 * i),
                  i + 1);
}

TEST(TranslatorLatency, UcodeNotReadyImmediately)
{
    LiquidRun r(copyLoop, 8, [](SystemConfig &c) {
        c.translator.latencyPerInst = 100'000;  // effectively never ready
    });
    EXPECT_EQ(r.tstat("translations"), 1u);
    EXPECT_EQ(r.sys.core().stats().get("ucodeDispatches"), 0u);
    // All calls executed as scalar code; results still correct.
    const Addr dst = r.prog.symbol("dst");
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.sys.memory().readWord(dst + 4 * i), i + 101);
}

TEST(TranslatorFailureInjection, InterruptsAbortButAllowRetry)
{
    LiquidRun r(copyLoop, 8, [](SystemConfig &c) {
        c.core.faults = FaultSchedule::periodic(40);  // interrupt mid-translation
    });
    EXPECT_GE(r.tstat("abort.interrupt"), 1u);
    // Interrupt aborts are transient: the region is not blacklisted.
    EXPECT_FALSE(r.sys.translator().isBlacklisted(
        Program::instAddr(r.prog.labelIndex("fn"))));
    // And the program result is still correct.
    const Addr dst = r.prog.symbol("dst");
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.sys.memory().readWord(dst + 4 * i), i + 101);
}

TEST(TranslatorState, CapturesOnlyWhileRegionActive)
{
    LiquidRun r(copyLoop);
    // After the run, the translator must be idle.
    EXPECT_FALSE(r.sys.translator().capturing());
}

} // namespace
} // namespace liquid
