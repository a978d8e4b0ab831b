/**
 * @file
 * The width-binding cascade (abort_reason.hh: bindWidth and
 * fallbackWidth; offline.hh: translateWithFallback) is the one rule
 * the translator, the verifier, the prover and pretranslation walk.
 * Its helpers are pinned by a table, and the width it binds must agree
 * with each of its users on every suite workload and a seeded kernel
 * draw (as generated and recompiled with a 4-lane hint), at every
 * requested width of the ladder.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "sim/system.hh"
#include "translator/offline.hh"
#include "verifier/liveness.hh"
#include "verifier/proof.hh"
#include "verifier/verifier.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

constexpr unsigned ladder[] = {2, 4, 8, 16};

TEST(WidthCascade, BindWidthCapsByHint)
{
    for (const unsigned w : ladder) {
        for (const unsigned hint : {0u, 2u, 3u, 4u, 6u, 8u, 16u, 32u}) {
            const unsigned expect = hint == 0 ? w : std::min(w, hint);
            EXPECT_EQ(bindWidth(w, hint), expect)
                << "width " << w << " hint " << hint;
        }
    }
    EXPECT_EQ(bindWidth(8, 1), 1u);  // below 2: never captured
}

TEST(WidthCascade, FallbackHalvesOnlyWidthClassAborts)
{
    // One reason per class, in ReasonClass order.
    const AbortReason perClass[] = {
        AbortReason::None,          AbortReason::NestedCall,
        AbortReason::VectorOpcode,  AbortReason::IdiomShape,
        AbortReason::ValueTooWide,  AbortReason::TripCount,
        AbortReason::UcodeOverflow, AbortReason::Interrupt,
    };
    for (unsigned c = 0; c < std::size(perClass); ++c) {
        const AbortReason reason = perClass[c];
        ASSERT_EQ(static_cast<unsigned>(abortReasonClass(reason)), c);
        const bool width = abortReasonClass(reason) == ReasonClass::Width;
        for (const unsigned bind : {2u, 3u, 4u, 6u, 8u, 16u}) {
            const unsigned expect = width && bind >= 4 ? bind / 2 : 0;
            EXPECT_EQ(fallbackWidth(bind, reason), expect)
                << abortReasonName(reason) << " at " << bind;
        }
    }
}

/** Comparisons made, per user of the cascade. */
struct Tally
{
    unsigned bound = 0;     ///< (region, width) pairs that committed
    unsigned verifier = 0;  ///< Ok verdicts compared
    unsigned prover = 0;    ///< proofs compared
    unsigned system = 0;    ///< System-run commits compared
};

/**
 * Check every hinted region of @p prog at every ladder width:
 * translateWithFallback's bound width against the verifier, the prover
 * and a Liquid System run.
 */
void
checkAgreement(const Program &prog, const std::string &name, Tally &t)
{
    const ProgramLiveness live = solveProgramLiveness(prog);
    const std::vector<HintedCall> calls = prog.hintedCalls();
    ProofOptions popts;
    popts.replay = false;
    std::vector<RegionProof> proofs;
    for (const HintedCall &call : calls) {
        proofs.push_back(proveRegion(prog, call.target, call.widthHint,
                                     live.demandAt(call.target), popts));
        ASSERT_EQ(proofs.back().widths.size(), std::size(ladder));
    }

    for (unsigned i = 0; i < std::size(ladder); ++i) {
        const unsigned w = ladder[i];
        System sys(SystemConfig::make(ExecMode::Liquid, w), prog);
        sys.run();
        VerifyOptions vopts;
        vopts.config.simdWidth = w;

        for (std::size_t r = 0; r < proofs.size(); ++r) {
            const HintedCall &call = calls[r];
            const std::string at = name + " @" +
                                   std::to_string(call.target) + " w" +
                                   std::to_string(w);
            const OfflineResult off =
                translateWithFallback(prog, call.target, w, call.widthHint);
            const unsigned width = off.ok ? off.entry.simdWidth : 0;
            t.bound += off.ok;

            const RegionReport rep =
                verifyRegion(prog, call.target, vopts, call.widthHint);
            if (rep.verdict == Severity::Ok) {
                ++t.verifier;
                EXPECT_EQ(rep.predictedWidth, width) << at << " verifier";
            }

            const WidthProof &wp = proofs[r].widths[i];
            if (wp.verdict != ProofVerdict::NoTranslation) {
                ++t.prover;
                EXPECT_EQ(wp.boundWidth, width) << at << " prover";
            } else {
                EXPECT_FALSE(off.ok) << at << " prover";
            }

            const UcodeEntry *uc = sys.ucodeCache().lookup(
                Program::instAddr(call.target), sys.cycles() + 1'000'000);
            if (uc) {
                ++t.system;
                EXPECT_EQ(uc->simdWidth, width) << at << " system";
            }
        }
    }
}

void
expectNonVacuous(const Tally &t)
{
    EXPECT_GT(t.bound, 0u);
    EXPECT_GT(t.verifier, 0u);
    EXPECT_GT(t.prover, 0u);
    EXPECT_GT(t.system, 0u);
}

TEST(WidthCascade, AgreesWithEveryUserOnSuite)
{
    Tally t;
    for (const auto &wl : makeSuite())
        checkAgreement(wl->build(EmitOptions::Mode::Scalarized).prog,
                       wl->name(), t);
    expectNonVacuous(t);
}

TEST(WidthCascade, AgreesWithEveryUserOnKernelCorpus)
{
    KernelCorpus corpus(30);
    unsigned kernels = 0;
    Tally t;
    for (unsigned i = 0; i < 24; ++i) {
        const GeneratedKernel &g = corpus.next();
        Rng data(0x5eed3000u + i);
        const auto prog =
            corpus.build(data, EmitOptions::Mode::Scalarized, 8);
        if (!prog)
            continue;
        ++kernels;
        checkAgreement(*prog, g.kernel.name(), t);

        // The same kernel compiled for at most 4 lanes: the hint, not
        // a fallback, caps the binding at the wider widths.
        Program capped = *prog;
        for (Inst &in : capped.code()) {
            if (in.op == Opcode::Bl && in.hinted)
                in.blWidthHint = 4;
        }
        checkAgreement(capped, g.kernel.name() + " hint 4", t);
    }
    EXPECT_GE(kernels, 16u) << corpus.skipSummary();
    expectNonVacuous(t);
}

TEST(WidthCascade, AgreesWithEveryUserWhereFallbackCommits)
{
    // Trip counts of 12 and 6 bind only after halving (a w16 request
    // lands at 4 and 2); a nested call stops the cascade at once. Each
    // region is called four times, so the dynamic translator reaches
    // every rung of its fallback in the System run.
    const Program prog = assemble(R"(
        .words a 1 2 3 4 5 6 7 8 9 10 11 12
        .data b 48
        .data c 24
        fn12:
            mov r0, #0
        top12:
            ldw r1, [a + r0]
            stw [b + r0], r1
            add r0, r0, #1
            cmp r0, #12
            blt top12
            ret
        fn6:
            mov r0, #0
        top6:
            ldw r1, [a + r0]
            stw [c + r0], r1
            add r0, r0, #1
            cmp r0, #6
            blt top6
            ret
        leaf:
            mov r5, #1
            ret
        nested:
            bl leaf
            ret
        main:
            bl.simd fn12
            bl.simd fn12
            bl.simd fn12
            bl.simd fn12
            bl.simd fn6
            bl.simd fn6
            bl.simd fn6
            bl.simd fn6
            bl.simd nested
            bl.simd nested
            halt
    )");
    Tally t;
    checkAgreement(prog, "fallback", t);
    expectNonVacuous(t);

    const auto bound = [&](const char *fn, unsigned w) {
        const OfflineResult r =
            translateWithFallback(prog, prog.labelIndex(fn), w);
        return r.ok ? r.entry.simdWidth : 0u;
    };
    EXPECT_EQ(bound("fn12", 16), 4u);
    EXPECT_EQ(bound("fn6", 16), 2u);
    EXPECT_EQ(bound("nested", 16), 0u);
    EXPECT_EQ(translateWithFallback(prog, prog.labelIndex("nested"), 16)
                  .reason,
              AbortReason::NestedCall);
}

} // namespace
} // namespace liquid
