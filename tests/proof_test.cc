/**
 * @file
 * Acceptance gates for the translation-validation prover (proof.hh).
 *
 *  - every suite workload must prove at every width of the fallback
 *    ladder (no Unknowns, no refutations), with exact work counts;
 *  - the width-polymorphic mode must close the elementwise suite
 *    kernels with a single width-generic proof;
 *  - every sabotage scenario must be caught: abort-class modes as
 *    NoTranslation, miscompile-class modes and microcode mutations as
 *    Refuted with a chaos-replay-confirmed counterexample;
 *  - a depcheck-Unknown verdict that the prover closes must upgrade
 *    the static verifier's Warn to Ok (and carry the proof).
 */

#include <string>

#include <gtest/gtest.h>

#include "scalarizer/scalarizer.hh"
#include "verifier/proof.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

ProgramProof
proveWorkload(const Workload &wl, const ProofOptions &opts)
{
    const Workload::Build build =
        wl.build(EmitOptions::Mode::Scalarized, 16, /*hinted=*/true);
    return proveProgram(build.prog, opts);
}

} // namespace

TEST(Proof, SuiteProvesAtEveryWidth)
{
    ProofOptions opts;  // widths {2, 4, 8, 16}
    unsigned regions = 0;
    unsigned obligations = 0;
    unsigned closedStructural = 0;
    unsigned closedEnum = 0;
    std::uint64_t enumPoints = 0;
    for (const auto &wl : makeSuite()) {
        const ProgramProof pp = proveWorkload(*wl, opts);
        ASSERT_FALSE(pp.regions.empty()) << wl->name();
        for (const RegionProof &rp : pp.regions) {
            ++regions;
            for (const WidthProof &wp : rp.widths) {
                obligations += wp.obligations;
                closedStructural += wp.closedStructural;
                closedEnum += wp.closedEnum;
                enumPoints += wp.enumPoints;
            }
            // Some widths legitimately don't translate (e.g. a
            // constant-vector period above the width) — those are
            // vacuous. Every width that commits must prove, and every
            // region must prove at least once.
            unsigned provedWidths = 0;
            for (const WidthProof &wp : rp.widths) {
                EXPECT_NE(wp.verdict, ProofVerdict::Refuted)
                    << wl->name() << " " << rp.entryLabel << " w"
                    << wp.width << ": " << wp.summary;
                EXPECT_NE(wp.verdict, ProofVerdict::Unknown)
                    << wl->name() << " " << rp.entryLabel << " w"
                    << wp.width << ": " << wp.summary;
                if (wp.verdict == ProofVerdict::Proved) {
                    ++provedWidths;
                    EXPECT_EQ(wp.unknownObligations, 0u)
                        << wl->name() << " " << rp.entryLabel;
                }
            }
            EXPECT_GE(provedWidths, 1u)
                << wl->name() << " " << rp.entryLabel;
            EXPECT_EQ(rp.overall(), ProofVerdict::Proved)
                << wl->name() << " " << rp.entryLabel;
        }
    }
    // The paper suite outlines a nontrivial number of regions; a
    // collapse here would make the gate vacuous.
    EXPECT_GE(regions, 20u);

    // Exact prover work. The evaluator may get faster, but the
    // obligations it closes and the enumeration points it visits (in
    // odometer order, up to the first counterexample) must not change.
    EXPECT_EQ(obligations, 113760u);
    EXPECT_EQ(closedStructural, 110816u);
    EXPECT_EQ(closedEnum, 2944u);
    EXPECT_EQ(enumPoints, 1705468u);
}

TEST(Proof, LeafBudgetDiagnosticNamesFreePinnedAndBudget)
{
    // Halfword saturating adds: every obligation needs enumeration over
    // its three memory leaves.
    vir::Kernel k("lb_sat", 16);
    const int a = k.load("lb_a", 2, false, true);
    const int b = k.load("lb_b", 2, false, true);
    const int c = k.load("lb_c", 2, false, true);
    k.store("lb_out", k.bin(Opcode::Qadd, k.bin(Opcode::Qadd, a, b), c));

    Program prog;
    std::vector<Word> init(16);
    for (unsigned i = 0; i < init.size(); ++i)
        init[i] = 3 * i + 1;
    prog.allocWords("lb_a", init);
    prog.allocWords("lb_b", init);
    prog.allocWords("lb_c", init);
    prog.allocData("lb_out", 64);
    EmitOptions eopts;
    eopts.mode = EmitOptions::Mode::Scalarized;
    eopts.nativeWidth = 8;
    emitKernel(prog, k, eopts);
    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, "lb_sat", 8));
    prog.addInst(Inst::halt());
    prog.resolveBranches();

    ProofOptions opts;
    opts.widths = {4};
    opts.maxEnumLeaves = 1;
    const ProgramProof over = proveProgram(prog, opts);
    ASSERT_EQ(over.regions.size(), 1u);
    ASSERT_EQ(over.regions[0].widths.size(), 1u);
    const WidthProof &unknown = over.regions[0].widths[0];
    EXPECT_EQ(unknown.verdict, ProofVerdict::Unknown);
    EXPECT_EQ(unknown.summary,
              "unknown: store @0x1000c0 (lb_out+0): too many distinct "
              "leaves (3 free, 0 pinned; budget 1)");

    // Range-pinned leaves do not count against the budget: with every
    // input proven constant at entry, the same budget proves.
    const ProgramRanges pr = solveProgramRanges(prog);
    ASSERT_TRUE(pr.sound);
    opts.ranges = &pr;
    const ProgramProof pinned = proveProgram(prog, opts);
    ASSERT_EQ(pinned.regions.size(), 1u);
    ASSERT_EQ(pinned.regions[0].widths.size(), 1u);
    const WidthProof &proved = pinned.regions[0].widths[0];
    EXPECT_EQ(proved.verdict, ProofVerdict::Proved) << proved.summary;
    EXPECT_EQ(proved.rangePinned, 48u);
}

TEST(Proof, SymbolicNClosesElementwiseKernelsWidthGenerically)
{
    ProofOptions opts;
    opts.symbolicN = true;
    unsigned widthGeneric = 0;
    unsigned proved = 0;
    for (const auto &wl : makeSuite()) {
        const ProgramProof pp = proveWorkload(*wl, opts);
        for (const RegionProof &rp : pp.regions) {
            EXPECT_NE(rp.overall(), ProofVerdict::Refuted)
                << wl->name() << " " << rp.entryLabel;
            EXPECT_NE(rp.overall(), ProofVerdict::Unknown)
                << wl->name() << " " << rp.entryLabel;
            if (rp.symbolicN.proved) {
                ++widthGeneric;
                // One symbolic proof covers every committed width.
                for (const WidthProof &wp : rp.widths) {
                    if (wp.verdict == ProofVerdict::Proved)
                        EXPECT_TRUE(wp.widthGeneric)
                            << wl->name() << " " << rp.entryLabel
                            << " w" << wp.width;
                }
            }
            ++proved;
        }
    }
    // The elementwise kernels (saxpy, add-style loops, ...) must close
    // width-generically; reductions and permutations legitimately fall
    // back to per-width proofs.
    EXPECT_GE(widthGeneric, 10u);
}

TEST(Proof, SabotageSuiteIsFullyCaught)
{
    ProofOptions opts;
    const auto outcomes = runSabotageSuite(opts);
    ASSERT_GE(outcomes.size(), 14u);
    unsigned refutedClass = 0;
    for (const SabotageOutcome &o : outcomes) {
        EXPECT_TRUE(o.pass) << o.name << ": " << o.detail;
        if (o.expect == "refuted") {
            ++refutedClass;
            EXPECT_EQ(o.verdict, ProofVerdict::Refuted) << o.name;
            EXPECT_TRUE(o.replayConfirmed)
                << o.name << ": counterexample did not replay";
        } else {
            EXPECT_EQ(o.verdict, ProofVerdict::NoTranslation) << o.name;
        }
    }
    // Both miscompile sabotages and all six microcode mutations.
    EXPECT_GE(refutedClass, 8u);
}

TEST(Proof, ProverUpgradesDepcheckUnknownWarnToOk)
{
    // Starve depcheck's pair-test budget so every width degrades to
    // Unknown on a safe kernel with carried, in-order overlaps
    // (a[i] = a[i+1] + b[i]). Without the prover that is a Warn; with
    // it, the translation proof closes the width and the verdict
    // upgrades to Ok with the proof attached.
    vir::Kernel k("up_add", 16);
    k.store("up_a", k.bin(Opcode::Add, k.load("up_a", 4, false, false, 1),
                          k.load("up_b")));

    Program prog;
    std::vector<Word> init(16 + 16);
    for (unsigned i = 0; i < init.size(); ++i)
        init[i] = 3 * i + 1;
    prog.allocWords("up_a", init);
    prog.allocWords("up_b", init);
    EmitOptions eopts;
    eopts.mode = EmitOptions::Mode::Scalarized;
    eopts.nativeWidth = 8;
    emitKernel(prog, k, eopts);
    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, "up_add", 8));
    prog.addInst(Inst::halt());
    prog.resolveBranches();

    ASSERT_EQ(prog.hintedCalls().size(), 1u);
    const int entry = prog.hintedCalls()[0].target;

    VerifyOptions base;
    base.config.simdWidth = 8;
    base.dep.pairBudget = 0;  // every width: Unknown
    const RegionReport plain = verifyRegion(prog, entry, base, 8);
    EXPECT_EQ(plain.verdict, Severity::Warn);
    EXPECT_TRUE(plain.proofVerdict.empty());

    VerifyOptions proving = base;
    proving.prove = true;
    const RegionReport proven = verifyRegion(prog, entry, proving, 8);
    EXPECT_EQ(proven.verdict, Severity::Ok) << proven.proofSummary;
    EXPECT_EQ(proven.proofVerdict, "proved");
    EXPECT_FALSE(proven.proofSummary.empty());
    EXPECT_EQ(proven.predictedWidth, 8u);
    EXPECT_GT(proven.predictedSpeedup, 0.0);
}

TEST(Proof, VerdictOrdering)
{
    EXPECT_EQ(worseProofVerdict(ProofVerdict::Proved,
                                ProofVerdict::Unknown),
              ProofVerdict::Unknown);
    EXPECT_EQ(worseProofVerdict(ProofVerdict::Unknown,
                                ProofVerdict::Refuted),
              ProofVerdict::Refuted);
    EXPECT_EQ(worseProofVerdict(ProofVerdict::NoTranslation,
                                ProofVerdict::Proved),
              ProofVerdict::Proved);
    EXPECT_STREQ(proofVerdictName(ProofVerdict::Proved), "proved");
    EXPECT_STREQ(proofVerdictName(ProofVerdict::Refuted), "refuted");
}
