/**
 * @file
 * Differential checking of the static verifier against the dynamic
 * translator (via the offline translator, which drives the identical
 * rule automaton): over every workload-suite kernel and 200+
 * randomized vir::Kernels,
 *
 *   static Ok    => dynamic translation commits, with the predicted
 *                   width, microcode size and constant-vector count;
 *   static Error => dynamic translation aborts with the same reason
 *                   (and therefore the same reason class);
 *   static Warn  => permitted either way, but the diagnostic must
 *                   name the runtime condition.
 */

#include <gtest/gtest.h>


#include "translator/offline.hh"
#include "verifier/verifier.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

struct Tally
{
    unsigned ok = 0;
    unsigned warn = 0;
    unsigned error = 0;
};

void
checkRegion(const Program &prog, int entry, unsigned width,
            unsigned hint, Tally &tally)
{
    VerifyOptions opts;
    opts.config.simdWidth = width;
    opts.widthFallback = false;  // predict a single offline attempt
    const RegionReport r = verifyRegion(prog, entry, opts, hint);
    const OfflineResult off = translateOffline(prog, entry, width, hint);

    switch (r.verdict) {
      case Severity::Ok:
        ++tally.ok;
        ASSERT_TRUE(off.ok) << "static Ok but dynamic aborted with "
                            << off.abortReason;
        EXPECT_EQ(r.predictedWidth, off.entry.simdWidth);
        EXPECT_EQ(r.predictedUcode, off.entry.insts.size());
        EXPECT_EQ(r.predictedCvecs, off.entry.cvecs.size());
        break;
      case Severity::Error:
        ++tally.error;
        if (r.depMiscompile) {
            // The one Error that predicts a COMMIT: the dynamic
            // dependence check cannot see the pair depcheck found, so
            // translation goes through and the committed microcode
            // diverges (the oracle test proves the divergence).
            ASSERT_TRUE(off.ok)
                << "depMiscompile predicts a commit but dynamic "
                << "aborted with " << off.abortReason;
            EXPECT_EQ(r.reason, AbortReason::MemoryDependence);
            break;
        }
        ASSERT_FALSE(off.ok) << "static Error (" <<
            abortReasonName(r.reason) << ") but dynamic committed";
        EXPECT_EQ(abortReasonClass(r.reason),
                  abortReasonClass(off.reason))
            << "static " << abortReasonName(r.reason) << " vs dynamic "
            << off.abortReason;
        // The rule mirror is exact, not just class-exact.
        EXPECT_EQ(r.reason, off.reason)
            << "static " << abortReasonName(r.reason) << " vs dynamic "
            << off.abortReason;
        break;
      case Severity::Warn: {
        ++tally.warn;
        bool named = false;
        for (const Diagnostic &d : r.diags) {
            if (d.severity == Severity::Warn && !d.message.empty())
                named = true;
        }
        EXPECT_TRUE(named) << "Warn verdict without a named condition";
        break;
      }
    }
}

TEST(VerifierDifferential, SuiteKernelsAgree)
{
    Tally tally;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        for (const HintedCall &call : build.prog.hintedCalls()) {
            for (unsigned width : {2u, 4u, 8u, 16u}) {
                SCOPED_TRACE(wl->name() + " region@" +
                             std::to_string(call.target) + " w=" +
                             std::to_string(width));
                checkRegion(build.prog, call.target, width,
                            call.widthHint, tally);
            }
        }
    }
    // The suite is fully static: data images, trip counts and offset
    // tables are all known, so nothing should be runtime-dependent,
    // and the suite must exercise both verdicts.
    EXPECT_GT(tally.ok, 0u);
    EXPECT_EQ(tally.warn, 0u);
}

TEST(VerifierDifferential, RandomKernelsAgree)
{
    Tally tally;
    unsigned kernels = 0;
    for (const unsigned seed : {101u, 202u, 303u, 404u, 505u}) {
        KernelCorpus corpus(seed);
        for (unsigned trial = 0; trial < 55; ++trial) {
            const GeneratedKernel &g = corpus.next();
            Rng d(seed * 131 + trial);
            const std::optional<Program> built =
                corpus.build(d, EmitOptions::Mode::Scalarized, 8);
            if (!built)
                continue;
            const Program &prog = *built;
            ++kernels;
            const int entry = prog.labelIndex(g.kernel.name());
            // Width 8 is the common case; width 2 forces the width-
            // class aborts (shuffles/masks wider than the machine).
            for (unsigned width : {2u, 8u}) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " trial=" + std::to_string(trial) +
                             " w=" + std::to_string(width));
                checkRegion(prog, entry, width, g.kernel.maxWidth(),
                            tally);
            }
        }
    }
    EXPECT_GE(kernels, 200u);
    EXPECT_GT(tally.ok, 0u);
    EXPECT_GT(tally.error, 0u);
    EXPECT_EQ(tally.warn, 0u);
}

TEST(VerifierDifferential, SabotagedKernelsAbortIdentically)
{
    using Sabotage = EmitOptions::Sabotage;
    const struct
    {
        Sabotage kind;
        AbortReason reason;
    } table[] = {
        {Sabotage::UntranslatableOp,
         AbortReason::UntranslatableOpcode},
        {Sabotage::NestedCall, AbortReason::NestedCall},
        {Sabotage::ForwardBranch, AbortReason::ForwardBranch},
        {Sabotage::IvArithmetic, AbortReason::IvArithmetic},
        {Sabotage::ScalarStore, AbortReason::StoreScalarData},
        // Load-then-store into one array: the translator's interval
        // test fires, and the mirror predicts the same abort.
        {Sabotage::OverlapStoreAfterLoad,
         AbortReason::MemoryDependence},
    };

    KernelCorpus corpus(5150);
    for (unsigned trial = 0; trial < 10; ++trial) {
        const GeneratedKernel &g = corpus.next();
        for (const auto &t : table) {
            SCOPED_TRACE("trial=" + std::to_string(trial) + " " +
                         abortReasonName(t.reason));
            Rng d(trial);
            const Program prog = corpus.mustBuild(
                d, EmitOptions::Mode::Scalarized, 8, t.kind);
            const int entry = prog.labelIndex(g.kernel.name());

            VerifyOptions opts;
            opts.widthFallback = false;
            const RegionReport r =
                verifyRegion(prog, entry, opts, g.kernel.maxWidth());
            EXPECT_EQ(r.verdict, Severity::Error);
            EXPECT_EQ(r.reason, t.reason);

            const OfflineResult off =
                translateOffline(prog, entry, 8, g.kernel.maxWidth());
            EXPECT_FALSE(off.ok);
            EXPECT_EQ(off.reason, t.reason);
        }
    }
}

TEST(VerifierDifferential, SilentMiscompilesCommitOnBothSides)
{
    // Overlap shapes the translator's interval test cannot see: the
    // dynamic side commits, and the verifier must call the commit out
    // as a dependence miscompile rather than predicting an abort.
    using Sabotage = EmitOptions::Sabotage;
    KernelCorpus corpus(6160);
    for (unsigned trial = 0; trial < 4; ++trial) {
        const GeneratedKernel &g = corpus.next();
        for (const Sabotage kind : {Sabotage::OverlapStoreStore,
                                    Sabotage::OverlapLoadAhead}) {
            SCOPED_TRACE("trial=" + std::to_string(trial) + " kind=" +
                         std::to_string(static_cast<int>(kind)));
            Rng d(trial * 7 + 1);
            const Program prog = corpus.mustBuild(
                d, EmitOptions::Mode::Scalarized, 8, kind, 1);
            const int entry = prog.labelIndex(g.kernel.name());

            VerifyOptions opts;
            opts.widthFallback = false;
            const RegionReport r =
                verifyRegion(prog, entry, opts, g.kernel.maxWidth());
            EXPECT_EQ(r.verdict, Severity::Error);
            EXPECT_EQ(r.reason, AbortReason::MemoryDependence);
            EXPECT_TRUE(r.depMiscompile);

            const OfflineResult off =
                translateOffline(prog, entry, 8, g.kernel.maxWidth());
            EXPECT_TRUE(off.ok) << off.abortReason;
        }
    }
}

} // namespace
} // namespace liquid
