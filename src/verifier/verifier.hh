/**
 * @file
 * liquid-verify: static Table-1 conformance verification of assembled
 * programs (library API; the CLI front-end is tools/liquid_verify).
 *
 * verifyProgram() finds every outlined region (hinted bl target),
 * reconstructs its CFG and runs the static rule analysis at the widths
 * the dynamic translator would try, producing one RegionReport per
 * region: Ok (translation will commit; predicted width/microcode size
 * attached), Error (translation will abort; predicted reason
 * attached) or Warn (runtime-dependent; the condition is named).
 */

#ifndef LIQUID_VERIFIER_VERIFIER_HH
#define LIQUID_VERIFIER_VERIFIER_HH

#include "asm/program.hh"
#include "translator/translator.hh"
#include "verifier/depcheck.hh"
#include "verifier/diagnostics.hh"

namespace liquid
{

struct ProgramRanges;

/** Verification options. */
struct VerifyOptions
{
    /** Target translator/accelerator model to verify against. */
    TranslatorConfig config;
    /**
     * Mirror the translator's width fallback: when an attempt fails
     * with a width-dependent reason, retry at half width before
     * concluding. Disable to predict a single translateOffline() call.
     */
    bool widthFallback = true;
    /**
     * Memory-dependence analysis limits (see depcheck.hh). The pair
     * budget is spent in ascending width order, so shrinking it
     * degrades wide widths to Warn before narrow ones.
     */
    DepcheckOptions dep;
    /**
     * When depcheck cannot resolve a width (Warn), invoke the
     * translation-validation prover (proof.hh) on the microcode the
     * translator would commit: a Proved verdict upgrades the region to
     * Ok with the proof attached, a Refuted verdict becomes a
     * depMiscompile Error, and Unknown leaves the Warn standing.
     */
    bool prove = false;
    /**
     * Whole-program value-range analysis (range.hh). When set and
     * sound, proven region-entry facts seed the rule-mirror and
     * depcheck walks (turning runtime-dependent Warns into concrete
     * verdicts). Every consumed fact is attached to the report.
     */
    const ProgramRanges *ranges = nullptr;
    /**
     * Attach the width-polymorphic validity set (poly.hh) to every
     * report: one recording walk per region yields the predicate on N
     * (summary, exact Ok widths, interval × congruence constraints)
     * alongside the per-width verdict.
     */
    bool poly = false;
};

/**
 * Verify the region entered at @p entry_index against the options'
 * translator model. @p width_hint is the region's compiled maximum
 * vectorizable width (the bl.simd<N> operand; 0 = none).
 */
RegionReport verifyRegion(const Program &prog, int entry_index,
                          const VerifyOptions &opts,
                          unsigned width_hint = 0);

/** Verify every hinted outlined region of @p prog. */
ProgramReport verifyProgram(const Program &prog,
                            const VerifyOptions &opts);

} // namespace liquid

#endif // LIQUID_VERIFIER_VERIFIER_HH
