/**
 * @file
 * Differential fuzz: the translation-validation prover vs the
 * execution oracle on randomly generated kernels.
 *
 * For every random legal kernel (workloads/kernel_corpus.hh) the prover
 * and the chaos oracle must agree:
 *
 *   - Proved at width w  => the fault-free Liquid run at w is
 *     architecturally equal to the scalar baseline;
 *   - Refuted at width w => the counterexample is concrete, memory-
 *     realizable, and its chaos-oracle replay confirms the divergence;
 *   - Unknown is tolerated (budget honesty) but counted, and the run
 *     fails if the prover gives up on more than a small fraction.
 *
 * A kernel the scalarizer cannot build (FatalError) is skipped and
 * counted; the run fails if more than a small fraction is skipped.
 *
 * Environment knobs (the nightly CI job turns these up):
 *   LIQUID_PROOF_TRIALS   kernels to generate (default 10)
 *   LIQUID_PROOF_SEED     base RNG seed (default 1)
 *   LIQUID_PROOF_DUMP_DIR where every prover/oracle divergence writes
 *                         its program listing (default proof_failures/)
 */

#include <iostream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/oracle.hh"
#include "test_env.hh"
#include "verifier/proof.hh"
#include "workloads/kernel_corpus.hh"

using namespace liquid;

namespace
{

/** Persist a divergent program for offline diagnosis. */
void
dumpDivergence(unsigned trial, unsigned width, const Program &prog,
               const std::string &why)
{
    dumpListing("LIQUID_PROOF_DUMP_DIR", "proof_failures",
                "proof_fuzz_t" + std::to_string(trial) + "_w" +
                    std::to_string(width),
                prog, "; prover/oracle divergence: " + why + "\n");
}

} // namespace

TEST(ProofFuzz, ProverAgreesWithExecutionOracle)
{
    const unsigned trials = envNumber("LIQUID_PROOF_TRIALS", 10u);
    const unsigned seed = envNumber("LIQUID_PROOF_SEED", 1u);

    ProofOptions popts;  // widths {2, 4, 8, 16}, replay on

    unsigned proved = 0, refuted = 0, unknown = 0, untranslated = 0;
    KernelCorpus corpus(seed);
    for (unsigned t = 0; t < trials; ++t) {
        // Each trial seeds its own kernel, so one trial replays alone.
        corpus.rng() = Rng(seed + 1000ull * t);
        corpus.next();
        Rng drng(seed + 1000ull * t + 7);
        const std::optional<Program> built =
            corpus.build(drng, EmitOptions::Mode::Scalarized, 16);
        if (!built)
            continue;
        const Program &prog = *built;

        const ProgramProof pp = proveProgram(prog, popts);
        ASSERT_EQ(pp.regions.size(), 1u) << "trial " << t;
        const RegionProof &rp = pp.regions[0];

        for (const WidthProof &wp : rp.widths) {
            switch (wp.verdict) {
              case ProofVerdict::Proved: {
                ++proved;
                // The oracle must see fault-free architectural
                // equality at the proved width.
                const ChaosReference ref =
                    makeReference(prog, wp.boundWidth);
                const ChaosReport rep = checkSchedule(
                    ref, prog, wp.boundWidth, FaultSchedule{});
                if (!rep.equal) {
                    dumpDivergence(t, wp.width, prog,
                                   "proved but oracle diverges");
                }
                ASSERT_TRUE(rep.equal)
                    << "trial " << t << " w" << wp.width
                    << ": proved, but the execution oracle diverges: "
                    << (rep.mismatches.empty()
                            ? std::string("(no detail)")
                            : rep.mismatches.front());
                break;
              }
              case ProofVerdict::Refuted: {
                ++refuted;
                // Random legal kernels must never refute — that is a
                // prover or translator bug by construction.
                if (wp.ce) {
                    dumpDivergence(t, wp.width, prog,
                                   "legal kernel refuted: " +
                                       wp.ce->obligation);
                }
                FAIL() << "trial " << t << " w" << wp.width
                       << ": legal kernel refuted: " << wp.summary;
                break;
              }
              case ProofVerdict::Unknown:
                ++unknown;
                break;
              case ProofVerdict::NoTranslation:
                ++untranslated;
                break;
            }
        }
    }

    // Honesty bound: the enumeration tiers are sized so random legal
    // kernels essentially always close; a surge of Unknowns means the
    // discharge strategy regressed.
    EXPECT_LE(unknown, (proved + unknown) / 10 + 1)
        << proved << " proved vs " << unknown << " unknown";
    EXPECT_GT(proved, 0u);

    const unsigned skipped = corpus.skipped();
    std::cout << "proof fuzz: " << trials << " kernels, "
              << corpus.skipSummary() << '\n';
    // Skip bound: at 300 trials seeds 1, 7, 20261017 and 20261018
    // skip 0, 2, 1 and 2 kernels (5 of 1200, 0.4%), and 500-trial
    // date seeds skip up to 8 (1.6%). The bound, 5% + 1, leaves room
    // for that spread but fails a generator change that would quietly
    // leave many kernels unchecked.
    EXPECT_LE(skipped, trials / 20 + 1)
        << skipped << " of " << trials << " kernels skipped";
}
