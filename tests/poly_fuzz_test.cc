/**
 * @file
 * Property test for the width-polymorphic verifier: over randomized
 * kernels, instantiating the symbolic verdict at every ladder width
 * must reproduce the concrete verifyRegion/depcheck verdict
 * bit-for-bit — verdict, AbortReason, diagnostic index, and the full
 * dependence verdict including DepReason codes (diffRegion compares
 * all of them).
 *
 * Trial count and seed come from the environment so the nightly
 * `ctest -L fuzz` run can date-seed a deeper sweep:
 *   LIQUID_POLY_TRIALS  number of kernels (default 300)
 *   LIQUID_POLY_SEED    base seed (default 0x9E3779B97F4A7C15)
 */

#include <string>

#include <gtest/gtest.h>

#include "test_env.hh"
#include "translator/translator.hh"
#include "verifier/poly.hh"
#include "workloads/kernel_corpus.hh"

using namespace liquid;

namespace
{

TEST(PolyFuzz, RandomKernelsMatchConcreteVerdicts)
{
    const unsigned trials = envNumber("LIQUID_POLY_TRIALS", 300u);
    const std::uint64_t seed =
        envNumber<std::uint64_t>("LIQUID_POLY_SEED", 0x9E3779B97F4A7C15ull);
    KernelCorpus corpus(seed);
    Rng dataRng(seed ^ 0xD1B54A32D192ED03ull);
    const TranslatorConfig config;

    std::uint64_t regions = 0;
    for (unsigned i = 0; i < trials; ++i) {
        corpus.next();
        const std::optional<Program> prog =
            corpus.build(dataRng, EmitOptions::Mode::Scalarized, 8);
        if (!prog)
            continue;
        for (const PolyDiff &d : diffProgram(*prog, config)) {
            ++regions;
            for (const PolyMismatch &m : d.mismatches) {
                ADD_FAILURE()
                    << "seed 0x" << std::hex << seed << std::dec
                    << " kernel " << i << " region " << d.entryLabel
                    << " width " << m.width << " field " << m.field
                    << ": concrete=" << m.expect
                    << " poly=" << m.got;
            }
        }
    }
    RecordProperty("trials", static_cast<int>(trials));
    RecordProperty("skipped", static_cast<int>(corpus.skipped()));
    // The skip path must stay the exception, not the rule.
    EXPECT_LT(corpus.skipped() * 10, trials) << corpus.skipSummary();
    EXPECT_GT(regions, 0u);
}

} // namespace
