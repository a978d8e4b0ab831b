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

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "translator/translator.hh"
#include "verifier/poly.hh"

#include "random_kernels.hh"

using namespace liquid;

namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 0);
}

TEST(PolyFuzz, RandomKernelsMatchConcreteVerdicts)
{
    const std::uint64_t trials = envU64("LIQUID_POLY_TRIALS", 300);
    const std::uint64_t seed =
        envU64("LIQUID_POLY_SEED", 0x9E3779B97F4A7C15ull);
    Rng rng(seed);
    Rng dataRng(seed ^ 0xD1B54A32D192ED03ull);
    const TranslatorConfig config;

    std::uint64_t regions = 0;
    std::uint64_t skipped = 0;
    for (std::uint64_t i = 0; i < trials; ++i) {
        const GeneratedKernel g =
            generateKernel(rng, static_cast<unsigned>(i));
        Program prog;
        try {
            prog = buildGeneratedProgram(
                g, dataRng, EmitOptions::Mode::Scalarized, 8);
        } catch (const FatalError &) {
            // Register pressure or staging aliasing: the kernel never
            // scalarizes, so there is no verdict to compare.
            ++skipped;
            continue;
        }
        for (const PolyDiff &d : diffProgram(prog, config)) {
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
    RecordProperty("skipped", static_cast<int>(skipped));
    // The skip path must stay the exception, not the rule.
    EXPECT_LT(skipped * 10, trials);
    EXPECT_GT(regions, 0u);
}

} // namespace
