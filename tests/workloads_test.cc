/**
 * @file
 * End-to-end workload verification: for every benchmark in the suite
 * and every accelerator width, the scalar baseline, the Liquid SIMD
 * binary (dynamically translated) and the native SIMD binary must all
 * leave output arrays byte-identical to the vector-IR golden
 * interpreter. The catalogue finds a workload by name and fails on an
 * unknown one.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

/** Run one build under one config; returns the finished system. */
std::unique_ptr<System>
runBuild(const Workload::Build &build, const SystemConfig &config)
{
    auto sys = std::make_unique<System>(config, build.prog);
    sys->run();
    return sys;
}

void
expectOutputsMatchGolden(const Workload &wl, const Workload::Build &build,
                         const MainMemory &mem, const std::string &what)
{
    // Golden: fresh memory, interpreter semantics.
    MainMemory golden_mem = MainMemory::forProgram(build.prog);
    wl.goldenRun(build, golden_mem);

    for (const auto &[name, words] : wl.allOutputs()) {
        const auto got =
            Workload::readArray(build.prog, mem, name, words);
        const auto want =
            Workload::readArray(build.prog, golden_mem, name, words);
        ASSERT_EQ(got.size(), want.size());
        for (unsigned i = 0; i < words; ++i) {
            ASSERT_EQ(got[i], want[i])
                << wl.name() << " [" << what << "] array '" << name
                << "' element " << i;
        }
    }
}

class WorkloadSuite : public ::testing::TestWithParam<unsigned>
{
};

TEST(WorkloadBaseline, MatchesGolden)
{
    for (const auto &wl : makeSuite()) {
        const auto build =
            wl->build(EmitOptions::Mode::InlineScalar);
        auto sys = runBuild(
            build, SystemConfig::make(ExecMode::ScalarBaseline));
        expectOutputsMatchGolden(*wl, build, sys->memory(), "baseline");
    }
}

TEST(WorkloadScalarized, MatchesGoldenWithoutAccelerator)
{
    // Scalarized binaries must run correctly on a plain scalar core
    // (the paper's "no translator present" portability claim).
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        auto sys = runBuild(
            build, SystemConfig::make(ExecMode::ScalarBaseline));
        expectOutputsMatchGolden(*wl, build, sys->memory(),
                                 "scalarized-noaccel");
    }
}

TEST_P(WorkloadSuite, LiquidMatchesGolden)
{
    const unsigned width = GetParam();
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        auto sys = runBuild(
            build, SystemConfig::make(ExecMode::Liquid, width));
        expectOutputsMatchGolden(*wl, build, sys->memory(),
                                 "liquid-w" + std::to_string(width));
    }
}

TEST_P(WorkloadSuite, NativeMatchesGolden)
{
    const unsigned width = GetParam();
    for (const auto &wl : makeSuite()) {
        // Native code is only emittable when the width can express
        // every kernel (permutation blocks etc.); skip others.
        bool emittable = true;
        for (const auto &k : wl->makeKernels()) {
            if (width > k.maxWidth())
                emittable = false;
            for (const auto &v : k.body()) {
                if (v.k == vir::OpK::Perm && v.permBlock > width)
                    emittable = false;
                if (v.k == vir::OpK::Mask && v.maskBlock > width)
                    emittable = false;
                if (v.k == vir::OpK::BinConst &&
                    v.lanes.size() > width)
                    emittable = false;
            }
            if (k.tripCount() % width != 0)
                emittable = false;
        }
        if (!emittable)
            continue;
        const auto build =
            wl->build(EmitOptions::Mode::Native, width);
        auto sys = runBuild(
            build, SystemConfig::make(ExecMode::NativeSimd, width));
        expectOutputsMatchGolden(*wl, build, sys->memory(),
                                 "native-w" + std::to_string(width));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, WorkloadSuite,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(WorkloadSuiteMeta, FifteenBenchmarks)
{
    const auto suite = makeSuite();
    EXPECT_EQ(suite.size(), 15u);
}

TEST(WorkloadCatalogue, EverySuiteNameRoundTrips)
{
    const auto suite = makeSuite();
    const std::vector<std::string> names = workloadNames();
    ASSERT_EQ(names.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(names[i], suite[i]->name());
        EXPECT_EQ(makeWorkload(names[i])->name(), names[i]);
    }
}

TEST(WorkloadCatalogue, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("nosuch"), FatalError);
    try {
        makeWorkload("179.ar", "lab: ");
        FAIL() << "a misspelt name was accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: lab: unknown workload '179.ar'");
    }
    EXPECT_THROW(selectWorkloads({"fir", "nosuch"}), FatalError);
}

TEST(WorkloadCatalogue, SelectorKeepsSuiteOrderAndDropsDuplicates)
{
    std::vector<std::string> got;
    for (const auto &wl : selectWorkloads({"fft", "fir", "fft", "lu"}))
        got.push_back(wl->name());
    EXPECT_EQ(got, (std::vector<std::string>{"lu", "fir", "fft"}));
    EXPECT_EQ(selectWorkloads({}).size(), 15u);
}

TEST(WorkloadTranslation, HotLoopsActuallyTranslate)
{
    // At width 8, most of the suite's kernels must translate (this is
    // the paper's headline mechanism, not an optional fast path).
    unsigned translated = 0;
    unsigned total = 0;
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
        sys.run();
        translated +=
            sys.translator().stats().get("translations");
        total += wl->makeKernels().size();
    }
    EXPECT_GE(translated, total * 3 / 4)
        << "most kernels should translate at width 8";
}

} // namespace
} // namespace liquid
