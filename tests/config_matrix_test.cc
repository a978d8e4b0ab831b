/**
 * @file
 * Configuration-matrix robustness: the whole workload suite must match
 * the golden model under every unusual-but-legal configuration —
 * translation is an optimization layer and must never change results.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

struct ConfigCase
{
    const char *name;
    std::function<void(SystemConfig &)> tweak;
};

const ConfigCase cases[] = {
    {"tiny microcode cache",
     [](SystemConfig &c) { c.ucodeCache.entries = 1; }},
    {"collapse network disabled",
     [](SystemConfig &c) { c.translator.collapseEnabled = false; }},
    {"no width fallback",
     [](SystemConfig &c) { c.translator.widthFallback = false; }},
    {"no hints required",
     [](SystemConfig &c) { c.translator.requireHint = false; }},
    {"offline pretranslation",
     [](SystemConfig &c) { c.pretranslate = true; }},
    {"slow JIT translator",
     [](SystemConfig &c) { c.translator.latencyPerInst = 25; }},
    {"interrupt storm",
     [](SystemConfig &c) { c.core.faults = FaultSchedule::periodic(700); }},
    {"no blacklist (retry forever)",
     [](SystemConfig &c) { c.translator.blacklistOnAbort = false; }},
    {"tiny data cache",
     [](SystemConfig &c) {
         c.core.dcache.sizeBytes = 2048;
         c.core.dcache.assoc = 64;
     }},
    {"ancient shuffle repertoire",
     [](SystemConfig &c) {
         c.translator.permRepertoire =
             permSet({PermKind::SwapPairs});
     }},
};

TEST(ConfigMatrix, SuiteMatchesGoldenUnderEveryConfig)
{
    const auto suite = makeSuite();
    for (const auto &cc : cases) {
        for (const auto &wl : suite) {
            // 179.art is slow; the matrix uses the rest plus art once.
            if (wl->name() == "179.art" &&
                std::string(cc.name) != "tiny microcode cache")
                continue;
            const auto build = wl->build(EmitOptions::Mode::Scalarized);
            SystemConfig config =
                SystemConfig::make(ExecMode::Liquid, 8);
            cc.tweak(config);
            System sys(config, build.prog);
            sys.run();

            MainMemory golden = MainMemory::forProgram(build.prog);
            wl->goldenRun(build, golden);
            for (const auto &[name, words] : wl->allOutputs()) {
                ASSERT_EQ(Workload::readArray(build.prog, sys.memory(),
                                              name, words),
                          Workload::readArray(build.prog, golden, name,
                                              words))
                    << wl->name() << " under '" << cc.name
                    << "' array " << name;
            }
        }
    }
}

TEST(ConfigMatrix, WidthTwoThroughSixteenTimesConfigs)
{
    // A smaller cross: fft (permutation-heavy) under every config at
    // every width.
    const auto fft = makeWorkload("fft");
    const auto build = fft->build(EmitOptions::Mode::Scalarized);
    MainMemory golden = MainMemory::forProgram(build.prog);
    fft->goldenRun(build, golden);

    for (const auto &cc : cases) {
        for (unsigned width : {2u, 4u, 8u, 16u}) {
            SystemConfig config =
                SystemConfig::make(ExecMode::Liquid, width);
            cc.tweak(config);
            System sys(config, build.prog);
            sys.run();
            for (const auto &[name, words] : fft->allOutputs()) {
                ASSERT_EQ(Workload::readArray(build.prog, sys.memory(),
                                              name, words),
                          Workload::readArray(build.prog, golden, name,
                                              words))
                    << "fft W=" << width << " under '" << cc.name
                    << "' array " << name;
            }
        }
    }
}

} // namespace
} // namespace liquid
