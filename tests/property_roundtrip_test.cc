/**
 * @file
 * Property-based round-trip tests: randomly generated vector-IR
 * kernels, drawn from the supported rule categories of paper Table 1,
 * must produce identical memory through every path:
 *
 *   vector IR --interpret--> golden memory
 *   vector IR --scalarize--> scalar binary --execute--> memory
 *   scalar binary --dynamic translation--> microcode --execute--> memory
 *   vector IR --native codegen--> SIMD binary --execute--> memory
 *
 * across accelerator widths {2, 4, 8, 16}. This exercises the
 * scalarizer's fission/fusion decisions, the translator's rule
 * automaton and collapse network, and the core's vector datapath
 * against each other on shapes no human wrote.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "translator/offline.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/vir_interp.hh"

namespace liquid
{
namespace
{

std::vector<Word>
readOutputs(const GeneratedKernel &g, const Program &prog,
            const MainMemory &mem)
{
    std::vector<Word> all;
    for (const auto &name : g.outputs) {
        const Addr base = prog.symbol(name);
        for (unsigned i = 0; i < g.kernel.tripCount(); ++i)
            all.push_back(mem.readWord(base + 4 * i));
    }
    // Accumulator result slots.
    for (unsigned a = 0; a < g.kernel.accs().size(); ++a) {
        const std::string res =
            "accres" + std::to_string(a) + "_" + g.kernel.name();
        all.push_back(mem.readWord(prog.symbol(res)));
    }
    return all;
}

/** Golden: interpret the kernel three times (like the three calls). */
std::vector<Word>
goldenOutputs(const GeneratedKernel &g, const Program &prog)
{
    MainMemory mem = MainMemory::forProgram(prog);
    std::vector<Word> accs;
    for (int call = 0; call < 3; ++call)
        accs = interpretKernel(g.kernel, prog, mem);
    std::vector<Word> all;
    for (const auto &name : g.outputs) {
        const Addr base = prog.symbol(name);
        for (unsigned i = 0; i < g.kernel.tripCount(); ++i)
            all.push_back(mem.readWord(base + 4 * i));
    }
    for (const Word acc : accs)
        all.push_back(acc);
    return all;
}

class RoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RoundTrip, RandomKernelsAgreeEverywhere)
{
    const unsigned seed = GetParam();
    KernelCorpus corpus(seed);

    for (unsigned trial = 0; trial < 12; ++trial) {
        const GeneratedKernel &g = corpus.next();

        // Every build gets identical data.
        auto freshData = [&](EmitOptions::Mode mode, unsigned width) {
            Rng d(seed * 977 + trial);
            return corpus.mustBuild(d, mode, width);
        };
        // Inline scalar on a plain core is the structural reference
        // for the ISA path.
        const Program inline_prog =
            freshData(EmitOptions::Mode::InlineScalar, 8);

        const std::vector<Word> golden =
            goldenOutputs(g, inline_prog);

        {
            System sys(SystemConfig::make(ExecMode::ScalarBaseline),
                       inline_prog);
            sys.run();
            EXPECT_EQ(readOutputs(g, inline_prog, sys.memory()), golden)
                << "inline scalar, seed=" << seed
                << " trial=" << trial;
        }

        for (unsigned width : {2u, 4u, 8u, 16u}) {
            Program prog =
                freshData(EmitOptions::Mode::Scalarized, width);
            System sys(SystemConfig::make(ExecMode::Liquid, width),
                       prog);
            sys.run();
            EXPECT_EQ(readOutputs(g, prog, sys.memory()), golden)
                << "liquid W=" << width << ", seed=" << seed
                << " trial=" << trial << "\nkernel ops="
                << g.kernel.body().size();
        }

        // Native where the width can express every construct.
        for (unsigned width : {8u, 16u}) {
            bool ok = true;
            for (const auto &v : g.kernel.body()) {
                if (v.k == vir::OpK::Perm && v.permBlock > width)
                    ok = false;
                if (v.k == vir::OpK::Mask && v.maskBlock > width)
                    ok = false;
            }
            if (!ok || g.kernel.tripCount() % width != 0)
                continue;
            Program prog = freshData(EmitOptions::Mode::Native, width);
            System sys(SystemConfig::make(ExecMode::NativeSimd, width),
                       prog);
            sys.run();
            EXPECT_EQ(readOutputs(g, prog, sys.memory()), golden)
                << "native W=" << width << ", seed=" << seed
                << " trial=" << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

/**
 * The offline (static) translator must agree with the hardware
 * translator on random kernels too, not just the curated suite.
 */
TEST(RoundTripOffline, StaticAndDynamicTranslationAgree)
{
    KernelCorpus corpus(4242);
    for (unsigned trial = 0; trial < 20; ++trial) {
        const GeneratedKernel &g = corpus.next();
        Rng d(trial * 31 + 7);
        const Program prog =
            corpus.mustBuild(d, EmitOptions::Mode::Scalarized, 8);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), prog);
        sys.run();
        const Addr entry =
            Program::instAddr(prog.labelIndex(g.kernel.name()));
        const UcodeEntry *hw =
            sys.ucodeCache().lookup(entry, sys.cycles() + 1'000'000);

        OfflineResult off;
        for (unsigned w = 8; w >= 2; w /= 2) {
            off = translateOffline(prog,
                                   prog.labelIndex(g.kernel.name()), w,
                                   g.kernel.maxWidth());
            if (off.ok)
                break;
        }
        ASSERT_EQ(hw != nullptr, off.ok) << "trial " << trial;
        if (!hw)
            continue;
        ASSERT_EQ(off.entry.insts.size(), hw->insts.size())
            << "trial " << trial;
        for (std::size_t i = 0; i < hw->insts.size(); ++i) {
            EXPECT_EQ(off.entry.insts[i], hw->insts[i])
                << "trial " << trial << " inst " << i;
        }
    }
}

/**
 * Translation coverage sanity: across all generated kernels at width 8
 * a healthy majority must actually translate (ensuring the round-trip
 * above exercises the microcode path, not just scalar fallback).
 */
TEST(RoundTripCoverage, MostGeneratedKernelsTranslate)
{
    KernelCorpus corpus(99);
    unsigned translated = 0;
    unsigned total = 0;
    for (unsigned trial = 0; trial < 40; ++trial) {
        corpus.next();
        Rng d(trial);
        const Program prog =
            corpus.mustBuild(d, EmitOptions::Mode::Scalarized, 8);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), prog);
        sys.run();
        translated += sys.translator().stats().get("translations") > 0;
        ++total;
    }
    EXPECT_GE(translated * 10, total * 6)
        << translated << "/" << total << " kernels translated";
}

} // namespace
} // namespace liquid
