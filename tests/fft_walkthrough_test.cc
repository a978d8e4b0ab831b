/**
 * @file
 * The paper's running example, end to end (Figures 2-4, Table 4): the
 * FFT butterfly loop is scalarized into the two fissioned loops of
 * Figure 4(B), dynamically translated back, and the generated SIMD
 * microcode must contain the structures of Table 4 — shuffled loads
 * with butterflies, vmask with 0xF0, collapsed offset loads, and the
 * induction-variable stride rewritten to the accelerator width.
 */

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

TEST(FftWalkthrough, ScalarizedShapeMatchesFigure4B)
{
    auto wl = makeWorkload("fft");
    const auto build = wl->build(EmitOptions::Mode::Scalarized);

    // The bfly8 kernel is the paper's example: it must fission into
    // exactly two loops connected by tmp arrays.
    ASSERT_EQ(build.kernels.size(), 3u);
    EXPECT_EQ(build.kernels[2].numStages, 2u);
    EXPECT_TRUE(build.prog.hasSymbol("fft_k2_tmp0"));
    EXPECT_TRUE(build.prog.hasSymbol("fft_k2_tmp1"));

    // Outlined function sizes must be in the paper's Table 5 range.
    for (const auto &k : build.kernels) {
        EXPECT_GE(k.instCount, 5u);
        EXPECT_LE(k.instCount, 64u);
    }
}

TEST(FftWalkthrough, Table4MicrocodeStructures)
{
    auto wl = makeWorkload("fft");
    const auto build = wl->build(EmitOptions::Mode::Scalarized);

    System sys(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
    sys.run();

    // All three butterfly-stage kernels translate at width 8.
    EXPECT_EQ(sys.translator().stats().get("translations"), 3u);

    const UcodeEntry *uc =
        sys.ucodeCache().lookup(build.kernelEntries[2], sys.cycles());
    ASSERT_NE(uc, nullptr);

    unsigned vperms = 0;
    unsigned vmasks = 0;
    unsigned iv_strides = 0;
    unsigned vmuls = 0;
    for (const auto &inst : uc->insts) {
        if (inst.op == Opcode::Vperm) {
            ++vperms;
            EXPECT_EQ(inst.permKind, PermKind::SwapHalves);
            EXPECT_EQ(inst.permBlock, 8);
        }
        if (inst.op == Opcode::Vmask) {
            ++vmasks;
            EXPECT_EQ(inst.maskBits, 0xF0u);
            EXPECT_EQ(inst.maskBlock, 8);
        }
        if (inst.op == Opcode::Add && inst.hasImm && inst.dst.isValid() &&
            inst.dst == inst.src1 && inst.imm == 8)
            ++iv_strides;
        vmuls += inst.op == Opcode::Vmul;
    }
    // Table 4: butterflies on the two shuffled loads plus the
    // butterfly before the tmp0 store.
    EXPECT_EQ(vperms, 3u);
    // Table 4: two vmask instructions with constant 0xF0.
    EXPECT_EQ(vmasks, 2u);
    EXPECT_EQ(vmuls, 2u);
    // Both fissioned loops stride by the accelerator width.
    EXPECT_EQ(iv_strides, 2u);

    // The offset-array loads (bfly/mask) must have been collapsed out:
    // remaining vector loads are exactly the five float data loads of
    // loop 1 plus the two tmp reloads of loop 2.
    unsigned vloads = 0;
    for (const auto &inst : uc->insts)
        vloads += inst.info().isLoad && inst.info().isVector;
    EXPECT_EQ(vloads, 7u);
    EXPECT_GE(sys.translator().stats().get("instsCollapsed"), 3u);
}

TEST(FftWalkthrough, NumbersMatchScalarExecution)
{
    auto wl = makeWorkload("fft");
    const auto build = wl->build(EmitOptions::Mode::Scalarized);

    // Liquid execution at width 8.
    System liquid(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
    liquid.run();
    ASSERT_GE(liquid.core().stats().get("ucodeDispatches"), 1u);

    // Pure scalar execution of the same binary.
    System scalar(SystemConfig::make(ExecMode::ScalarBaseline),
                  build.prog);
    scalar.run();

    for (const auto &[name, words] : wl->allOutputs()) {
        const auto a = Workload::readArray(build.prog, liquid.memory(),
                                           name, words);
        const auto b = Workload::readArray(build.prog, scalar.memory(),
                                           name, words);
        EXPECT_EQ(a, b) << name;
    }
}

TEST(FftWalkthrough, NarrowAcceleratorRefusesWideButterfly)
{
    auto wl = makeWorkload("fft");
    const auto build = wl->build(EmitOptions::Mode::Scalarized);

    System sys(SystemConfig::make(ExecMode::Liquid, 2), build.prog);
    sys.run();
    // Only the pairwise stage translates at width 2; the block-4 and
    // block-8 butterflies are refused (CAM miss, or the lane
    // verification that notices the pattern is not 2-periodic).
    EXPECT_EQ(sys.translator().stats().get("translations"), 1u);
    EXPECT_EQ(sys.translator().stats().get("abort.unsupportedShuffle") +
                  sys.translator().stats().get("abort.valueMismatch"),
              2u);
}

TEST(FftWalkthrough, SpeedupOrderingAcrossWidths)
{
    auto wl = makeWorkload("fft");
    const auto inline_build =
        wl->build(EmitOptions::Mode::InlineScalar);
    System base(SystemConfig::make(ExecMode::ScalarBaseline),
                inline_build.prog);
    base.run();

    const auto build = wl->build(EmitOptions::Mode::Scalarized);
    Cycles prev = base.cycles() + 1;
    for (unsigned width : {2u, 4u, 8u, 16u}) {
        // Zero translation latency isolates the steady-state speedup
        // from ready-time races on the second call of each region.
        SystemConfig config =
            SystemConfig::make(ExecMode::Liquid, width);
        config.translator.latencyPerInst = 0;
        System sys(config, build.prog);
        sys.run();
        EXPECT_LT(sys.cycles(), base.cycles())
            << "width " << width << " should beat scalar baseline";
        EXPECT_LE(sys.cycles(), prev)
            << "wider accelerators should not be slower";
        prev = sys.cycles();
    }
}

} // namespace
} // namespace liquid
