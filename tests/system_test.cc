/** @file System wiring, execution modes and memory-model tests. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "sim/system.hh"
#include "workloads/vir_interp.hh"
#include "workloads/workload.hh"

namespace liquid
{
namespace
{

TEST(MainMemory, ByteHalfWordAccess)
{
    MainMemory mem(256);
    mem.writeWord(0x10, 0xAABBCCDD);
    EXPECT_EQ(mem.readByte(0x10), 0xDD);   // little endian
    EXPECT_EQ(mem.readByte(0x13), 0xAA);
    EXPECT_EQ(mem.readHalf(0x10), 0xCCDD);
    EXPECT_EQ(mem.readHalf(0x12), 0xAABB);
    EXPECT_EQ(mem.readWord(0x10), 0xAABBCCDDu);

    mem.writeHalf(0x20, 0x1234);
    EXPECT_EQ(mem.readElem(0x20, 2, false), 0x1234u);
    mem.writeByte(0x30, 0x80);
    EXPECT_EQ(mem.readElem(0x30, 1, false), 0x80u);
    EXPECT_EQ(mem.readElem(0x30, 1, true), 0xFFFFFF80u);
    mem.writeHalf(0x32, 0x8000);
    EXPECT_EQ(mem.readElem(0x32, 2, true), 0xFFFF8000u);
}

TEST(MainMemory, OutOfBoundsIsFatal)
{
    // A program's stray address is a user error, not a simulator bug.
    MainMemory mem(64);
    EXPECT_THROW(mem.readWord(62), FatalError);
    EXPECT_THROW(mem.writeByte(64, 0), FatalError);
    EXPECT_NO_THROW(mem.readWord(60));
}

TEST(MainMemory, StraddlingTheEndIsFatal)
{
    // Every byte of an access is checked, not just its first: half and
    // word accesses that start inside memory but end past it fail, and
    // a failed write leaves memory untouched.
    MainMemory mem(64);
    for (Addr a : {61u, 62u, 63u}) {
        EXPECT_THROW(mem.readWord(a), FatalError) << a;
        EXPECT_THROW(mem.writeWord(a, 0xFFFFFFFFu), FatalError) << a;
        EXPECT_THROW(mem.readElem(a, 4, false), FatalError) << a;
        EXPECT_THROW(mem.writeElem(a, 4, 0xFFFFFFFFu), FatalError) << a;
    }
    EXPECT_THROW(mem.readHalf(63), FatalError);
    EXPECT_THROW(mem.writeHalf(63, 0xFFFF), FatalError);
    EXPECT_THROW(mem.readElem(63, 2, true), FatalError);
    EXPECT_THROW(mem.writeElem(63, 2, 0xFFFF), FatalError);
    EXPECT_THROW(mem.readHalf(64), FatalError);
    EXPECT_THROW(mem.readByte(64), FatalError);
    for (Addr a = 60; a < 64; ++a)
        EXPECT_EQ(mem.readByte(a), 0u) << a;

    EXPECT_NO_THROW(mem.readHalf(62));
    EXPECT_NO_THROW(mem.writeHalf(62, 0xBEEF));
    EXPECT_NO_THROW(mem.writeWord(60, 0x12345678));
    EXPECT_EQ(mem.readWord(60), 0x12345678u);
    // Wrapping a 32-bit address cannot reach back into memory.
    EXPECT_THROW(mem.readWord(0xFFFFFFFEu), FatalError);
}

TEST(MainMemory, LoadsProgramImage)
{
    Program prog;
    prog.allocWords("arr", {0x11223344, 0x55667788});
    MainMemory mem = MainMemory::forProgram(prog);
    EXPECT_EQ(mem.readWord(prog.symbol("arr")), 0x11223344u);
    EXPECT_EQ(mem.readWord(prog.symbol("arr") + 4), 0x55667788u);
}

TEST(SystemConfigs, ModeCoupling)
{
    const auto scalar = SystemConfig::make(ExecMode::ScalarBaseline);
    EXPECT_EQ(scalar.core.simdWidth, 0u);
    EXPECT_FALSE(scalar.core.translationEnabled);

    const auto liquid = SystemConfig::make(ExecMode::Liquid, 4);
    EXPECT_EQ(liquid.core.simdWidth, 4u);
    EXPECT_TRUE(liquid.core.translationEnabled);
    EXPECT_EQ(liquid.translator.simdWidth, 4u);

    const auto native = SystemConfig::make(ExecMode::NativeSimd, 16);
    EXPECT_EQ(native.core.simdWidth, 16u);
    EXPECT_FALSE(native.core.translationEnabled);
}

TEST(System, NativeModeNeverTranslates)
{
    // A native binary on a NativeSimd system must not touch the
    // translator path at all.
    std::unique_ptr<Workload> fir;
    for (auto &wl : makeSuite()) {
        if (wl->name() == "fir")
            fir = std::move(wl);
    }
    const auto build = fir->build(EmitOptions::Mode::Native, 8);
    System sys(SystemConfig::make(ExecMode::NativeSimd, 8), build.prog);
    sys.run();
    EXPECT_EQ(sys.core().stats().get("ucodeDispatches"), 0u);
    EXPECT_GT(sys.core().stats().get("vectorInsts"), 0u);
}

TEST(System, LiquidIsDeterministic)
{
    std::unique_ptr<Workload> fft;
    for (auto &wl : makeSuite()) {
        if (wl->name() == "fft")
            fft = std::move(wl);
    }
    const auto build = fft->build(EmitOptions::Mode::Scalarized);
    System a(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
    a.run();
    System b(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
    b.run();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.core().stats().counters(), b.core().stats().counters());
}

TEST(System, WiderAcceleratorNeverLosesAtZeroLatency)
{
    // With readiness races removed, every workload must be at least as
    // fast at width 16 as at width 2 (monotone benefit of hardware).
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        SystemConfig narrow = SystemConfig::make(ExecMode::Liquid, 2);
        narrow.translator.latencyPerInst = 0;
        SystemConfig wide = SystemConfig::make(ExecMode::Liquid, 16);
        wide.translator.latencyPerInst = 0;
        System a(narrow, build.prog);
        a.run();
        System b(wide, build.prog);
        b.run();
        EXPECT_LE(b.cycles(), a.cycles()) << wl->name();
    }
}

TEST(System, ScalarizedBinaryBeatsNothingWithoutAccelerator)
{
    // Outlining costs only bl/ret: the scalarized binary on a plain
    // core must be within 2% of the inline baseline (the paper's
    // "<1% overhead" claim is about code size; the runtime cost of
    // outlining itself is similarly small).
    for (const auto &wl : makeSuite()) {
        const auto inline_build =
            wl->build(EmitOptions::Mode::InlineScalar);
        const auto outlined = wl->build(EmitOptions::Mode::Scalarized);
        System a(SystemConfig::make(ExecMode::ScalarBaseline),
                 inline_build.prog);
        a.run();
        System b(SystemConfig::make(ExecMode::ScalarBaseline),
                 outlined.prog);
        b.run();
        EXPECT_LT(static_cast<double>(b.cycles()),
                  static_cast<double>(a.cycles()) * 1.02)
            << wl->name();
    }
}

TEST(VirInterp, MatchesHandComputation)
{
    Program prog;
    prog.allocWords("ia", {1, 2, 3, 4, 5, 6, 7, 8,
                           9, 10, 11, 12, 13, 14, 15, 16});
    prog.allocData("ob", 64);

    vir::Kernel k("t", 16);
    const int acc = k.newAcc("sum", Opcode::Add, 100);
    const int a = k.load("ia");
    const int doubled = k.binImm(Opcode::Mul, a, 2);
    const int rev = k.perm(doubled, PermKind::Reverse, 4);
    k.store("ob", rev);
    k.reduce(acc, a);

    MainMemory mem = MainMemory::forProgram(prog);
    const auto accs = interpretKernel(k, prog, mem);
    ASSERT_EQ(accs.size(), 1u);
    EXPECT_EQ(accs[0], 100u + 136u);
    // Reversed blocks of 4, doubled.
    const Word expect[8] = {8, 6, 4, 2, 16, 14, 12, 10};
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.readWord(prog.symbol("ob") + 4 * i), expect[i]);
}

TEST(WorkloadFramework, AccumulatorResultsRecorded)
{
    for (const auto &wl : makeSuite()) {
        if (wl->name() != "052.alvinn")
            continue;
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
        sys.run();
        // Dot products of fixed data: every rep records the same value.
        const auto res = Workload::readArray(
            build.prog, sys.memory(), wl->accResArray(0, 0),
            wl->reps());
        for (unsigned rep = 1; rep < wl->reps(); ++rep)
            EXPECT_EQ(res[rep], res[0]);
        EXPECT_NE(res[0], 0u);
    }
}

} // namespace
} // namespace liquid
