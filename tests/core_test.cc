/** @file Pipeline/core model tests: semantics and timing behaviours. */

#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hh"
#include "common/bitfield.hh"
#include "cpu/core.hh"
#include "memory/main_memory.hh"

namespace liquid
{
namespace
{

struct TestRun
{
    Program prog;
    MainMemory mem;
    Core core;

    TestRun(const std::string &src, CoreConfig config = CoreConfig{})
        : prog(assemble(src)), mem(MainMemory::forProgram(prog)),
          core(config, prog, mem)
    {
    }
};

TEST(Core, ArithmeticAndFlags)
{
    TestRun r(
      R"(
        main:
            mov r1, #10
            mov r2, #3
            sub r3, r1, r2
            mul r4, r3, r2
            cmp r4, #21
            moveq r5, #1
            movne r6, #1
            halt
    )");
    r.core.run();
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 3)), 7u);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 4)), 21u);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 5)), 1u);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 6)), 0u);
}

TEST(Core, LoopAndMemory)
{
    TestRun r(
      R"(
        .words src 5 6 7 8
        .data dst 16
        main:
            mov r0, #0
        top:
            ldw r1, [src + r0]
            add r1, r1, #100
            stw [dst + r0], r1
            add r0, r0, #1
            cmp r0, #4
            blt top
            halt
    )");
    r.core.run();
    const Addr dst = r.prog.symbol("dst");
    EXPECT_EQ(r.mem.readWord(dst + 0), 105u);
    EXPECT_EQ(r.mem.readWord(dst + 12), 108u);
}

TEST(Core, ElementScaledAddressing)
{
    TestRun r(
      R"(
        .data bytes 8
        .data halves 16
        main:
            mov r0, #2
            mov r1, #65
            stb [bytes + r0], r1
            sth [halves + r0], r1
            ldb r2, [bytes + r0]
            ldh r3, [halves + r0]
            halt
    )");
    r.core.run();
    // Byte 2 of bytes, halfword 2 (byte offset 4) of halves.
    EXPECT_EQ(r.mem.readByte(r.prog.symbol("bytes") + 2), 65u);
    EXPECT_EQ(r.mem.readHalf(r.prog.symbol("halves") + 4), 65u);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 2)), 65u);
}

TEST(Core, SignExtendingLoads)
{
    TestRun r(
      R"(
        .data b 4
        main:
            mov r1, #-1
            mov r0, #0
            stb [b + r0], r1
            ldb r2, [b + r0]
            ldsb r3, [b + r0]
            halt
    )");
    r.core.run();
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 2)), 0xFFu);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 3)), 0xFFFFFFFFu);
}

TEST(Core, FloatClassSemantics)
{
    TestRun r(
      R"(
        .words fa 0x3FC00000 ; 1.5f
        .words fb 0x40100000 ; 2.25f
        .data fout 4
        main:
            mov r0, #0
            ldw f0, [fa + r0]
            ldw f1, [fb + r0]
            mul f2, f0, f1
            stw [fout + r0], f2
            halt
    )");
    r.core.run();
    EXPECT_EQ(bitsToFloat(r.mem.readWord(r.prog.symbol("fout"))), 3.375f);
}

TEST(Core, CallAndReturn)
{
    TestRun r(
      R"(
        fn:
            add r1, r1, #1
            ret
        main:
            mov r1, #0
            bl fn
            bl fn
            halt
    )");
    r.core.run();
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 1)), 2u);
    EXPECT_EQ(r.core.stats().get("calls"), 2u);
}

TEST(Core, CallLogRecordsCycles)
{
    TestRun r(
      R"(
        fn:
            ret
        main:
            bl fn
            bl fn
            bl fn
            halt
    )");
    r.core.run();
    const Addr entry = Program::instAddr(0);
    ASSERT_TRUE(r.core.callLog().count(entry));
    const auto &log = r.core.callLog().at(entry);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_LT(log[0], log[1]);
    EXPECT_LT(log[1], log[2]);
}

TEST(Core, VectorExecution)
{
    CoreConfig config;
    config.simdWidth = 4;
    TestRun r(
      R"(
        .words va 1 2 3 4
        .words vb 10 20 30 40
        .data vc 16
        main:
            mov r0, #0
            vldw v1, [va + r0]
            vldw v2, [vb + r0]
            vadd v3, v1, v2
            vstw [vc + r0], v3
            vredadd r5, v3
            halt
    )",
          config);
    r.core.run();
    const Addr vc = r.prog.symbol("vc");
    EXPECT_EQ(r.mem.readWord(vc + 0), 11u);
    EXPECT_EQ(r.mem.readWord(vc + 4), 22u);
    EXPECT_EQ(r.mem.readWord(vc + 12), 44u);
    EXPECT_EQ(r.core.regs().read(RegId(RegClass::Int, 5)), 110u);
}

TEST(Core, VectorWithoutAcceleratorIsFatal)
{
    TestRun r(
      R"(
        .data buf 64
        main:
            mov r0, #0
            vldw v1, [buf + r0]
            halt
    )");
    EXPECT_THROW(r.core.run(), FatalError);
}

TEST(Core, OutOfBoundsAccessIsFatal)
{
    // A stray address in a user program is a user error (FatalError),
    // not a simulator bug (PanicError).
    TestRun r(
      R"(
        .words buf 1 2 3 4
        main:
            mov r0, #30000
            mul r0, r0, r0
            ldw r1, [buf + r0]
            halt
    )");
    EXPECT_THROW(r.core.run(), FatalError);
}

/** The FatalError text running @p src throws; "" if none. */
std::string
runError(const std::string &src)
{
    TestRun r(src);
    try {
        r.core.run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Core, TopLevelRetIsFatal)
{
    // A ret with no caller is a user error, reported with the text the
    // functional tier uses (fast_interp_test's FastUserErrors).
    EXPECT_EQ(runError("main:\n  ret\n"),
              "fatal: ret at pc 0 with an empty call stack: a top-level "
              "ret has no caller to return to (end the program with "
              "halt)");
}

TEST(Core, RunningOffTheTextIsFatal)
{
    EXPECT_EQ(runError("main:\n  nop\n"),
              "fatal: pc 1 is outside the program text of 1 "
              "instruction(s): the program ran off its end without a "
              "halt");
}

TEST(CoreTiming, CacheMissesCost)
{
    // Two runs differing only in data footprint: streaming through
    // 32 KB (>16 KB cache) must cost much more than re-touching one
    // line.
    const char *src = R"(
        .data big 32768
        main:
            mov r0, #0
        top:
            ldw r1, [big + r0]
            add r0, r0, #8
            cmp r0, #8192
            blt top
            halt
    )";
    TestRun miss(src);
    miss.core.run();
    // Every load touches a fresh line (stride 8 words = 32 B).
    EXPECT_EQ(miss.core.dcache().stats().get("misses"), 1024u);
    EXPECT_GT(miss.core.cycles(), 1024 * 30);
}

TEST(CoreTiming, TakenBranchesCost)
{
    const char *loop = R"(
        main:
            mov r0, #0
        top:
            add r0, r0, #1
            cmp r0, #100
            blt top
            halt
    )";
    CoreConfig cheap;
    cheap.takenBranchPenalty = 0;
    CoreConfig dear;
    dear.takenBranchPenalty = 3;
    TestRun a(loop, cheap);
    TestRun b(loop, dear);
    a.core.run();
    b.core.run();
    EXPECT_EQ(b.core.cycles() - a.core.cycles(), 99u * 3u);
}

TEST(CoreTiming, LoadUseInterlock)
{
    // Dependent consumer right after the load pays one extra cycle.
    const char *dependent = R"(
        .words arr 1 2 3 4
        main:
            mov r0, #0
            ldw r1, [arr + r0]
            add r2, r1, #1
            halt
    )";
    const char *independent = R"(
        .words arr 1 2 3 4
        main:
            mov r0, #0
            ldw r1, [arr + r0]
            add r2, r0, #1
            halt
    )";
    TestRun a(dependent);
    TestRun b(independent);
    a.core.run();
    b.core.run();
    EXPECT_EQ(a.core.cycles() - b.core.cycles(), 1u);
    EXPECT_EQ(a.core.stats().get("loadUseStalls"), 1u);
}

TEST(CoreTiming, VectorMemoryBusOccupancy)
{
    // A 16-lane word load moves 64 B over the SIMD memory bus and
    // touches two 32 B lines instead of an 8-lane load's one: the
    // extra beats plus one extra cold miss.
    auto cyclesAtWidth = [](unsigned width) {
        CoreConfig config;
        config.simdWidth = width;
        TestRun r(
      R"(
            .data buf 256
            main:
                mov r0, #0
                vldw v1, [buf + r0]
                halt
        )",
              config);
        r.core.run();
        return r.core.cycles();
    };
    const CoreConfig config{};
    const auto beats = [&](unsigned bytes) {
        return (bytes + config.busBytesPerCycle - 1) /
               config.busBytesPerCycle;
    };
    EXPECT_EQ(cyclesAtWidth(16) - cyclesAtWidth(8),
              beats(64) - beats(32) + config.missPenalty);
}

TEST(Core, WatchdogIsFatalOnRunaway)
{
    // A user program that never halts is a user error, not a simulator
    // bug.
    CoreConfig config;
    config.maxInsts = 100;
    TestRun r(
      R"(
        main:
        top:
            b top
    )",
          config);
    EXPECT_THROW(r.core.run(), FatalError);
}

// MainMemory backs [dataBase, size) eagerly and the region below
// dataBase only once it is written; both must behave as one flat,
// zero-initialised memory with the same bounds as before.

TEST(MainMemory, LowRegionReadsZeroUntilWritten)
{
    MainMemory mem(Program::dataBase + 256);
    EXPECT_EQ(mem.size(), Program::dataBase + 256);
    EXPECT_EQ(mem.readWord(0), 0u);
    EXPECT_EQ(mem.readByte(Program::codeBase), 0u);
    EXPECT_EQ(mem.readHalf(Program::dataBase - 2), 0u);
}

TEST(MainMemory, LowRegionWriteThenRead)
{
    MainMemory mem(Program::dataBase + 256);
    mem.writeWord(0x40, 0xDEADBEEFu);
    mem.writeHalf(0x80, 0xBEEF);
    mem.writeByte(0x90, 0xA5);
    EXPECT_EQ(mem.readWord(0x40), 0xDEADBEEFu);
    EXPECT_EQ(mem.readHalf(0x42), 0xDEADu);
    EXPECT_EQ(mem.readElem(0x80, 2, true), 0xFFFFBEEFu);
    EXPECT_EQ(mem.readByte(0x90), 0xA5u);
    EXPECT_EQ(mem.readWord(0x44), 0u);
    EXPECT_EQ(mem.readWord(Program::dataBase), 0u);
}

TEST(MainMemory, WordStraddlingDataBase)
{
    MainMemory mem(Program::dataBase + 256);
    mem.writeWord(Program::dataBase, 0x44332211u);
    mem.writeWord(Program::dataBase - 2, 0xBBAA0000u | 0x7766u);
    // Low half went below dataBase, high half into the eager region.
    EXPECT_EQ(mem.readHalf(Program::dataBase - 2), 0x7766u);
    EXPECT_EQ(mem.readWord(Program::dataBase - 2), 0xBBAA7766u);
    EXPECT_EQ(mem.readWord(Program::dataBase), 0x4433BBAAu);
    EXPECT_EQ(mem.readElem(Program::dataBase - 1, 2, false), 0xAA77u);
}

TEST(MainMemory, PastSizeIsStillFatal)
{
    MainMemory mem(Program::dataBase + 256);
    const Addr end = static_cast<Addr>(mem.size());
    EXPECT_NO_THROW(mem.readWord(end - 4));
    EXPECT_THROW(mem.readWord(end - 2), FatalError);
    EXPECT_THROW(mem.writeByte(end, 1), FatalError);
    EXPECT_THROW(mem.readByte(0xFFFFFFFFu), FatalError);
    EXPECT_THROW(mem.writeWord(0xFFFFFFFEu, 1), FatalError);
    try {
        mem.writeWord(end - 1, 7);
        FAIL() << "write past size() must be fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "memory access out of bounds: addr=0x1000ff size=4 "
                      "memsize=1048832"),
                  std::string::npos)
            << e.what();
    }
    // A faulting write writes nothing, not even its in-bounds bytes.
    EXPECT_EQ(mem.readByte(end - 1), 0u);
}

TEST(MainMemory, SmallMemoryHasNoLazyRegion)
{
    MainMemory mem(64);
    mem.writeWord(0, 0x01020304u);
    EXPECT_EQ(mem.readWord(0), 0x01020304u);
    EXPECT_THROW(mem.readWord(62), FatalError);
}

} // namespace
} // namespace liquid
