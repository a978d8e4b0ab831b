/** @file Assembler and Program tests. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/bitfield.hh"

namespace liquid
{
namespace
{

TEST(Assembler, BasicProgram)
{
    const Program prog = assemble(R"(
        .words arr 1 2 3 4
        main:
            mov r0, #0
            ldw r1, [arr + r0]
            add r1, r1, #5
            halt
    )");
    ASSERT_EQ(prog.code().size(), 4u);
    EXPECT_EQ(prog.labelIndex("main"), 0);
    EXPECT_EQ(prog.code()[0].op, Opcode::Mov);
    EXPECT_TRUE(prog.code()[0].hasImm);
    EXPECT_EQ(prog.code()[1].op, Opcode::Ldw);
    EXPECT_EQ(prog.code()[1].mem.base, prog.symbol("arr"));
    EXPECT_EQ(prog.code()[1].mem.index, RegId(RegClass::Int, 0));
    EXPECT_EQ(prog.code()[3].op, Opcode::Halt);
}

TEST(Assembler, ConditionSuffixes)
{
    const Program prog = assemble(R"(
        movgt r1, #255
        movlt r1, #-4
        cmp r1, #0
    )");
    EXPECT_EQ(prog.code()[0].cond, Cond::GT);
    EXPECT_EQ(prog.code()[1].cond, Cond::LT);
    EXPECT_EQ(prog.code()[1].imm, -4);
    EXPECT_EQ(prog.code()[2].op, Opcode::Cmp);
}

TEST(Assembler, BranchesResolve)
{
    const Program prog = assemble(R"(
        main:
            mov r0, #0
        top:
            add r0, r0, #1
            cmp r0, #8
            blt top
            b main
    )");
    EXPECT_EQ(prog.code()[3].op, Opcode::B);
    EXPECT_EQ(prog.code()[3].cond, Cond::LT);
    EXPECT_EQ(prog.code()[3].target, 1);
    EXPECT_EQ(prog.code()[4].target, 0);
}

TEST(Assembler, HintedCallAndRet)
{
    const Program prog = assemble(R"(
        fn:
            ret
        main:
            bl.simd fn
            bl fn
            halt
    )");
    EXPECT_TRUE(prog.code()[1].hinted);
    EXPECT_FALSE(prog.code()[2].hinted);
    EXPECT_EQ(prog.code()[1].target, 0);
}

// The analyses iterate hintedCalls() once per region with no
// deduplication of their own: one entry per distinct target, in
// ascending target order, carrying the last hinted call's width hint.
TEST(Program, HintedCallsAreOnePerTargetAscendingLastHintWins)
{
    const Program prog = assemble(R"(
        fa:
            ret
        fb:
            ret
        main:
            bl.simd8 fb
            bl.simd fa
            bl fa
            bl.simd4 fb
            halt
    )");
    const std::vector<HintedCall> calls = prog.hintedCalls();
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0].target, prog.labelIndex("fa"));
    EXPECT_EQ(calls[0].widthHint, 0u);
    EXPECT_EQ(calls[1].target, prog.labelIndex("fb"));
    EXPECT_EQ(calls[1].widthHint, 4u);
}

TEST(Assembler, StoreSyntaxMemoryFirst)
{
    const Program prog = assemble(R"(
        .data buf 64
        stw [buf + r2], f3
        sth [buf + r2 + #4], r1
    )");
    EXPECT_EQ(prog.code()[0].op, Opcode::Stw);
    EXPECT_EQ(prog.code()[0].src1, RegId(RegClass::Flt, 3));
    EXPECT_EQ(prog.code()[1].mem.disp, 4);
}

TEST(Assembler, VectorInstructions)
{
    const Program prog = assemble(R"(
        .data buf 256
        .cvec k 1 2 3 4
        vldw v1, [buf + r0]
        vperm.bfly8 vf0, vf1
        vmask vf3, vf3, #0xF0/8
        vadd v1, v2, cv:k
        vredmin r1, v2
        vstw [buf + r0], v1
    )");
    EXPECT_EQ(prog.code()[0].op, Opcode::Vldw);
    EXPECT_EQ(prog.code()[1].op, Opcode::Vperm);
    EXPECT_EQ(prog.code()[1].permKind, PermKind::SwapHalves);
    EXPECT_EQ(prog.code()[1].permBlock, 8);
    EXPECT_EQ(prog.code()[2].maskBits, 0xF0u);
    EXPECT_EQ(prog.code()[2].maskBlock, 8);
    EXPECT_EQ(prog.code()[3].cvec, 0u);
    EXPECT_EQ(prog.cvec(0).lanes,
              (std::vector<Word>{1, 2, 3, 4}));
    EXPECT_EQ(prog.code()[4].op, Opcode::Vredmin);
    EXPECT_EQ(prog.code()[4].src1, prog.code()[4].dst);
    EXPECT_EQ(prog.code()[5].op, Opcode::Vstw);
}

TEST(Assembler, DataDirectives)
{
    const Program prog = assemble(R"(
        .data zeroed 16 8
        .words init 10 -20 0x30
    )");
    EXPECT_TRUE(prog.hasSymbol("zeroed"));
    const Addr a = prog.symbol("init");
    const auto &img = prog.dataImage();
    const std::size_t off = a - Program::dataBase;
    EXPECT_EQ(img[off], 10);
    EXPECT_EQ(img[off + 4], 0xEC);  // -20 little-endian
    EXPECT_EQ(img[off + 8], 0x30);
}

TEST(Assembler, FloatsDirective)
{
    const Program prog = assemble(R"(
        .floats fa 1.5 -2.25 0.0
    )");
    const Addr a = prog.symbol("fa") - Program::dataBase;
    const auto &img = prog.dataImage();
    auto word = [&](std::size_t off) {
        return static_cast<Word>(img[a + off]) |
               (static_cast<Word>(img[a + off + 1]) << 8) |
               (static_cast<Word>(img[a + off + 2]) << 16) |
               (static_cast<Word>(img[a + off + 3]) << 24);
    };
    EXPECT_EQ(bitsToFloat(word(0)), 1.5f);
    EXPECT_EQ(bitsToFloat(word(4)), -2.25f);
    EXPECT_EQ(bitsToFloat(word(8)), 0.0f);
    EXPECT_THROW(assemble(".floats x 1.0e"), FatalError);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble(R"(
        ; full line comment
        mov r0, #1   ; trailing comment

        halt
    )");
    EXPECT_EQ(prog.code().size(), 2u);
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("bogus r0, r1"), FatalError);
    EXPECT_THROW(assemble("mov r99, #0"), FatalError);
    EXPECT_THROW(assemble("ldw r1, [nosuch + r0]"), FatalError);
    EXPECT_THROW(assemble("blt nowhere"), FatalError);
    EXPECT_THROW(assemble("mov r0"), FatalError);
    EXPECT_THROW(assemble(".data x"), FatalError);
    EXPECT_THROW(assemble("x: x: halt"), FatalError);
}

/** The message assembling @p src fails with; "" if it assembles. */
std::string
asmError(const std::string &src)
{
    try {
        assemble(src);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Assembler, WrongRegisterClassIsFatal)
{
    // Scalar and vector operands never mix: each shape fails assembly
    // with a message naming the line and the operand, not a panic when
    // the instruction runs.
    const struct
    {
        const char *line;
        const char *says;
    } cases[] = {
        // scalar destination
        {"add v1, r2, r3", "destination must be a scalar register"},
        {"movne v1, #1", "destination must be a scalar register"},
        {"ldw v3, [buf + r1]", "destination must be a scalar register"},
        // scalar source
        {"add r1, r2, v3", "source must be a scalar register"},
        {"movne r2, v1", "source must be a scalar register"},
        {"cmp r1, vf2", "source must be a scalar register"},
        {"stw [buf + r1], v2", "source must be a scalar register"},
        {"add r1, r2, cv:k", "source must be a scalar register"},
        // memory index
        {"ldw r1, [buf + v0]", "memory index must be a scalar register"},
        {"vstw [buf + vf1], v2", "memory index must be a scalar register"},
        // vector operand
        {"vadd v1, r2, v3", "source must be a vector register"},
        {"vadd r1, v2, v3", "destination must be a vector register"},
        {"vldw r1, [buf + r0]", "destination must be a vector register"},
        {"vstw [buf + r0], f1", "source must be a vector register"},
        {"vperm.bfly8 v1, r1", "source must be a vector register"},
        {"vmask r3, v3, #0xF0/8", "destination must be a vector register"},
        // the reduction's scalar operands, and its vector source
        {"vredadd v1, v2",
         "reduction accumulator must be a scalar register"},
        {"vredmin r1, r2", "reduction source must be a vector register"},
    };
    for (const auto &c : cases) {
        const std::string msg =
            asmError(std::string(".words buf 1 2 3 4\n.cvec k 1 2\n"
                                 "main:\n    ") +
                     c.line + "\n    halt\n");
        EXPECT_NE(msg.find(std::string("fatal: asm line 4: '") + c.line +
                           "': " + c.says),
                  std::string::npos)
            << c.line << " -> '" << msg << "'";
    }

    // Int and float classes mix freely.
    EXPECT_EQ(asmError(R"(
        .words buf 1 2 3 4
        add f1, r2, f3
        ldw f1, [buf + r0]
        vadd vf1, v2, vf3
        vldw vf2, [buf + r1]
        vredadd f1, vf2
        vperm.bfly8 v1, vf1
    )"),
              "");
}

TEST(Program, ListingRoundTripMentionsLabels)
{
    Program prog = assemble(R"(
        main:
            mov r0, #0
        loop:
            add r0, r0, #1
            cmp r0, #4
            blt loop
            halt
    )");
    const std::string listing = prog.listing();
    EXPECT_NE(listing.find("main:"), std::string::npos);
    EXPECT_NE(listing.find("loop:"), std::string::npos);
    EXPECT_NE(listing.find("blt"), std::string::npos);
}

TEST(Program, ReadOnlyRanges)
{
    Program prog;
    const Addr rw = prog.allocData("rw", 64);
    const Addr ro = prog.allocRoWords("ro", {1, 2, 3, 4});
    EXPECT_FALSE(prog.isReadOnly(rw));
    EXPECT_TRUE(prog.isReadOnly(ro));
    EXPECT_TRUE(prog.isReadOnly(ro + 15));
    EXPECT_FALSE(prog.isReadOnly(ro + 16));
}

TEST(Program, CvecInterning)
{
    Program prog;
    const auto a = prog.addCvec(ConstVec{{1, 2}});
    const auto b = prog.addCvec(ConstVec{{1, 2}});
    const auto c = prog.addCvec(ConstVec{{1, 3}});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

} // namespace
} // namespace liquid
