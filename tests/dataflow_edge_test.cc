/**
 * @file
 * Edge-case coverage for the verifier's CFG reconstruction and the
 * dataflow walk built on it: instructions unreachable from the region
 * entry, single-block self-loop bodies (head == latch), and loops
 * whose back edge targets a block other than the region entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asm/assembler.hh"
#include "verifier/cfg.hh"
#include "verifier/dataflow.hh"
#include "verifier/depcheck.hh"
#include "verifier/verifier.hh"

namespace liquid
{
namespace
{

RegionCfg
regionFor(const Program &prog, const char *label = "fn")
{
    return RegionCfg::build(prog, prog.labelIndex(label));
}

TEST(DataflowEdge, UnreachableInstructionsStayOutsideTheRegion)
{
    // The movs after the ret are dead text: between the region's exit
    // and main, reachable from neither.
    const Program prog = assemble(R"(
        fn:
            mov r0, #1
            ret
            mov r0, #99
            mov r1, #98
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    const int dead = prog.labelIndex("fn") + 2;
    EXPECT_FALSE(cfg.contains(dead));
    EXPECT_EQ(cfg.blockOf(dead), -1);
    EXPECT_TRUE(cfg.contains(prog.labelIndex("fn")));
    EXPECT_FALSE(cfg.contains(prog.labelIndex("main")));
    for (const int i : cfg.instructions())
        EXPECT_NE(i, dead);

    // The skipped write is invisible to the walk: the region verifies
    // as a plain straight-line body.
    VerifyOptions opts;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
}

TEST(DataflowEdge, SelfLoopBodyHasHeadEqualLatch)
{
    // The whole loop is one block whose terminator branches to its own
    // first instruction: head and latch coincide.
    const Program prog = assemble(R"(
        .words sl_src 1 2 3 4 5 6 7 8
        .data sl_dst 32
        fn:
            mov r0, #0
        top:
            ldw r1, [sl_src + r0]
            stw [sl_dst + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    ASSERT_EQ(cfg.loops().size(), 1u);
    const CfgLoop &loop = cfg.loops()[0];
    EXPECT_EQ(loop.headBlock, loop.latchBlock);
    const BasicBlock &body = cfg.blocks()[loop.headBlock];
    EXPECT_EQ(body.last, loop.backedgeIndex);
    // The self-loop block is its own predecessor and successor.
    EXPECT_NE(std::find(body.succs.begin(), body.succs.end(),
                        loop.headBlock),
              body.succs.end());
    EXPECT_NE(std::find(body.preds.begin(), body.preds.end(),
                        loop.headBlock),
              body.preds.end());

    // Depcheck walks the same shape and still resolves every address.
    const DepcheckResult dep =
        analyzeDeps(prog, prog.labelIndex("fn"), cfg);
    EXPECT_TRUE(dep.analyzed);
    EXPECT_TRUE(dep.resolved);
    EXPECT_EQ(dep.loopsAnalyzed, 1u);
}

TEST(DataflowEdge, BackEdgeTargetNeedNotBeTheEntryBlock)
{
    // Entry block (mov/mov) falls into the loop head: the back edge
    // targets block 1, not block 0.
    const Program prog = assemble(R"(
        .words be_src 1 2 3 4 5 6 7 8
        .data be_dst 32
        fn:
            mov r0, #0
            mov r2, #0
        top:
            ldw r1, [be_src + r0]
            add r2, r2, r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            stw [be_dst], r2
            ret
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    ASSERT_EQ(cfg.loops().size(), 1u);
    const CfgLoop &loop = cfg.loops()[0];
    EXPECT_NE(loop.headBlock,
              cfg.blockOf(prog.labelIndex("fn")));
    EXPECT_EQ(cfg.blocks()[loop.headBlock].first,
              prog.labelIndex("top"));
    // The head has two predecessors: the entry block and the latch.
    EXPECT_EQ(cfg.blocks()[loop.headBlock].preds.size(), 2u);
}

TEST(DataflowEdge, MachineTracksConstantsThroughConditionalWrites)
{
    // Direct AbsMachine exercise: a decidable conditional write stays
    // Known, an undecidable one drops the destination to Top.
    const Program prog = assemble(R"(
        .words df_ro 7 8 9
        .data df_rw 12
        fn:
            mov r0, #5
            cmp r0, #3
            movgt r1, #11
            ldw r2, [df_rw]
            cmp r2, #0
            moveq r1, #22
            ret
        main:
            bl.simd fn
            halt
    )");
    AbsMachine m(prog);
    Taken taken = Taken::Unknown;
    const int base = prog.labelIndex("fn");
    for (int i = 0; i < 6; ++i)
        m.step(prog.code()[base + i], base + i, taken);

    // After movgt with flags from cmp #5,#3: r1 is Known(11). After
    // the cmp on the writable-memory load the flags are unknown, so
    // moveq forces r1 to Top.
    EXPECT_FALSE(m.flagsKnown());
    EXPECT_FALSE(m.reg(prog.code()[base + 2].dst).known);
}

TEST(DataflowEdge, ReadOnlyLoadClobberedByRegionStoreGoesTop)
{
    // A store through an unknown address poisons later constant-pool
    // loads: the machine must not keep quoting the initial image.
    const Program prog = assemble(R"(
        .rowords cp 41 42 43
        .data wild 16
        fn:
            ldw r1, [cp]
            stw [wild + r3], r1
            ldw r2, [cp + #1]
            ret
        main:
            bl.simd fn
            halt
    )");
    AbsMachine m(prog);
    Taken taken = Taken::Unknown;
    const int base = prog.labelIndex("fn");

    AbsRetire first = m.step(prog.code()[base], base, taken);
    EXPECT_TRUE(first.value.known);
    EXPECT_EQ(first.value.value, 41u);

    m.step(prog.code()[base + 1], base + 1, taken);  // unknown store
    AbsRetire second = m.step(prog.code()[base + 2], base + 2, taken);
    EXPECT_FALSE(second.value.known);
}

TEST(DataflowEdge, ReadOnlyLoadSeesExactlyTheStoredBytes)
{
    // Stores into the constant pool clobber exactly the bytes they
    // cover: touching stores merge, a load overlapping any stored
    // byte goes Top and one beside them keeps the initial image.
    const Program prog = assemble(R"(
        .rowords cp 10 11 12 13 14 15
        fn:
            mov r1, #0
            stb [cp + #1], r1
            sth [cp + #4], r1
            sth [cp + #5], r1
            stw [cp + #4], r1
            ldw r2, [cp]
            ldw r2, [cp + #1]
            ldw r2, [cp + #2]
            ldw r2, [cp + #3]
            ldb r2, [cp + #2]
            ldb r2, [cp + #1]
            sth [cp + #7], r1
            ldh r2, [cp + #6]
            ldh r2, [cp + #7]
            ldw r2, [cp + #5]
            ret
        main:
            bl.simd fn
            halt
    )");
    AbsMachine m(prog);
    Taken taken = Taken::Unknown;
    const int base = prog.labelIndex("fn");
    std::vector<AbsRetire> seen;
    for (int i = 0; i < 15; ++i)
        seen.push_back(m.step(prog.code()[base + i], base + i, taken));

    // Stored bytes: [1,2), [8,12) (two touching halves), [16,20).
    EXPECT_FALSE(seen[5].value.known);   // [0,4) holds byte 1
    EXPECT_TRUE(seen[6].value.known);    // [4,8)
    EXPECT_EQ(seen[6].value.value, 11u);
    EXPECT_FALSE(seen[7].value.known);   // [8,12)
    EXPECT_TRUE(seen[8].value.known);    // [12,16)
    EXPECT_EQ(seen[8].value.value, 13u);
    EXPECT_TRUE(seen[9].value.known);    // [2,3), beside byte 1
    EXPECT_FALSE(seen[10].value.known);  // [1,2)
    // [14,16) then joins [16,20); [12,14) stays untouched.
    EXPECT_TRUE(seen[12].value.known);   // [12,14)
    EXPECT_FALSE(seen[13].value.known);  // [14,16)
    EXPECT_TRUE(seen[14].value.known);   // [20,24)
    EXPECT_EQ(seen[14].value.value, 15u);
}

} // namespace
} // namespace liquid
