/**
 * @file
 * Liveness-dataflow tests: the conditional-write use rule, live-in /
 * live-out sets on hand-built CFG shapes (straight line, diamond,
 * nested loop), interprocedural callee summaries, dominators, and
 * irreducible-edge rejection.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "verifier/cfg.hh"
#include "verifier/liveness.hh"

namespace liquid
{
namespace
{

RegId
R(unsigned idx)
{
    return RegId(RegClass::Int, idx);
}

RegId
F(unsigned idx)
{
    return RegId(RegClass::Flt, idx);
}

RegSet
setOf(std::initializer_list<RegId> regs)
{
    RegSet s;
    for (const RegId r : regs)
        s.add(r);
    return s;
}

TEST(RegSetOps, BasicAlgebra)
{
    RegSet s = setOf({R(1), F(2)});
    EXPECT_TRUE(s.contains(R(1)));
    EXPECT_TRUE(s.contains(F(2)));
    EXPECT_FALSE(s.contains(R(2)));
    EXPECT_EQ(s.count(), 2u);
    EXPECT_FALSE(s.anyVector());

    s.add(RegId(RegClass::Vec, 3));
    EXPECT_TRUE(s.anyVector());
    EXPECT_EQ(s.ofClass(RegClass::Vec).count(), 1u);

    const RegSet scalarOnly = s.minus(s.ofClass(RegClass::Vec));
    EXPECT_EQ(scalarOnly, setOf({R(1), F(2)}));
    EXPECT_EQ(setOf({}).str(), "-");
    EXPECT_EQ(setOf({R(1)}).str(), "r1");
}

TEST(LiveUses, ConditionalWriteAlsoUsesItsDestination)
{
    // A conditional mov merges with the old value: dst is also a use.
    const InstEffects cmov =
        instEffects(Inst::movReg(R(1), R(2), Cond::EQ));
    EXPECT_EQ(liveUses(cmov), setOf({R(1), R(2)}));
    EXPECT_EQ(cmov.writes, setOf({R(1)}));

    // An unconditional write uses only what it reads.
    EXPECT_EQ(liveUses(instEffects(Inst::movReg(R(1), R(2)))),
              setOf({R(2)}));
    // A conditional branch writes nothing, so it uses nothing.
    EXPECT_TRUE(liveUses(instEffects(Inst::branch(Cond::LT, 0))).empty());
}

TEST(LivenessDataflow, StraightLine)
{
    const Program prog = assemble(R"(
        fn:
            mov r1, #5
            add r2, r1, r3
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    const Liveness lv = Liveness::run(prog, cfg);

    // r3 is read before any write: the region's only live-in.
    EXPECT_EQ(lv.entryLiveIn(), setOf({R(3)}));
    EXPECT_EQ(lv.mayDef(), setOf({R(1), R(2)}));
    // After the mov, r1 is live up to its use.
    EXPECT_TRUE(lv.liveAfter(0).contains(R(1)));
    EXPECT_FALSE(lv.liveAfter(1).contains(R(1)));
}

TEST(LivenessDataflow, ExitLiveFlowsBackFromRet)
{
    const Program prog = assemble(R"(
        fn:
            mov r1, #5
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    const Liveness lv =
        Liveness::run(prog, cfg, {}, setOf({R(1), R(9)}));

    // The caller's demand r1 is satisfied inside; r9 flows through.
    EXPECT_EQ(lv.entryLiveIn(), setOf({R(9)}));
    EXPECT_EQ(lv.liveAfter(0), setOf({R(1), R(9)}));
}

TEST(LivenessDataflow, Diamond)
{
    // Both arms define r2; the join reads it. Arm sources r3/r4 are
    // live-in only up to their arm.
    const Program prog = assemble(R"(
        fn:
            cmp r1, #0
            beq right
            mov r2, r3
            b join
        right:
            mov r2, r4
        join:
            add r5, r2, #1
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    const Liveness lv = Liveness::run(prog, cfg);

    EXPECT_EQ(lv.entryLiveIn(), setOf({R(1), R(3), R(4)}));
    // At the join, only r2 is needed.
    const int join = prog.labelIndex("join");
    EXPECT_EQ(lv.liveBefore(join), setOf({R(2)}));
    // In the left arm, r4 is dead, r3 live.
    EXPECT_TRUE(lv.liveBefore(2).contains(R(3)));
    EXPECT_FALSE(lv.liveBefore(2).contains(R(4)));
}

TEST(LivenessDataflow, NestedLoop)
{
    // The accumulator r2 is never initialized: live into the region
    // and around both loops. r1 is redefined per outer iteration.
    const Program prog = assemble(R"(
        fn:
            mov r0, #0
        outer:
            mov r1, #0
        inner:
            add r2, r2, r1
            add r1, r1, #1
            cmp r1, #4
            blt inner
            add r0, r0, #1
            cmp r0, #3
            blt outer
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    EXPECT_EQ(cfg.loops().size(), 2u);

    const Liveness lv = Liveness::run(prog, cfg);
    EXPECT_EQ(lv.entryLiveIn(), setOf({R(2)}));
    // Around the inner back edge both counters and the accumulator
    // stay live.
    const int inner = prog.labelIndex("inner");
    EXPECT_EQ(lv.liveBefore(inner), setOf({R(0), R(1), R(2)}));

    // Both loops are reducible, and each has its own isolated IV.
    const auto dom = blockDominators(cfg);
    for (const CfgLoop &loop : cfg.loops())
        EXPECT_TRUE(loopIsReducible(cfg, loop, dom));
}

TEST(LivenessDataflow, CalleeSummaryTransfer)
{
    const Program prog = assemble(R"(
        fn:
            mov r1, #5
            bl helper
            add r3, r2, #1
            ret
        helper:
            add r2, r1, #1
            ret
    )");
    const int helper = prog.labelIndex("helper");
    const RegionCfg helperCfg = RegionCfg::build(prog, helper);
    const Liveness helperLv = Liveness::run(prog, helperCfg);
    EXPECT_EQ(helperLv.entryLiveIn(), setOf({R(1)}));
    EXPECT_EQ(helperLv.mayDef(), setOf({R(2)}));

    std::map<int, FnSummary> callees;
    callees[helper] = helperLv.summary();

    const RegionCfg cfg = RegionCfg::build(prog, 0);
    const Liveness lv = Liveness::run(prog, cfg, callees);
    // The bl kills r2 (callee mayDef) and demands r1 (callee liveIn);
    // r1 is produced by the mov, so the region is self-contained.
    EXPECT_TRUE(lv.entryLiveIn().empty());
    EXPECT_EQ(lv.liveBefore(1), setOf({R(1)}));
    EXPECT_TRUE(lv.liveAfter(1).contains(R(2)));
    EXPECT_TRUE(lv.mayDef().contains(R(2)));
}

TEST(LivenessDataflow, IrreducibleEdgeRejected)
{
    // The beq enters the loop body around its head: the back edge's
    // target does not dominate its source.
    const Program prog = assemble(R"(
        fn:
            cmp r1, #0
            beq inside
        head:
            nop
        inside:
            add r2, r2, #1
            cmp r2, #10
            blt head
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    ASSERT_EQ(cfg.loops().size(), 1u);
    const auto dom = blockDominators(cfg);
    EXPECT_FALSE(loopIsReducible(cfg, cfg.loops()[0], dom));
}

TEST(LivenessDataflow, DominatorsOnDiamond)
{
    const Program prog = assemble(R"(
        fn:
            cmp r1, #0
            beq right
            nop
            b join
        right:
            nop
        join:
            ret
    )");
    const RegionCfg cfg = RegionCfg::build(prog, 0);
    ASSERT_EQ(cfg.blocks().size(), 4u);
    const auto dom = blockDominators(cfg);
    const int entry = cfg.blockOf(0);
    const int join = cfg.blockOf(prog.labelIndex("join"));
    const int left = cfg.blockOf(2);
    // The entry dominates everything; neither arm dominates the join.
    for (std::size_t b = 0; b < cfg.blocks().size(); ++b)
        EXPECT_TRUE(dom[b][static_cast<std::size_t>(entry)]);
    EXPECT_FALSE(dom[static_cast<std::size_t>(join)]
                    [static_cast<std::size_t>(left)]);
}

} // namespace
} // namespace liquid
