/**
 * @file
 * Fast-forward warmup tests: running the first N retires on the
 * functional tier and handing architectural state to the cycle core
 * must land on exactly the final state a pure cycle run reaches —
 * registers, compare flags, memory image, call-log shape, total
 * retires — while retire-keyed fault events split cleanly around the
 * checkpoint.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "asm/program.hh"
#include "chaos/fault_schedule.hh"
#include "cpu/core.hh"
#include "fast/warmup.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace liquid::fast
{
namespace
{

struct FinalState
{
    std::uint64_t retired = 0;
    int pc = 0;
    int cmp = 0;
    bool halted = false;
    std::vector<Word> dataImage;
    std::vector<Word> scalars;
    std::vector<std::pair<Addr, std::size_t>> callShape;
};

// Core::adoptArchState carries the checkpoint into instsRetired(), so
// the core's count is already the absolute retire position.
FinalState
capture(const System &sys)
{
    FinalState s;
    s.retired = sys.core().instsRetired();
    s.pc = sys.core().pc();
    s.cmp = sys.core().regs().cmpState();
    s.halted = sys.core().halted();
    for (Addr a = Program::dataBase; a + 4 <= sys.memory().size();
         a += 4) {
        s.dataImage.push_back(sys.memory().readWord(a));
    }
    for (unsigned i = 0; i < regsPerClass; ++i) {
        s.scalars.push_back(
            sys.core().regs().read(RegId(RegClass::Int, i)));
        s.scalars.push_back(
            sys.core().regs().read(RegId(RegClass::Flt, i)));
    }
    for (const auto &[target, stamps] : sys.core().callLog())
        s.callShape.emplace_back(target, stamps.size());
    return s;
}

void
expectSameFinalState(const FinalState &warm, const FinalState &pure,
                     const std::string &what)
{
    EXPECT_EQ(warm.retired, pure.retired) << what;
    EXPECT_EQ(warm.pc, pure.pc) << what;
    EXPECT_EQ(warm.cmp, pure.cmp) << what;
    EXPECT_EQ(warm.halted, pure.halted) << what;
    EXPECT_EQ(warm.scalars, pure.scalars) << what;
    EXPECT_EQ(warm.dataImage, pure.dataImage) << what;
    EXPECT_EQ(warm.callShape, pure.callShape) << what;
}

TEST(FastWarmup, HandoffMatchesPureCycleRun)
{
    for (const auto &[name, mode, emit, width] :
         {std::tuple{"fir", ExecMode::ScalarBaseline,
                     EmitOptions::Mode::Scalarized, 0u},
          std::tuple{"fir", ExecMode::NativeSimd,
                     EmitOptions::Mode::Native, 8u},
          std::tuple{"fft", ExecMode::NativeSimd,
                     EmitOptions::Mode::Native, 8u}}) {
        const auto wl = makeWorkload(name);
        const auto build = wl->build(emit, width ? width : 8);
        const SystemConfig config = SystemConfig::make(mode, width);

        System pure(config, build.prog);
        pure.run();
        const FinalState pureState = capture(pure);

        System warm(config, build.prog);
        const WarmupResult w = fastForward(warm, 1000);
        EXPECT_EQ(w.retired, 1000u) << name;
        EXPECT_FALSE(w.halted) << name;
        warm.run();
        const FinalState warmState = capture(warm);
        expectSameFinalState(warmState, pureState, name);

        // The whole point: cycle statistics cover the remainder only.
        EXPECT_LT(warm.cycles(), pure.cycles()) << name;
        EXPECT_EQ(warm.core().stats().get("insts") + w.retired,
                  pure.core().instsRetired())
            << name;
    }
}

TEST(FastWarmup, CheckpointPastHaltRunsEverythingFunctionally)
{
    const auto wl = makeWorkload("fir");
    const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
    const SystemConfig config =
        SystemConfig::make(ExecMode::ScalarBaseline, 0);

    System pure(config, build.prog);
    pure.run();
    const FinalState pureState = capture(pure);

    System warm(config, build.prog);
    const WarmupResult w =
        fastForward(warm, 1'000'000'000ull);
    EXPECT_TRUE(w.halted);
    EXPECT_EQ(w.retired, pureState.retired);
    warm.run();
    expectSameFinalState(capture(warm), pureState,
                         "past-halt");
    // The cycle core executed nothing itself.
    EXPECT_EQ(warm.core().stats().get("insts"), 0u);
}

TEST(FastWarmup, FaultEventsSplitAroundCheckpoint)
{
    const auto wl = makeWorkload("fir");
    const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
    SystemConfig config =
        SystemConfig::make(ExecMode::ScalarBaseline, 0);
    config.core.faults = FaultSchedule::parse("int@50+int@5000");

    System pure(config, build.prog);
    pure.run();
    const FinalState pureState = capture(pure);

    // int@50 fires during the functional prefix; int@5000 must fire
    // in the cycle core after the handoff.
    System warm(config, build.prog);
    const WarmupResult w = fastForward(warm, 1000);
    EXPECT_EQ(w.retired, 1000u);
    warm.run();
    expectSameFinalState(capture(warm), pureState,
                         "fault-split");
    EXPECT_EQ(warm.core().stats().get("faults.int"), 1u);
    EXPECT_EQ(pure.core().stats().get("faults.int"), 2u);
}

TEST(FastWarmup, PeriodicInterruptScheduleRejected)
{
    const auto wl = makeWorkload("fir");
    const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
    SystemConfig config =
        SystemConfig::make(ExecMode::ScalarBaseline, 0);
    config.core.faults = FaultSchedule::periodic(100);
    System sys(config, build.prog);
    EXPECT_THROW(fastForward(sys, 100), FatalError);
}

} // namespace
} // namespace liquid::fast
