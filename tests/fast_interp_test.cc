/**
 * @file
 * Functional-interpreter unit tests: dispatch-cache lifecycle (decode,
 * SMC/flush invalidation, re-decode correctness), retire-keyed fault
 * timing and the cycle-periodic rejection diagnostic, plus the lab
 * integration — tier-tagged job keys, matrix expansion rules, and the
 * results contract that functional runs carry NO cycle counts (absent,
 * never zero).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "asm/assembler.hh"
#include "chaos/fault_schedule.hh"
#include "common/logging.hh"
#include "fast/fast.hh"
#include "fast/tier.hh"
#include "lab/results.hh"
#include "lab/runner.hh"
#include "lab/spec.hh"
#include "workloads/workload.hh"

namespace liquid::fast
{
namespace
{

/** The suite's FIR workload, built in the requested mode. */
Workload::Build
firBuild(EmitOptions::Mode mode, unsigned width)
{
    return makeWorkload("fir")->build(mode, width);
}

/** Fresh interpreter over its own memory image. */
struct Rig
{
    Program prog;
    MainMemory mem;
    FastInterp interp;

    explicit Rig(const Workload::Build &build, FastConfig config = {})
        : prog(build.prog), mem(MainMemory::forProgram(prog)),
          interp(config, prog, mem)
    {
    }
};

TEST(FastDispatchCache, DecodeIsLazyAndPerBlock)
{
    const auto build = firBuild(EmitOptions::Mode::Scalarized, 8);
    Rig rig(build);
    EXPECT_EQ(rig.interp.blocksDecoded(), 0u);
    rig.interp.step();
    EXPECT_GT(rig.interp.blocksDecoded(), 0u);
    // The entry block is live; far-away code is still cold.
    EXPECT_TRUE(rig.interp.isDecoded(rig.interp.pc()));
    const int last = static_cast<int>(rig.prog.code().size()) - 1;
    const std::uint64_t decodedEarly = rig.interp.blocksDecoded();
    rig.interp.run();
    EXPECT_TRUE(rig.interp.halted());
    EXPECT_GE(rig.interp.blocksDecoded(), decodedEarly);
    (void)last;
}

TEST(FastDispatchCache, SmcInvalidationDropsCoveringBlockOnly)
{
    const auto build = firBuild(EmitOptions::Mode::Scalarized, 8);
    Rig rig(build);
    // Execute some instructions so the entry block is decoded.
    for (int i = 0; i < 8 && !rig.interp.halted(); ++i)
        rig.interp.step();
    ASSERT_TRUE(rig.interp.isDecoded(0));
    const std::uint64_t before = rig.interp.decodeInvalidations();

    // A store into instruction 0's address must drop its block.
    rig.interp.invalidateCodeRange(Program::instAddr(0),
                                   Program::instAddr(0) + 4);
    EXPECT_FALSE(rig.interp.isDecoded(0));
    EXPECT_EQ(rig.interp.decodeInvalidations(), before + 1);

    // Re-decode on demand and finish; the result must match a clean
    // uninterrupted run exactly.
    rig.interp.run();
    Rig clean(build);
    clean.interp.run();
    EXPECT_EQ(rig.interp.retired(), clean.interp.retired());
    EXPECT_EQ(rig.interp.scalars(), clean.interp.scalars());
    EXPECT_EQ(rig.interp.cmpState(), clean.interp.cmpState());
}

TEST(FastDispatchCache, FlushDropsEverything)
{
    const auto build = firBuild(EmitOptions::Mode::Native, 8);
    FastConfig config;
    config.simdWidth = 8;
    Rig rig(build, config);
    for (int i = 0; i < 8 && !rig.interp.halted(); ++i)
        rig.interp.step();
    ASSERT_GT(rig.interp.blocksDecoded(), 0u);
    rig.interp.flushDecodeCache();
    EXPECT_EQ(rig.interp.decodeFlushes(), 1u);
    for (std::size_t i = 0; i < rig.prog.code().size(); ++i)
        EXPECT_FALSE(rig.interp.isDecoded(static_cast<int>(i)));
    rig.interp.run();
    Rig clean(build, config);
    clean.interp.run();
    EXPECT_EQ(rig.interp.retired(), clean.interp.retired());
    EXPECT_EQ(rig.interp.scalars(), clean.interp.scalars());
}

TEST(FastDispatchCache, SmcFaultEventInvalidatesDuringRun)
{
    const auto build = firBuild(EmitOptions::Mode::Scalarized, 8);
    FastConfig config;
    config.faults = FaultSchedule::parse("smc@40");
    Rig rig(build, config);
    rig.interp.run();
    EXPECT_GE(rig.interp.decodeInvalidations(), 1u);
    // Invalidation machinery ran; architectural results unchanged.
    Rig clean(build);
    clean.interp.run();
    EXPECT_EQ(rig.interp.retired(), clean.interp.retired());
    EXPECT_EQ(rig.interp.scalars(), clean.interp.scalars());
}

TEST(FastFaults, CyclePeriodicInterruptRejectedAtConstruction)
{
    const auto build = firBuild(EmitOptions::Mode::Scalarized, 8);
    FastConfig config;
    config.faults = FaultSchedule::periodic(100);
    MainMemory mem = MainMemory::forProgram(build.prog);
    EXPECT_THROW(FastInterp(config, build.prog, mem), FatalError);
}

TEST(FastFaults, RetireKeyedEventsFireAtExactRetireCounts)
{
    const auto build = firBuild(EmitOptions::Mode::Scalarized, 8);
    FastConfig config;
    config.faults = FaultSchedule::parse("int@5");
    Rig rig(build, config);

    // Events with atRetire == target do NOT fire inside runUntil —
    // they belong to the step retiring target+1 (the warmup-handoff
    // contract: the cycle core fires them after adoption).
    rig.interp.runUntil(5);
    EXPECT_EQ(rig.interp.retired(), 5u);
    EXPECT_EQ(rig.interp.nextFaultIndex(), 0u);

    rig.interp.step();
    EXPECT_EQ(rig.interp.nextFaultIndex(), 1u);
    rig.interp.run();
    EXPECT_EQ(rig.interp.stats().get("faults.int"), 1u);
}

TEST(FastFaults, WatchdogIsFatalOnRunaway)
{
    // Functional twin of Core.WatchdogIsFatalOnRunaway: both run loops
    // report a program that never halts as a user error.
    const Program prog = assemble(R"(
        main:
        top:
            b top
    )");
    FastConfig config;
    config.maxInsts = 100;
    MainMemory mem = MainMemory::forProgram(prog);
    FastInterp run(config, prog, mem);
    EXPECT_THROW(run.run(), FatalError);

    MainMemory step_mem = MainMemory::forProgram(prog);
    FastInterp stepper(config, prog, step_mem);
    EXPECT_THROW(
        {
            while (stepper.step()) {
            }
        },
        FatalError);
    EXPECT_EQ(stepper.retired(), 100u);
}

TEST(FastDispatch, StepsEndWhereOneRunEnds)
{
    // step() is runUntil(retired() + 1): the lockstep harness drives the
    // same loop run() does, so N steps and one run leave the same state,
    // dispatch cache included.
    for (const auto mode :
         {EmitOptions::Mode::Scalarized, EmitOptions::Mode::Native}) {
        const auto build = firBuild(mode, 8);
        FastConfig config;
        config.simdWidth = mode == EmitOptions::Mode::Native ? 8 : 0;
        Rig stepped(build, config);
        std::uint64_t steps = 0;
        while (stepped.interp.step())
            ++steps;
        Rig ran(build, config);
        ran.interp.run();

        EXPECT_EQ(steps + 1, ran.interp.retired());
        EXPECT_EQ(stepped.interp.retired(), ran.interp.retired());
        EXPECT_EQ(stepped.interp.pc(), ran.interp.pc());
        EXPECT_EQ(stepped.interp.cmpState(), ran.interp.cmpState());
        EXPECT_EQ(stepped.interp.scalars(), ran.interp.scalars());
        EXPECT_EQ(stepped.interp.vectors(), ran.interp.vectors());
        EXPECT_EQ(stepped.interp.blocksDecoded(), ran.interp.blocksDecoded());
        EXPECT_EQ(stepped.interp.stats().get("decodedInsts"),
                  ran.interp.stats().get("decodedInsts"));
        ASSERT_EQ(stepped.mem.size(), ran.mem.size());
        unsigned differing = 0;
        for (Addr a = Program::dataBase; a + 4 <= ran.mem.size(); a += 4)
            differing += stepped.mem.readWord(a) != ran.mem.readWord(a);
        EXPECT_EQ(differing, 0u);
    }
}

/** The FatalError text @p src throws on run() and on step(). */
std::array<std::string, 2>
runErrors(const std::string &src)
{
    const Program prog = assemble(src);
    std::array<std::string, 2> errors;
    for (std::size_t stepping = 0; stepping < 2; ++stepping) {
        MainMemory mem = MainMemory::forProgram(prog);
        FastInterp interp(FastConfig{}, prog, mem);
        try {
            if (stepping) {
                while (interp.step()) {
                }
            } else {
                interp.run();
            }
        } catch (const FatalError &e) {
            errors[stepping] = e.what();
        }
    }
    return errors;
}

TEST(FastUserErrors, TopLevelRetIsFatal)
{
    // The cycle core's text (core_test's Core.TopLevelRetIsFatal).
    const std::string text =
        "fatal: ret at pc 0 with an empty call stack: a top-level ret has "
        "no caller to return to (end the program with halt)";
    EXPECT_EQ(runErrors("main:\n  ret\n"),
              (std::array<std::string, 2>{text, text}));
}

TEST(FastUserErrors, RunningOffTheTextIsFatal)
{
    const std::string text =
        "fatal: pc 1 is outside the program text of 1 instruction(s): the "
        "program ran off its end without a halt";
    EXPECT_EQ(runErrors("main:\n  nop\n"),
              (std::array<std::string, 2>{text, text}));
}

TEST(FastLabTier, FunctionalTagsTheJobKey)
{
    lab::Job job;
    job.experiment = "fast";
    job.workload = "fir";
    job.mode = ExecMode::NativeSimd;
    job.width = 8;
    job.tier = ExecTier::Functional;
    EXPECT_EQ(job.key(), "fast/fir/native/w8/fun");
    // The cycle tier stays untagged so pre-tier keys and committed
    // baselines remain valid.
    job.tier = ExecTier::Cycle;
    EXPECT_EQ(job.key(), "fast/fir/native/w8");
}

TEST(FastLabTier, ExpansionSkipsFunctionalLiquidPairs)
{
    lab::ExperimentSpec spec;
    spec.name = "tiertest";
    spec.workloads = {"fir"};
    spec.modes = {ExecMode::ScalarBaseline, ExecMode::Liquid};
    spec.widths = {8};
    spec.repsList = {2};
    spec.tiers = {ExecTier::Cycle, ExecTier::Functional};
    const auto jobs = spec.expand();
    unsigned functional = 0;
    for (const auto &job : jobs) {
        if (job.tier == ExecTier::Functional) {
            ++functional;
            // No translator on the functional tier.
            EXPECT_NE(job.mode, ExecMode::Liquid) << job.key();
        }
    }
    EXPECT_GT(functional, 0u);
}

TEST(FastLabTier, FunctionalResultsOmitCyclesAndRoundTrip)
{
    lab::ExperimentSpec spec;
    spec.name = "tiertest";
    spec.workloads = {"fir"};
    spec.modes = {ExecMode::ScalarBaseline};
    spec.widths = {8};
    spec.repsList = {2};
    spec.tiers = {ExecTier::Functional};

    lab::Runner runner(1);
    lab::ResultSet results = runner.run(spec.expand());
    ASSERT_EQ(results.size(), 1u);
    const lab::JobResult &jr = results.results().front();
    EXPECT_FALSE(jr.outcome.hasCycles);
    EXPECT_GT(jr.outcome.counters.at("fast.insts"), 0u);

    // Asking a functional result for cycles is a caller bug, not a
    // zero.
    EXPECT_THROW(results.cycles(jr.job.key()), FatalError);

    // Byte-identical JSON round trip, tier tag included.
    const std::string first = results.writeString();
    lab::ResultSet back =
        lab::ResultSet::fromJson(json::parse(first));
    EXPECT_EQ(back.writeString(), first);
    EXPECT_EQ(back.results().front().job.tier, ExecTier::Functional);

    // A functional record claiming a cycle count is corrupt.
    json::Value v = jr.toJson();
    v.set("cycles", 123);
    EXPECT_THROW(lab::JobResult::fromJson(v), FatalError);
}

} // namespace
} // namespace liquid::fast
