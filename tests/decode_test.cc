/**
 * @file
 * The shared decoder's instruction-effects table (instEffects,
 * cpu/decode.hh): the registers each instruction family reads and
 * writes, its control class, and a seeded check of the write set
 * against the functional tier's executable semantics.
 */

#include <gtest/gtest.h>

#include <utility>
#include <string>

#include "common/random.hh"
#include "cpu/decode.hh"
#include "cpu/regfile.hh"
#include "fast/fast.hh"
#include "memory/main_memory.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

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
V(unsigned idx)
{
    return RegId(RegClass::Vec, idx);
}

RegSet
setOf(std::initializer_list<RegId> regs)
{
    RegSet s;
    for (const RegId r : regs)
        s.add(r);
    return s;
}

TEST(InstEffectsTable, ReadsAndWrites)
{
    // add r1, r2, r3: reads r2 r3, writes r1.
    const InstEffects add =
        instEffects(Inst::dp(Opcode::Add, R(1), R(2), R(3)));
    EXPECT_EQ(add.reads, setOf({R(2), R(3)}));
    EXPECT_EQ(add.writes, setOf({R(1)}));

    // cmp writes only flags.
    const InstEffects cmp = instEffects(Inst::cmpReg(R(1), R(2)));
    EXPECT_EQ(cmp.reads, setOf({R(1), R(2)}));
    EXPECT_TRUE(cmp.writes.empty());
    EXPECT_EQ(instEffects(Inst::cmpImm(R(4), 7)).reads, setOf({R(4)}));

    // mov r1, #5 has no register inputs.
    const InstEffects movi = instEffects(Inst::movImm(R(1), 5));
    EXPECT_TRUE(movi.reads.empty());
    EXPECT_EQ(movi.writes, setOf({R(1)}));

    // The sets are raw: a conditional mov reads only its source.
    const InstEffects cmov =
        instEffects(Inst::movReg(R(1), R(2), Cond::EQ));
    EXPECT_EQ(cmov.reads, setOf({R(2)}));
    EXPECT_EQ(cmov.writes, setOf({R(1)}));
    EXPECT_EQ(cmov.cond, Cond::EQ);

    // Stores read data and index; loads read the index, write dst.
    MemRef m;
    m.base = 0x100000;
    m.index = R(0);
    const InstEffects st =
        instEffects(Inst::store(Opcode::Stw, R(3), m));
    EXPECT_EQ(st.reads, setOf({R(3), R(0)}));
    EXPECT_TRUE(st.writes.empty());
    const InstEffects ld = instEffects(Inst::load(Opcode::Ldw, R(3), m));
    EXPECT_EQ(ld.reads, setOf({R(0)}));
    EXPECT_EQ(ld.writes, setOf({R(3)}));

    // Vector ops: a reduction reads its scalar accumulator too.
    const InstEffects red =
        instEffects(Inst::vred(Opcode::Vredadd, R(5), V(2)));
    EXPECT_EQ(red.reads, setOf({R(5), V(2)}));
    EXPECT_EQ(red.writes, setOf({R(5)}));
    const InstEffects perm =
        instEffects(Inst::vperm(V(1), V(2), PermKind::SwapHalves, 8));
    EXPECT_EQ(perm.reads, setOf({V(2)}));
    EXPECT_EQ(perm.writes, setOf({V(1)}));
    const InstEffects vst =
        instEffects(Inst::store(Opcode::Vstw, V(3), m));
    EXPECT_EQ(vst.reads, setOf({V(3), R(0)}));
    EXPECT_TRUE(vst.writes.empty());

    // Control transfers have no register effects (calls are
    // summarized by whoever follows them).
    for (const Inst &inst : {Inst::ret(), Inst::branch(Cond::LT, 0),
                             Inst::call(0, false), Inst::halt(),
                             Inst::nop()}) {
        const InstEffects fx = instEffects(inst);
        EXPECT_TRUE(fx.reads.empty()) << inst.toString();
        EXPECT_TRUE(fx.writes.empty()) << inst.toString();
    }
}

TEST(InstEffectsTable, ControlClassPerFamily)
{
    struct Case
    {
        Inst inst;
        Control control;
        bool condBranch;
        bool fallsThrough;
        bool exitsFn;
    };
    const Case cases[] = {
        {Inst::branch(Cond::AL, 3), Control::Branch, false, false, false},
        {Inst::branch(Cond::NE, 3), Control::Branch, true, true, false},
        {Inst::call(3, true), Control::Call, false, true, false},
        {Inst::ret(), Control::Return, false, false, true},
        {Inst::halt(), Control::Halt, false, false, true},
        {Inst::nop(), Control::Next, false, true, false},
        {Inst::dp(Opcode::Add, R(1), R(2), R(3)), Control::Next, false,
         true, false},
        // A conditional write is not a branch: it still falls through.
        {Inst::movImm(R(1), 2, Cond::GT), Control::Next, false, true,
         false},
    };
    for (const Case &c : cases) {
        const InstEffects fx = instEffects(c.inst);
        const std::string what = c.inst.toString();
        EXPECT_EQ(fx.control, c.control) << what;
        EXPECT_EQ(fx.condBranch(), c.condBranch) << what;
        EXPECT_EQ(fx.fallsThrough(), c.fallsThrough) << what;
        EXPECT_EQ(fx.exitsFn(), c.exitsFn) << what;
    }
    EXPECT_EQ(instEffects(Inst::branch(Cond::LE, 0)).cond, Cond::LE);
}

/**
 * Run @p prog on the functional tier one retire at a time, and check
 * that every register whose value a retire changed is in that
 * instruction's write set. Returns the number of retires checked.
 */
std::uint64_t
checkWritesCoverChanges(const Program &prog, unsigned width,
                        const std::string &name)
{
    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastConfig config;
    config.simdWidth = width;
    fast::FastInterp interp(config, prog, mem);
    RegFile before;
    RegFile after;
    interp.exportRegs(before);
    std::uint64_t checked = 0;
    while (!interp.halted()) {
        const int pc = interp.pc();
        interp.step();
        interp.exportRegs(after);
        const Inst &inst = prog.code()[static_cast<std::size_t>(pc)];
        const RegSet writes = instEffects(inst).writes;
        for (unsigned flat = 0; flat < 64; ++flat) {
            const RegId reg = RegId::fromFlat(flat);
            const bool changed =
                reg.isScalar() ? before.read(reg) != after.read(reg)
                               : before.readVec(reg) != after.readVec(reg);
            if (changed && !writes.contains(reg)) {
                ADD_FAILURE() << name << ": inst " << pc << " `"
                              << inst.toString() << "` changed "
                              << regName(reg) << ", not in its writes "
                              << writes.str();
                return checked;
            }
        }
        std::swap(before, after);
        ++checked;
    }
    return checked;
}

/**
 * The write set against the executable semantics: the suite and a
 * seeded draw of corpus kernels, scalarized and native at width 8.
 */
TEST(InstEffectsTable, WritesCoverEveryRegisterARetireChanges)
{
    std::uint64_t retires = 0;
    for (const auto &wl : makeSuite()) {
        for (const auto mode :
             {EmitOptions::Mode::Scalarized, EmitOptions::Mode::Native}) {
            const auto build = wl->build(mode, 8);
            retires += checkWritesCoverChanges(build.prog, 8, wl->name());
        }
    }

    KernelCorpus corpus(29);
    unsigned kernels = 0;
    for (unsigned i = 0; i < 40; ++i) {
        const GeneratedKernel &g = corpus.next();
        for (const auto mode :
             {EmitOptions::Mode::Scalarized, EmitOptions::Mode::Native}) {
            Rng data(0x5eed0000u + i);
            const auto prog = corpus.build(data, mode, 8);
            if (!prog)
                continue;
            ++kernels;
            retires += checkWritesCoverChanges(*prog, 8, g.kernel.name());
        }
    }
    EXPECT_GE(kernels, 60u) << corpus.skipSummary();
    EXPECT_GT(retires, 0u);
}

} // namespace
} // namespace liquid
