/**
 * @file
 * Scalarizer edge cases: table interning, register pressure, values
 * crossing multiple stages, store-fused permutations with several
 * consumers, permutations of cross-stage values, byte/halfword element
 * types, and constant-table periodicity.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "memory/main_memory.hh"
#include "scalarizer/scalarizer.hh"
#include "workloads/vir_interp.hh"

namespace liquid
{
namespace
{

using vir::Kernel;

Program
arraysProgram(unsigned n)
{
    Program prog;
    std::vector<Word> a(n + 16), b(n + 16);
    for (unsigned i = 0; i < a.size(); ++i) {
        a[i] = 3 * i + 1;
        b[i] = 1000 - i;
    }
    prog.allocWords("a", a);
    prog.allocWords("b", b);
    prog.allocData("c", (n + 16) * 4);
    prog.allocData("d", (n + 16) * 4);
    return prog;
}

/** Emit, run on a plain core, and compare against the interpreter. */
void
runAndCheck(Program &prog, const Kernel &kernel,
            std::initializer_list<const char *> outputs)
{
    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, kernel.name()));
    prog.addInst(Inst::halt());
    prog.resolveBranches();

    MainMemory mem = MainMemory::forProgram(prog);
    Core core(CoreConfig{}, prog, mem);
    core.run();

    MainMemory golden = MainMemory::forProgram(prog);
    interpretKernel(kernel, prog, golden);
    for (const char *name : outputs) {
        for (unsigned i = 0; i < kernel.tripCount(); ++i) {
            const Addr addr = prog.symbol(name) + 4 * i;
            ASSERT_EQ(mem.readWord(addr), golden.readWord(addr))
                << name << "[" << i << "]";
        }
    }
}

TEST(ScalarizerEdge, RoTablesInternedByContent)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    // Two identical permutations and two identical masks: one offset
    // table and one mask table must be shared.
    const int p1 = k.perm(va, PermKind::Reverse, 4);
    const int vb = k.load("b");
    const int p2 = k.perm(vb, PermKind::Reverse, 4);
    const int m1 = k.mask(p1, 0x5, 4);
    const int m2 = k.mask(p2, 0x5, 4);
    k.store("c", k.bin(Opcode::Add, m1, m2));

    emitKernel(prog, k, EmitOptions{});
    EXPECT_TRUE(prog.hasSymbol("k_ro0"));
    EXPECT_TRUE(prog.hasSymbol("k_ro1"));
    EXPECT_FALSE(prog.hasSymbol("k_ro2"))
        << "identical tables must be interned";

    runAndCheck(prog, k, {"c"});
}

TEST(ScalarizerEdge, RegisterPressureIsDiagnosed)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    // Build far more simultaneously-live values than the pool holds:
    // every load is kept alive until a final combining tree.
    std::vector<int> vals;
    for (int i = 0; i < 14; ++i)
        vals.push_back(k.load(i % 2 ? "a" : "b", 4, false, false, i % 3));
    int sum = vals[0];
    for (std::size_t i = 1; i < vals.size(); ++i)
        sum = k.bin(Opcode::Add, sum, vals[i]);
    // Keep all loads live to the end by also combining in reverse.
    int alt = vals.back();
    for (std::size_t i = vals.size() - 1; i-- > 0;)
        alt = k.bin(Opcode::Eor, alt, vals[i]);
    k.store("c", k.bin(Opcode::Orr, sum, alt));
    EXPECT_THROW(emitKernel(prog, k, EmitOptions{}), FatalError);
}

TEST(ScalarizerEdge, ValueCrossingTwoStageBoundaries)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    const int vb = k.load("b");
    const int base = k.bin(Opcode::Add, va, vb);  // used in stages 0,1,2
    const int p1 = k.perm(base, PermKind::SwapPairs, 2);
    const int s1 = k.bin(Opcode::Add, p1, base);        // stage 1
    const int p2 = k.perm(s1, PermKind::SwapHalves, 4);
    const int s2 = k.bin(Opcode::Sub, p2, base);        // stage 2
    k.store("c", s2);

    const EmitResult r = emitKernel(prog, k, EmitOptions{});
    EXPECT_EQ(r.numStages, 3u);
    runAndCheck(prog, k, {"c"});
}

TEST(ScalarizerEdge, StoreFusedPermWithTwoStoreConsumers)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    const int vb = k.load("b");
    const int sum = k.bin(Opcode::Add, va, vb);
    const int p = k.perm(sum, PermKind::RotUp, 4);
    k.store("c", p);
    k.store("d", p);  // both consumers are stores: still one stage

    const EmitResult r = emitKernel(prog, k, EmitOptions{});
    EXPECT_EQ(r.numStages, 1u);
    runAndCheck(prog, k, {"c", "d"});
}

TEST(ScalarizerEdge, StoreFusedPermStoredAfterASplit)
{
    // Reduced from a generated kernel: the permutation p is store-fused
    // (a store is its only consumer), but a later split permutation of
    // the same value ends the stage before that store runs. The store
    // realizes p by offset indexing, so it is p's operand, not p, that
    // must cross the stage boundary through a tmp.
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    const int vb = k.load("b");
    const int sum = k.bin(Opcode::Add, va, vb);
    const int p = k.perm(sum, PermKind::RotUp, 4);
    const int q = k.perm(sum, PermKind::Reverse, 4);  // split: a DP use
    k.store("d", k.bin(Opcode::Add, q, vb));
    k.store("c", p);

    const EmitResult r = emitKernel(prog, k, EmitOptions{});
    EXPECT_EQ(r.numStages, 2u);
    runAndCheck(prog, k, {"c", "d"});
}

TEST(ScalarizerEdge, PermutationOfCrossStageValue)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    const int vb = k.load("b");
    const int x = k.bin(Opcode::Add, va, vb);
    // First split: perm of a computed value with a non-store use.
    const int p1 = k.perm(x, PermKind::SwapHalves, 4);
    const int y = k.bin(Opcode::Eor, p1, vb);
    k.store("c", y);
    // x is now materialized in a tmp; a later permutation of x must
    // become an offset-indexed load of that tmp (no further split).
    const int p2 = k.perm(x, PermKind::Reverse, 4);
    k.store("d", k.bin(Opcode::Add, p2, p2));

    const EmitResult r = emitKernel(prog, k, EmitOptions{});
    EXPECT_EQ(r.numStages, 2u)
        << "perm of a materialized value fuses with its tmp load";
    runAndCheck(prog, k, {"c", "d"});
}

TEST(ScalarizerEdge, ByteElementsRoundTrip)
{
    Program prog;
    prog.allocData("bytes", 32 + 16);
    prog.allocData("outb", 32 + 16);
    for (unsigned i = 0; i < 32; ++i)
        prog.initByte(prog.symbol("bytes") + i,
                      static_cast<std::uint8_t>(200 + i));

    Kernel k("k", 32);
    const int v = k.load("bytes", 1, false, false);  // zero-extended
    const int shifted = k.binImm(Opcode::Lsr, v, 1);
    k.store("outb", shifted);

    prog.defineLabel("main");
    emitKernel(prog, k,
               EmitOptions{EmitOptions::Mode::InlineScalar, 8, true,
                           "k"});
    prog.addInst(Inst::halt());
    prog.resolveBranches();

    MainMemory mem = MainMemory::forProgram(prog);
    Core core(CoreConfig{}, prog, mem);
    core.run();
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(mem.readByte(prog.symbol("outb") + i),
                  (200 + i) / 2 & 0xFF);
    }
}

TEST(ScalarizerEdge, ConstTablePeriodicityExpanded)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int va = k.load("a");
    k.store("c", k.binConst(Opcode::Add, va, {7, 8, 9, 10}));
    emitKernel(prog, k, EmitOptions{});

    // The table repeats the 4-lane pattern out to the trip count.
    const Addr tab = prog.symbol("k_ro0");
    ASSERT_TRUE(prog.isReadOnly(tab));
    MainMemory mem = MainMemory::forProgram(prog);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readWord(tab + 4 * i), 7 + i % 4);

    runAndCheck(prog, k, {"c"});
}

TEST(ScalarizerEdge, AccumulatorsSurviveFission)
{
    Program prog = arraysProgram(16);
    Kernel k("k", 16);
    const int acc = k.newAcc("sum", Opcode::Add, 5);
    const int va = k.load("a");
    k.reduce(acc, va);                     // stage 0
    const int p = k.perm(va, PermKind::SwapPairs, 2);
    const int y = k.bin(Opcode::Add, p, va);
    k.reduce(acc, y);                      // same register, later stage
    k.store("c", y);

    const EmitResult r = emitKernel(prog, k, EmitOptions{});
    ASSERT_EQ(r.accRegs.size(), 1u);

    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, "k"));
    prog.addInst(Inst::halt());
    prog.resolveBranches();
    MainMemory mem = MainMemory::forProgram(prog);
    Core core(CoreConfig{}, prog, mem);
    core.run();

    MainMemory golden = MainMemory::forProgram(prog);
    const auto accs = interpretKernel(k, prog, golden);
    EXPECT_EQ(core.regs().read(r.accRegs[0]), accs[0]);
}

} // namespace
} // namespace liquid
