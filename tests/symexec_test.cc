/**
 * @file
 * Property and unit tests for the symbolic bitvector domain under the
 * translation-validation prover (verifier/symexec.hh).
 *
 * The load-bearing property: hash-consed normalization (polynomial
 * canonicalization, commutative sorting, constant folding, select and
 * extension rewrites) must preserve concrete semantics exactly. Every
 * random term is built twice in parallel — once through the pool's
 * normalizing constructors and once as a naive shadow evaluation using
 * the simulator's own evalScalarOp/evalCompare — and every node's
 * EvalTape value must agree with its shadow on 1000 random leaf
 * assignments.
 */

#include <array>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/random.hh"
#include "cpu/exec.hh"
#include "scalarizer/scalarizer.hh"
#include "verifier/symexec.hh"

using namespace liquid;
using namespace liquid::sym;

namespace
{

/** Shadow of TermPool::ext: keep the low bits, extend to 32. */
Word
extShadow(unsigned bits, bool is_signed, Word v)
{
    if (bits >= 32)
        return v;
    const Word mask = (1u << bits) - 1;
    Word low = v & mask;
    if (is_signed && ((low >> (bits - 1)) & 1u))
        low |= ~mask;
    return low;
}

} // namespace

TEST(TermPool, ConstantFolding)
{
    TermPool p;
    EXPECT_EQ(p.bin(Opcode::Mul, p.konst(6), p.konst(7), false),
              p.konst(42));
    EXPECT_EQ(p.bin(Opcode::Sub, p.konst(1), p.konst(3), false),
              p.konst(static_cast<Word>(-2)));
    EXPECT_EQ(p.ext(16, true, p.konst(0x8000)), p.konst(0xFFFF8000u));
    EXPECT_EQ(p.ext(8, false, p.konst(0x1FF)), p.konst(0xFF));
    EXPECT_EQ(p.cmp(p.konst(5), p.konst(3), false),
              p.konst(1));
}

TEST(TermPool, CommutativeOperandsIntern)
{
    TermPool p;
    const TermRef x = p.param("x");
    const TermRef y = p.param("y");
    for (const Opcode op : {Opcode::Add, Opcode::Mul, Opcode::And,
                            Opcode::Orr, Opcode::Eor, Opcode::Min,
                            Opcode::Max}) {
        EXPECT_EQ(p.bin(op, x, y, false), p.bin(op, y, x, false))
            << opName(op);
    }
}

TEST(TermPool, PolynomialNormalization)
{
    TermPool p;
    const TermRef x = p.param("x");
    const TermRef y = p.param("y");
    // (x + 1) + 2 == x + 3.
    EXPECT_EQ(p.bin(Opcode::Add,
                    p.bin(Opcode::Add, x, p.konst(1), false),
                    p.konst(2), false),
              p.bin(Opcode::Add, x, p.konst(3), false));
    // x - x == 0.
    EXPECT_EQ(p.bin(Opcode::Sub, x, x, false), p.konst(0));
    // x + (y - x) == y   (Rsb a b = b - a).
    EXPECT_EQ(p.bin(Opcode::Add, x, p.bin(Opcode::Rsb, x, y, false),
                    false),
              y);
    // x * 0 == 0.
    EXPECT_EQ(p.bin(Opcode::Mul, x, p.konst(0), false), p.konst(0));
}

TEST(TermPool, FloatIsNeverReassociated)
{
    TermPool p;
    const TermRef x = p.param("x");
    const TermRef y = p.param("y");
    const TermRef z = p.param("z");
    // Bit-exact float equivalence is structural: no commuting...
    EXPECT_NE(p.bin(Opcode::Add, x, y, true),
              p.bin(Opcode::Add, y, x, true));
    // ...and no reassociating.
    EXPECT_NE(p.bin(Opcode::Add, p.bin(Opcode::Add, x, y, true), z,
                    true),
              p.bin(Opcode::Add, x, p.bin(Opcode::Add, y, z, true),
                    true));
}

TEST(TermPool, CondHoldsSignTable)
{
    for (const int sign : {-1, 0, 1}) {
        EXPECT_TRUE(condHoldsSign(Cond::AL, sign));
        EXPECT_EQ(condHoldsSign(Cond::EQ, sign), sign == 0);
        EXPECT_EQ(condHoldsSign(Cond::NE, sign), sign != 0);
        EXPECT_EQ(condHoldsSign(Cond::LT, sign), sign < 0);
        EXPECT_EQ(condHoldsSign(Cond::LE, sign), sign <= 0);
        EXPECT_EQ(condHoldsSign(Cond::GT, sign), sign > 0);
        EXPECT_EQ(condHoldsSign(Cond::GE, sign), sign >= 0);
    }
}

TEST(TermPool, SelectFoldsOnConcreteSign)
{
    TermPool p;
    const TermRef a = p.param("a");
    const TermRef b = p.param("b");
    const TermRef gt = p.cmp(p.konst(5), p.konst(3), false);
    EXPECT_EQ(p.sel(Cond::GT, gt, a, b), a);
    EXPECT_EQ(p.sel(Cond::LT, gt, a, b), b);
    // Both branches identical: the select is the branch.
    const TermRef sym_sign = p.cmp(a, b, false);
    EXPECT_EQ(p.sel(Cond::GT, sym_sign, a, a), a);
}

TEST(TermPool, AffineDiffAndLaneIndexing)
{
    TermPool p;
    const TermRef mu = p.param("mu");      // IV value at lane 0
    const TermRef lane = p.param("lane");  // lane index
    const TermRef four = p.konst(4);
    // addr(l) = mu + 4*l, the canonical lane-indexed address shape.
    const TermRef addr0 =
        p.bin(Opcode::Add, mu, p.bin(Opcode::Mul, lane, four, false),
              false);
    const TermRef lane1 = p.bin(Opcode::Add, lane, p.konst(1), false);
    const TermRef addr1 =
        p.bin(Opcode::Add, mu, p.bin(Opcode::Mul, lane1, four, false),
              false);
    auto d = p.affineDiff(addr1, addr0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 4);
    EXPECT_EQ(p.affineDiff(addr0, addr0).value_or(-1), 0);
    // Unrelated symbols do not difference to a constant.
    EXPECT_FALSE(p.affineDiff(addr0, p.param("other")).has_value());

    // Substituting the lane re-normalizes: addr(2) folds into mu + 8.
    std::unordered_map<TermRef, TermRef> s{{lane, p.konst(2)}};
    EXPECT_EQ(p.substitute(addr0, s),
              p.bin(Opcode::Add, mu, p.konst(8), false));
}

TEST(TermPool, LoadIsALeafButSubstituteRebuildsItsAddress)
{
    TermPool p;
    const TermRef mu = p.param("mu");
    const TermRef ld =
        p.load(p.bin(Opcode::Add, mu, p.konst(8), false), 4, false);

    // leaves() reports the Load itself, not its address symbols.
    const auto ls = p.leaves(ld);
    ASSERT_EQ(ls.size(), 1u);
    EXPECT_EQ(ls[0], ld);

    // The tape treats the Load as a leaf slot: its address is not a
    // dependency (mu is not among the tape's leaves, and compiling the
    // address would need it), so nothing is left to run.
    EvalTape tape({ld}, ls);
    EXPECT_EQ(tape.opCount(), 0u);
    tape.setLeaf(0, 1234);
    tape.run();
    EXPECT_EQ(tape.root(0), 1234u);

    // substitute() does descend into the address (this is what lets
    // the symbolic-N prover instantiate lane 0 as nu -> mu).
    std::unordered_map<TermRef, TermRef> s{{mu, p.konst(0x1000)}};
    const TermRef ld2 = p.substitute(ld, s);
    ASSERT_EQ(ld2->kind, TermKind::Load);
    EXPECT_EQ(ld2->args[0], p.konst(0x1008));
}

TEST(TermPool, RandomTermsNormalizationPreservesSemantics)
{
    // 100 random terms x 10 random assignments = 1000 checks that the
    // normalized term evaluates exactly like its naive shadow.
    constexpr unsigned numTerms = 100;
    constexpr unsigned numEnvs = 10;
    Rng rng(0xC0FFEE);

    static const Opcode binops[] = {
        Opcode::Add, Opcode::Sub, Opcode::Rsb, Opcode::Mul,
        Opcode::And, Opcode::Orr, Opcode::Eor, Opcode::Bic,
        Opcode::Lsl, Opcode::Lsr, Opcode::Asr, Opcode::Min,
        Opcode::Max, Opcode::Qadd, Opcode::Qsub,
    };
    static const Cond conds[] = {Cond::EQ, Cond::NE, Cond::LT,
                                 Cond::LE, Cond::GT, Cond::GE};

    for (unsigned t = 0; t < numTerms; ++t) {
        TermPool p;
        struct Node
        {
            TermRef term;
            std::array<Word, numEnvs> shadow;
        };
        std::vector<Node> nodes;
        std::vector<TermRef> leaves;

        const unsigned numLeaves =
            static_cast<unsigned>(rng.range(3, 5));
        // Like the prover's odometer, each environment after the first
        // moves only a prefix of the leaves: moved[k] of them.
        std::array<unsigned, numEnvs> moved{};
        moved[0] = numLeaves;
        for (unsigned k = 1; k < numEnvs; ++k)
            moved[k] = static_cast<unsigned>(
                rng.range(1, static_cast<int>(numLeaves)));
        for (unsigned i = 0; i < numLeaves; ++i) {
            Node n;
            n.term = p.param("x" + std::to_string(i));
            for (unsigned k = 0; k < numEnvs; ++k) {
                // Mix small values (where rewrites like x*0, x-x and
                // saturation corners bite) with full-range words.
                const Word v =
                    rng.range(0, 1) ? static_cast<Word>(rng.range(-4, 4))
                                    : rng.next32();
                n.shadow[k] = i < moved[k] ? v : n.shadow[k - 1];
            }
            leaves.push_back(n.term);
            nodes.push_back(n);
        }
        {
            Node n;
            const Word c = static_cast<Word>(rng.range(-100, 100));
            n.term = p.konst(c);
            n.shadow.fill(c);
            nodes.push_back(n);
        }

        auto pick = [&]() -> const Node & {
            return nodes[static_cast<std::size_t>(
                rng.range(0, static_cast<int>(nodes.size()) - 1))];
        };

        const unsigned ops = static_cast<unsigned>(rng.range(6, 16));
        for (unsigned i = 0; i < ops; ++i) {
            Node n;
            switch (rng.range(0, 7)) {
              case 6: {  // extension
                const unsigned bits = rng.range(0, 1) ? 8 : 16;
                const bool sgn = rng.range(0, 1) != 0;
                const Node &a = pick();
                n.term = p.ext(bits, sgn, a.term);
                for (unsigned k = 0; k < numEnvs; ++k)
                    n.shadow[k] = extShadow(bits, sgn, a.shadow[k]);
                break;
              }
              case 7: {  // select on a symbolic compare
                const Node &a = pick();
                const Node &b = pick();
                const Node &tt = pick();
                const Node &ff = pick();
                const Cond cond = conds[rng.range(0, 5)];
                const TermRef sign = p.cmp(a.term, b.term, false);
                n.term = p.sel(cond, sign, tt.term, ff.term);
                for (unsigned k = 0; k < numEnvs; ++k) {
                    const int sv =
                        evalCompare(a.shadow[k], b.shadow[k], false);
                    n.shadow[k] = condHoldsSign(cond, sv) ? tt.shadow[k]
                                                          : ff.shadow[k];
                }
                break;
              }
              default: {  // integer data-processing op
                const Opcode op = binops[rng.range(0, 14)];
                const Node &a = pick();
                const Node &b = pick();
                n.term = p.bin(op, a.term, b.term, false);
                for (unsigned k = 0; k < numEnvs; ++k) {
                    n.shadow[k] = evalScalarOp(op, a.shadow[k],
                                               b.shadow[k], false);
                }
                break;
              }
            }
            nodes.push_back(n);
        }

        // Every node is a root, so the whole DAG goes through one tape.
        // Each run after the first sets only the moved leaves; the rest
        // must keep the values their slots already hold.
        std::vector<TermRef> roots;
        for (const Node &n : nodes)
            roots.push_back(n.term);
        EvalTape tape(roots, leaves);
        for (unsigned k = 0; k < numEnvs; ++k) {
            for (std::size_t i = 0; i < moved[k]; ++i)
                tape.setLeaf(i, nodes[i].shadow[k]);
            tape.run();
            for (std::size_t r = 0; r < nodes.size(); ++r) {
                ASSERT_EQ(tape.root(r), nodes[r].shadow[k])
                    << "term " << t << " node " << r << " env " << k
                    << ": " << p.str(nodes[r].term);
            }
        }
    }
}

TEST(EvalTape, DeepChainCompilesWithoutRecursion)
{
    // A 100k-deep chain of float adds (never reassociated, so the pool
    // keeps every node): compiling and running it must neither recurse
    // nor lose a node.
    constexpr unsigned depth = 100'000;
    TermPool p;
    const TermRef x = p.param("x");
    TermRef acc = x;
    for (unsigned i = 0; i < depth; ++i)
        acc = p.bin(Opcode::Add, acc, x, true);

    EvalTape tape({acc}, {x});
    EXPECT_EQ(tape.opCount(), depth);
    tape.setLeaf(0, floatToBits(1.0f));
    tape.run();
    // Every partial sum is an integer below 2^24, so each add is exact.
    EXPECT_EQ(tape.root(0), floatToBits(static_cast<float>(depth + 1)));
}

TEST(EvalTape, SharedSubtermIsOneOp)
{
    TermPool p;
    const TermRef x = p.param("x");
    const TermRef y = p.param("y");
    const TermRef shared = p.bin(Opcode::Eor, x, y, false);
    const TermRef lhs = p.bin(Opcode::Lsl, shared, p.konst(3), false);
    const TermRef rhs = p.bin(Opcode::Orr, shared, y, false);

    // Distinct non-leaf, non-constant nodes: shared, lhs, rhs.
    EvalTape tape({lhs, rhs}, {x, y});
    EXPECT_EQ(tape.opCount(), 3u);
    tape.setLeaf(0, 5);
    tape.setLeaf(1, 3);
    tape.run();
    EXPECT_EQ(tape.root(0), 48u);  // (5 ^ 3) << 3
    EXPECT_EQ(tape.root(1), 7u);   // (5 ^ 3) | 3
}

TEST(Perm, SourceLaneComposesWithItsInverse)
{
    for (const PermKind kind :
         {PermKind::SwapHalves, PermKind::SwapPairs, PermKind::Reverse,
          PermKind::RotUp, PermKind::RotDown}) {
        for (const unsigned block : {2u, 4u, 8u, 16u}) {
            const PermKind inv = permInverse(kind);
            for (unsigned l = 0; l < block; ++l) {
                // Applying kind then its inverse is the identity on
                // the lane mapping (the prover's permutation
                // obligations reduce to exactly this composition).
                EXPECT_EQ(permSourceLane(
                              kind, block,
                              permSourceLane(inv, block, l)),
                          l)
                    << "kind " << static_cast<int>(kind) << " block "
                    << block << " lane " << l;
            }
        }
    }
}

TEST(Perm, EvalPermInverseRoundTrips)
{
    for (const PermKind kind :
         {PermKind::SwapHalves, PermKind::SwapPairs, PermKind::Reverse,
          PermKind::RotUp, PermKind::RotDown}) {
        for (const unsigned block : {2u, 4u, 8u}) {
            VecValue v{};
            for (unsigned i = 0; i < 8; ++i)
                v[i] = i * 10 + 1;
            const VecValue once = evalPerm(v, kind, block, 8);
            const VecValue back =
                evalPerm(once, permInverse(kind), block, 8);
            for (unsigned i = 0; i < 8; ++i)
                EXPECT_EQ(back[i], v[i]);
        }
    }
}

TEST(SymMachine, ConcreteRegionBuildsTheExpectedStoreSet)
{
    // c[i] = a[i] + b[i] over 16 iterations: the concrete-mode machine
    // must produce one store cell per element whose value term is the
    // Add of the two initial-memory atoms.
    vir::Kernel k("sm_add", 16);
    k.store("sm_c", k.bin(Opcode::Add, k.load("sm_a"), k.load("sm_b")));

    Program prog;
    std::vector<Word> init(16 + 16);
    for (unsigned i = 0; i < init.size(); ++i)
        init[i] = i + 1;
    prog.allocWords("sm_a", init);
    prog.allocWords("sm_b", init);
    prog.allocData("sm_c", init.size() * 4);
    EmitOptions opts;
    opts.mode = EmitOptions::Mode::Scalarized;
    opts.nativeWidth = 8;
    emitKernel(prog, k, opts);
    prog.defineLabel("main");
    prog.addInst(Inst::call(-1, true, "sm_add", 8));
    prog.addInst(Inst::halt());
    prog.resolveBranches();

    ASSERT_EQ(prog.hintedCalls().size(), 1u);
    const int entry = prog.hintedCalls()[0].target;

    TermPool pool;
    SymMachine m(pool, prog, AddrMode::Concrete);
    m.initSharedEntry();
    const MachineResult res = m.runScalarRegion(entry, 1'000'000);
    ASSERT_TRUE(res.ok) << res.why;

    const Addr base_c = prog.symbol("sm_c");
    ASSERT_EQ(m.cells().size(), 16u);
    for (unsigned i = 0; i < 16; ++i) {
        const auto it = m.cells().find(base_c + 4 * i);
        ASSERT_NE(it, m.cells().end()) << "element " << i;
        const TermRef v = it->second.value;
        ASSERT_EQ(v->kind, TermKind::Bin);
        EXPECT_EQ(v->op, Opcode::Add);
        EXPECT_EQ(pool.leaves(v).size(), 2u);
    }
}
