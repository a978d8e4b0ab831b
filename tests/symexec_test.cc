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
 *
 * The SymexecProperty cases run as their own ctest entry
 * (symexec_property_test, labels proof and fuzz):
 *   LIQUID_PROOF_TRIALS  trials per case (default 10)
 *   LIQUID_PROOF_SEED    base RNG seed (default 1)
 */

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/random.hh"
#include "cpu/exec.hh"
#include "scalarizer/scalarizer.hh"
#include "test_env.hh"
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

// ---------------------------------------------------------------------------
// Seeded property cases (ctest: symexec_property_test).
// ---------------------------------------------------------------------------

namespace
{

/** One monomial of a random polynomial: coeff * factors[0] * ... */
struct RandMono
{
    Word coeff = 1;
    std::vector<unsigned> factors;  ///< indices into the symbols
};

/** A random integer polynomial over @p syms symbols. */
std::vector<RandMono>
randomPolynomial(Rng &rng, unsigned syms)
{
    std::vector<RandMono> poly(static_cast<std::size_t>(rng.range(1, 6)));
    for (RandMono &m : poly) {
        // Small coefficients (where terms cancel) and full words.
        m.coeff = rng.range(0, 1) ? static_cast<Word>(rng.range(-3, 3))
                                  : rng.next32();
        const auto degree = rng.range(0, 2);
        for (std::int64_t d = 0; d < degree; ++d)
            m.factors.push_back(
                static_cast<unsigned>(rng.range(0, syms - 1)));
    }
    return poly;
}

/** Direct evaluation of @p poly at @p point, in Z/2^32. */
Word
evalPolynomial(const std::vector<RandMono> &poly,
               const std::vector<Word> &point)
{
    Word sum = 0;
    for (const RandMono &m : poly) {
        Word prod = m.coeff;
        for (const unsigned f : m.factors)
            prod *= point[f];
        sum += prod;
    }
    return sum;
}

/** The monomial as a term, its factors multiplied in the given order. */
TermRef
monoTerm(TermPool &p, const std::vector<TermRef> &syms, const RandMono &m,
         bool coeff_first)
{
    TermRef t = coeff_first ? p.konst(m.coeff) : nullptr;
    for (const unsigned f : m.factors)
        t = t ? p.bin(Opcode::Mul, t, syms[f], false) : syms[f];
    if (!coeff_first)
        t = t ? p.bin(Opcode::Mul, t, p.konst(m.coeff), false)
              : p.konst(m.coeff);
    return t;
}

} // namespace

TEST(SymexecProperty, ReassociatedPolynomialsInternEqualAndEvaluate)
{
    // Each case draws random polynomials P and Q and builds P, or the
    // product P * Q, twice: once as left folds of the monomials, once
    // in a shuffled order over a random tree, with factors reversed,
    // some sums written as Sub or Rsb of a negated part, the product
    // distributed over P's monomials, and a random monomial added and
    // taken away again. Both builds must intern to the same term, and
    // the term must evaluate like the polynomial.
    const unsigned trials = envNumber("LIQUID_PROOF_TRIALS", 10u);
    const unsigned seed = envNumber("LIQUID_PROOF_SEED", 1u);
    constexpr unsigned perTrial = 20;
    for (unsigned t = 0; t < trials; ++t) {
        Rng rng(seed + 1000ull * t + 11);
        for (unsigned k = 0; k < perTrial; ++k) {
            TermPool p;
            const unsigned numSyms = static_cast<unsigned>(rng.range(1, 4));
            std::vector<TermRef> syms;
            for (unsigned i = 0; i < numSyms; ++i)
                syms.push_back(p.param("x" + std::to_string(i)));
            const std::vector<RandMono> polyP =
                randomPolynomial(rng, numSyms);
            // Half the time Q is P with some coefficients negated, so
            // that P * Q has terms that cancel.
            std::vector<RandMono> polyQ = polyP;
            if (rng.range(0, 1)) {
                polyQ = randomPolynomial(rng, numSyms);
            } else {
                for (RandMono &m : polyQ)
                    m.coeff = rng.range(0, 1) ? m.coeff : 0 - m.coeff;
            }
            const bool product = rng.range(0, 1) != 0;

            auto fold = [&](const std::vector<RandMono> &poly) {
                TermRef sum = nullptr;
                for (const RandMono &m : poly) {
                    const TermRef mt = monoTerm(p, syms, m, true);
                    sum = sum ? p.bin(Opcode::Add, sum, mt, false) : mt;
                }
                return sum;
            };
            // Sum @p parts in a random order over a random tree.
            auto shuffledSum = [&](std::vector<TermRef> parts) {
                for (std::size_t i = parts.size(); i > 1; --i) {
                    std::swap(parts[i - 1], parts[static_cast<std::size_t>(
                                                rng.range(0, i - 1))]);
                }
                while (parts.size() > 1) {
                    // a + b, a - (-b) or (-b) rsb a.
                    const auto i = static_cast<std::size_t>(rng.range(
                        0, static_cast<int>(parts.size()) - 2));
                    const TermRef a = parts[i];
                    const TermRef b = parts[i + 1];
                    const TermRef negB =
                        p.bin(Opcode::Mul, b, p.konst(~Word{0}), false);
                    switch (rng.range(0, 2)) {
                      case 0:
                        parts[i] = p.bin(Opcode::Add, b, a, false);
                        break;
                      case 1:
                        parts[i] = p.bin(Opcode::Sub, a, negB, false);
                        break;
                      default:
                        parts[i] = p.bin(Opcode::Rsb, negB, a, false);
                        break;
                    }
                    parts.erase(parts.begin() + static_cast<long>(i) + 1);
                }
                return parts[0];
            };

            const TermRef folded =
                product ? p.bin(Opcode::Mul, fold(polyP), fold(polyQ),
                                false)
                        : fold(polyP);

            std::vector<TermRef> reversedQ;
            for (RandMono m : polyQ) {
                std::reverse(m.factors.begin(), m.factors.end());
                reversedQ.push_back(monoTerm(p, syms, m, false));
            }
            const TermRef sumQ = shuffledSum(reversedQ);
            std::vector<TermRef> parts;
            for (RandMono m : polyP) {
                std::reverse(m.factors.begin(), m.factors.end());
                const TermRef mt = monoTerm(p, syms, m, false);
                parts.push_back(product ? p.bin(Opcode::Mul, sumQ, mt, false)
                                        : mt);
            }
            const RandMono extra = randomPolynomial(rng, numSyms).front();
            parts.push_back(monoTerm(p, syms, extra, true));
            const TermRef reordered =
                p.bin(Opcode::Sub, shuffledSum(parts),
                      monoTerm(p, syms, extra, false), false);

            ASSERT_EQ(folded, reordered)
                << "trial " << t << '.' << k << ": " << p.str(folded)
                << " vs " << p.str(reordered);

            EvalTape tape({folded}, syms);
            for (unsigned e = 0; e < 4; ++e) {
                std::vector<Word> point;
                for (unsigned i = 0; i < numSyms; ++i) {
                    point.push_back(rng.range(0, 1)
                                        ? static_cast<Word>(rng.range(-4, 4))
                                        : rng.next32());
                    tape.setLeaf(i, point.back());
                }
                tape.run();
                const Word want =
                    product ? evalPolynomial(polyP, point) *
                                  evalPolynomial(polyQ, point)
                            : evalPolynomial(polyP, point);
                ASSERT_EQ(tape.root(0), want)
                    << "trial " << t << '.' << k << ": " << p.str(folded);
            }
        }
    }
}

TEST(SymexecProperty, PartialRerunMatchesFullRun)
{
    // Each trial draws a random term DAG over a few leaves and walks
    // the prover's odometer over small random leaf domains. One tape
    // reruns only the ops a moved digit can change; a second sets
    // every leaf and runs in full at each point. Every node must agree
    // at every point.
    const unsigned trials = envNumber("LIQUID_PROOF_TRIALS", 10u);
    const unsigned seed = envNumber("LIQUID_PROOF_SEED", 1u);
    static const Opcode binops[] = {
        Opcode::Add, Opcode::Sub, Opcode::Rsb, Opcode::Mul,
        Opcode::And, Opcode::Orr, Opcode::Eor, Opcode::Bic,
        Opcode::Lsl, Opcode::Lsr, Opcode::Asr, Opcode::Min,
        Opcode::Max, Opcode::Qadd, Opcode::Qsub,
    };
    static const Cond conds[] = {Cond::EQ, Cond::NE, Cond::LT,
                                 Cond::LE, Cond::GT, Cond::GE};
    constexpr unsigned perTrial = 20;
    for (unsigned t = 0; t < trials; ++t) {
        Rng rng(seed + 1000ull * t + 13);
        for (unsigned k = 0; k < perTrial; ++k) {
            TermPool p;
            const unsigned numLeaves = static_cast<unsigned>(rng.range(2, 6));
            std::vector<TermRef> leaves;
            std::vector<std::vector<Word>> doms;
            for (unsigned i = 0; i < numLeaves; ++i) {
                leaves.push_back(p.param("x" + std::to_string(i)));
                doms.emplace_back();
                const auto size = rng.range(1, 4);
                for (std::int64_t d = 0; d < size; ++d)
                    doms.back().push_back(
                        rng.range(0, 1) ? static_cast<Word>(rng.range(-3, 3))
                                        : rng.next32());
            }
            std::vector<TermRef> nodes = leaves;
            nodes.push_back(p.konst(static_cast<Word>(rng.range(-100, 100))));
            auto pick = [&]() {
                return nodes[static_cast<std::size_t>(
                    rng.range(0, static_cast<int>(nodes.size()) - 1))];
            };
            const auto ops = rng.range(4, 24);
            for (std::int64_t i = 0; i < ops; ++i) {
                switch (rng.range(0, 7)) {
                  case 6:
                    nodes.push_back(p.ext(rng.range(0, 1) ? 8 : 16,
                                          rng.range(0, 1) != 0, pick()));
                    break;
                  case 7: {
                    const TermRef sign = p.cmp(pick(), pick(), false);
                    nodes.push_back(
                        p.sel(conds[rng.range(0, 5)], sign, pick(), pick()));
                    break;
                  }
                  default:
                    nodes.push_back(p.bin(binops[rng.range(0, 14)], pick(),
                                          pick(), false));
                    break;
                }
            }

            EvalTape partial(nodes, leaves);
            EvalTape full(nodes, leaves);
            for (unsigned i = 0; i < numLeaves; ++i)
                partial.setLeaf(i, doms[i][0]);
            partial.run();
            std::vector<std::size_t> idx(numLeaves, 0);
            for (unsigned point = 0;; ++point) {
                for (unsigned i = 0; i < numLeaves; ++i)
                    full.setLeaf(i, doms[i][idx[i]]);
                full.run();
                for (std::size_t r = 0; r < nodes.size(); ++r) {
                    ASSERT_EQ(partial.root(r), full.root(r))
                        << "trial " << t << '.' << k << " point " << point
                        << " node " << r << ": " << p.str(nodes[r]);
                }
                std::size_t i = 0;
                for (; i < numLeaves; ++i) {
                    if (++idx[i] < doms[i].size()) {
                        partial.setLeaf(i, doms[i][idx[i]]);
                        break;
                    }
                    idx[i] = 0;
                    partial.setLeaf(i, doms[i][0]);
                }
                if (i == numLeaves)
                    break;
                partial.rerun(i);
            }
            EXPECT_LE(partial.opsRun(), full.opsRun())
                << "trial " << t << '.' << k;
        }
    }
}
