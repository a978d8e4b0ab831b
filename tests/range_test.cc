/**
 * @file
 * Property tests for the liquid-range abstract domain: lattice laws of
 * the interval and congruence components, widening termination at the
 * int64 extremes, reduction idempotence of the product, and a
 * randomized differential check of every abstract operator against a
 * shadow concrete evaluator. A final section exercises the whole
 * interprocedural solver on the curated stress programs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "verifier/range.hh"
#include "workloads/range_stress.hh"

namespace liquid
{
namespace
{

using I128 = __int128;

/** Values that historically break interval arithmetic. */
const std::vector<std::int64_t> &
cornerValues()
{
    static const std::vector<std::int64_t> vs = {
        INT64_MIN, INT64_MIN + 1, INT32_MIN, -4096, -7, -1, 0, 1, 7,
        4096, INT32_MAX, INT64_MAX - 1, INT64_MAX,
    };
    return vs;
}

std::int64_t
randomValue(Rng &rng)
{
    // Mix corners with uniform draws from a few magnitude bands so the
    // shadow evaluator sees both extremes and typical 32-bit data.
    switch (rng.range(0, 3)) {
      case 0:
        return cornerValues()[static_cast<std::size_t>(rng.range(
            0, static_cast<int>(cornerValues().size()) - 1))];
      case 1:
        return rng.range(-100, 100);
      case 2:
        return rng.range(INT32_MIN, INT32_MAX);
      default:
        return static_cast<std::int64_t>(rng.range(-1000, 1000)) << 32 |
               static_cast<std::uint32_t>(rng.range(0, INT32_MAX));
    }
}

Interval
randomInterval(Rng &rng)
{
    switch (rng.range(0, 5)) {
      case 0:
        return Interval::top();
      case 1:
        return Interval::bottom();
      case 2:
        return Interval::of(randomValue(rng));
      default: {
        const std::int64_t a = randomValue(rng);
        const std::int64_t b = randomValue(rng);
        return a <= b ? Interval::make(a, b) : Interval::make(b, a);
      }
    }
}

Congruence
randomCongruence(Rng &rng)
{
    switch (rng.range(0, 4)) {
      case 0:
        return Congruence::top();
      case 1:
        return Congruence::of(randomValue(rng));
      default: {
        static const std::uint64_t mods[] = {2, 3, 4, 5, 8, 12, 16,
                                             1u << 20, 1u << 31};
        const std::uint64_t m =
            mods[static_cast<std::size_t>(rng.range(0, 8))];
        return Congruence::make(
            m, rng.range(0, static_cast<int>(
                                std::min<std::uint64_t>(m - 1, 1 << 30))));
      }
    }
}

/** A concrete member of @p iv, when one exists. */
bool
sampleMember(const Interval &iv, Rng &rng, std::int64_t &out)
{
    if (iv.empty())
        return false;
    if (iv.singleton()) {
        out = iv.lo;
        return true;
    }
    switch (rng.range(0, 2)) {
      case 0:
        out = iv.lo;
        return true;
      case 1:
        out = iv.hi;
        return true;
      default: {
        const I128 span = static_cast<I128>(iv.hi) - iv.lo;
        const I128 off = span <= 0
                             ? 0
                             : static_cast<I128>(static_cast<std::uint64_t>(
                                   rng.range(0, INT32_MAX))) %
                                   (span + 1);
        out = static_cast<std::int64_t>(iv.lo + off);
        return true;
      }
    }
}

// ---- interval lattice laws -------------------------------------------------

TEST(RangeDomain, IntervalJoinIsLeastUpperBoundish)
{
    Rng rng(101);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const Interval a = randomInterval(rng);
        const Interval b = randomInterval(rng);
        const Interval j = a.join(b);
        EXPECT_TRUE(j.containsAll(a)) << a.str() << " " << j.str();
        EXPECT_TRUE(j.containsAll(b)) << b.str() << " " << j.str();
        EXPECT_EQ(j, b.join(a));
        EXPECT_EQ(a.join(a), a);
        const Interval c = randomInterval(rng);
        EXPECT_EQ(a.join(b).join(c), a.join(b.join(c)));
    }
}

TEST(RangeDomain, IntervalMeetIsGreatestLowerBoundish)
{
    Rng rng(202);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const Interval a = randomInterval(rng);
        const Interval b = randomInterval(rng);
        const Interval m = a.meet(b);
        EXPECT_TRUE(a.containsAll(m));
        EXPECT_TRUE(b.containsAll(m));
        EXPECT_EQ(m, b.meet(a));
        std::int64_t v;
        if (sampleMember(a, rng, v) && b.contains(v)) {
            EXPECT_TRUE(m.contains(v)) << "meet dropped " << v;
        }
    }
}

TEST(RangeDomain, IntervalAbsorptionAndUnits)
{
    Rng rng(303);
    for (unsigned trial = 0; trial < 500; ++trial) {
        const Interval a = randomInterval(rng);
        EXPECT_EQ(a.join(Interval::bottom()), a);
        EXPECT_EQ(a.meet(Interval::top()), a);
        EXPECT_TRUE(a.join(Interval::top()).isTop());
        EXPECT_TRUE(a.meet(Interval::bottom()).empty());
        EXPECT_EQ(a.join(a.meet(randomInterval(rng))).join(a), a.join(a));
    }
}

// ---- widening / narrowing --------------------------------------------------

TEST(RangeDomain, WideningTerminatesFromAnySequence)
{
    Rng rng(404);
    for (unsigned trial = 0; trial < 1000; ++trial) {
        Interval w = randomInterval(rng);
        unsigned changes = 0;
        for (unsigned step = 0; step < 64; ++step) {
            const Interval next = w.join(randomInterval(rng));
            const Interval wd = w.widen(next);
            EXPECT_TRUE(wd.containsAll(next));
            if (!(wd == w))
                ++changes;
            w = wd;
        }
        // Each bound can escape at most once (to the extreme), plus
        // one bottom -> non-bottom transition: the chain must settle.
        EXPECT_LE(changes, 3u) << "widening chain did not stabilize";
    }
}

TEST(RangeDomain, WideningAtInt64Extremes)
{
    const Interval full{INT64_MIN, INT64_MAX};
    EXPECT_EQ(full.widen(full), full);
    EXPECT_EQ(Interval::of(INT64_MAX).widen(full), full);
    EXPECT_EQ(Interval::of(INT64_MIN).widen(full), full);
    // Saturating arithmetic at the rim must not wrap (UB-free and
    // still an over-approximation).
    const Interval hi = Interval::of(INT64_MAX);
    EXPECT_TRUE(hi.add(Interval::of(1)).contains(INT64_MAX));
    const Interval lo = Interval::of(INT64_MIN);
    EXPECT_TRUE(lo.sub(Interval::of(1)).contains(INT64_MIN));
    EXPECT_TRUE(lo.neg().contains(INT64_MAX));
    EXPECT_TRUE(full.mul(full).containsAll(full));
}

TEST(RangeDomain, NarrowingRefinesWithoutLosingMembers)
{
    Rng rng(505);
    for (unsigned trial = 0; trial < 1000; ++trial) {
        const Interval x = randomInterval(rng);
        const Interval y = x.meet(randomInterval(rng));  // y <= x
        const Interval n = x.narrow(y);
        EXPECT_TRUE(x.containsAll(n)) << "narrowing must descend";
        EXPECT_TRUE(n.containsAll(y)) << "narrowing must stay above y";
    }
}

// ---- congruence laws -------------------------------------------------------

TEST(RangeDomain, CongruenceJoinContainsBothOperands)
{
    Rng rng(606);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const Congruence a = randomCongruence(rng);
        const Congruence b = randomCongruence(rng);
        const Congruence j = a.join(b);
        // Sample members of each side: rem, rem +/- mod multiples.
        for (const Congruence *side : {&a, &b}) {
            std::int64_t v = side->rem;
            EXPECT_TRUE(j.contains(v))
                << a.str() << " join " << b.str() << " = " << j.str()
                << " missing " << v;
            if (!side->isConst() && !side->isTop()) {
                v = side->rem +
                    static_cast<std::int64_t>(side->mod) * 3;
                EXPECT_TRUE(side->contains(v));
                EXPECT_TRUE(j.contains(v));
            }
        }
    }
}

TEST(RangeDomain, CongruenceMeetOverapproximatesIntersection)
{
    Rng rng(707);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const Congruence a = randomCongruence(rng);
        const Congruence b = randomCongruence(rng);
        const Congruence m = a.meet(b);
        const std::int64_t v = randomValue(rng);
        if (a.contains(v) && b.contains(v)) {
            EXPECT_TRUE(m.contains(v))
                << a.str() << " meet " << b.str() << " dropped " << v;
        }
    }
}

TEST(RangeDomain, CongruencePow2CoarsensSoundly)
{
    Rng rng(808);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const Congruence a = randomCongruence(rng);
        const Congruence p = a.pow2();
        // pow2 must keep every member and its modulus must divide 2^32
        // (that is what lets the fact survive 32-bit wraparound).
        if (!p.isConst()) {
            EXPECT_TRUE(p.isTop() ||
                        (p.mod != 0 && (p.mod & (p.mod - 1)) == 0))
                << p.str();
            EXPECT_LE(p.mod, 1ull << 31);
        }
        std::int64_t v = a.rem;
        EXPECT_TRUE(p.contains(v)) << a.str() << " -> " << p.str();
        if (!a.isConst() && !a.isTop()) {
            v = a.rem + static_cast<std::int64_t>(a.mod) * 5;
            EXPECT_TRUE(p.contains(v)) << a.str() << " -> " << p.str();
        }
    }
}

// ---- reduced product -------------------------------------------------------

TEST(RangeDomain, ReduceIsIdempotentAndSound)
{
    Rng rng(909);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const RangeVal v{randomInterval(rng), randomCongruence(rng)};
        const RangeVal r = v.reduce();
        EXPECT_EQ(r.reduce(), r) << "reduce(reduce(x)) != reduce(x) for "
                                 << v.str();
        // Reduction may only tighten: every concrete member of the
        // product survives.
        std::int64_t c;
        if (sampleMember(v.iv, rng, c) && v.cg.contains(c)) {
            EXPECT_TRUE(r.contains(c))
                << v.str() << " reduced to " << r.str() << " lost " << c;
        }
    }
}

TEST(RangeDomain, ProductJoinAndWidenAreSound)
{
    Rng rng(111);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const RangeVal a{randomInterval(rng), randomCongruence(rng)};
        const RangeVal b{randomInterval(rng), randomCongruence(rng)};
        std::int64_t v;
        if (sampleMember(a.iv, rng, v) && a.cg.contains(v)) {
            EXPECT_TRUE(a.join(b).contains(v));
            EXPECT_TRUE(a.widen(a.join(b)).contains(v));
        }
        if (sampleMember(b.iv, rng, v) && b.cg.contains(v)) {
            EXPECT_TRUE(a.join(b).contains(v));
        }
    }
}

// ---- shadow concrete evaluator ---------------------------------------------

/**
 * The differential heart: abstract op(A, B) must contain op(a, b) for
 * every sampled a in A, b in B. Arithmetic is checked in 128 bits; a
 * concrete result outside int64 cannot be a member of any interval, so
 * those draws only assert the op does not crash.
 */
TEST(RangeDomain, AbstractOpsContainConcreteResults)
{
    Rng rng(222);
    unsigned checked = 0;
    for (unsigned trial = 0; trial < 4000; ++trial) {
        const Interval A = randomInterval(rng);
        const Interval B = randomInterval(rng);
        std::int64_t a, b;
        if (!sampleMember(A, rng, a) || !sampleMember(B, rng, b))
            continue;

        struct OpCase
        {
            const char *name;
            Interval abs;
            I128 con;
        };
        const OpCase cases[] = {
            {"add", A.add(B), static_cast<I128>(a) + b},
            {"sub", A.sub(B), static_cast<I128>(a) - b},
            {"neg", A.neg(), -static_cast<I128>(a)},
            {"mul", A.mul(B), static_cast<I128>(a) * b},
        };
        for (const OpCase &c : cases) {
            if (c.con < INT64_MIN || c.con > INT64_MAX)
                continue;  // not an int64 value; saturation covers it
            ++checked;
            EXPECT_TRUE(c.abs.contains(static_cast<std::int64_t>(c.con)))
                << c.name << "(" << A.str() << ", " << B.str() << ") = "
                << c.abs.str() << " missing " << a << " op " << b;
        }

        const Congruence CA = Congruence::of(a);
        const Congruence CB = Congruence::of(b);
        const Congruence sum = CA.add(CB);
        const Congruence dif = CA.sub(CB);
        const Congruence prd = CA.mul(CB);
        const I128 s = static_cast<I128>(a) + b;
        const I128 d = static_cast<I128>(a) - b;
        const I128 p = static_cast<I128>(a) * b;
        if (s >= INT64_MIN && s <= INT64_MAX) {
            EXPECT_TRUE(sum.contains(static_cast<std::int64_t>(s)));
        }
        if (d >= INT64_MIN && d <= INT64_MAX) {
            EXPECT_TRUE(dif.contains(static_cast<std::int64_t>(d)));
        }
        if (p >= INT64_MIN && p <= INT64_MAX) {
            EXPECT_TRUE(prd.contains(static_cast<std::int64_t>(p)));
        }
    }
    EXPECT_GE(checked, 1000u) << "shadow evaluator starved of samples";
}

// ---- whole-solver properties -----------------------------------------------

TEST(RangeSolver, StressCasesSolveSoundly)
{
    for (const RangeStressCase &c : rangeStressCases()) {
        SCOPED_TRACE(c.name);
        const Program prog = assemble(c.src);
        const ProgramRanges pr = solveProgramRanges(prog);
        EXPECT_TRUE(pr.sound);
        EXPECT_GT(pr.rounds, 0u);
    }
}

/** The stress case named @p name; fails the test when it is absent. */
std::string
stressSource(const std::string &name)
{
    for (const RangeStressCase &c : rangeStressCases()) {
        if (c.name == name)
            return c.src;
    }
    ADD_FAILURE() << "no range stress case " << name;
    return "";
}

TEST(RangeSolver, LiveInBoundProvesEntryConstantAndTrip)
{
    const Program prog = assemble(stressSource("rs_livein_bound"));
    const ProgramRanges pr = solveProgramRanges(prog);
    ASSERT_TRUE(pr.sound);
    const int entry = prog.labelIndex("fn");
    const Interval trip = pr.tripBound(entry);
    EXPECT_EQ(trip, Interval::of(64)) << trip.str();

    RangeFacts facts(prog, pr, entry);
    Word v = 0;
    std::string why;
    ASSERT_TRUE(facts.entryReg(RegId(RegClass::Int, 5), v, why));
    EXPECT_EQ(v, 64u);
    EXPECT_NE(why.find("r5"), std::string::npos);
}

TEST(RangeSolver, JoinedCallSitesRefuseFalseConstants)
{
    const Program prog = assemble(stressSource("rs_join_negative"));
    const ProgramRanges pr = solveProgramRanges(prog);
    ASSERT_TRUE(pr.sound);
    const int entry = prog.labelIndex("fn");
    // Two call sites pass 64 and 32: the entry fact must be the join,
    // never either constant.
    RangeFacts facts(prog, pr, entry);
    Word v = 0;
    std::string why;
    EXPECT_FALSE(facts.entryReg(RegId(RegClass::Int, 5), v, why));
    const Interval trip = pr.tripBound(entry);
    EXPECT_TRUE(trip.contains(32));
    EXPECT_TRUE(trip.contains(64));
}

} // namespace
} // namespace liquid
