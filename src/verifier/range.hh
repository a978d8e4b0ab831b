/**
 * @file
 * liquid-range: interprocedural value-range, alignment and trip-count
 * analysis over whole binaries.
 *
 * The domain is a reduced product of two abstractions per register or
 * memory cell:
 *
 *  - `Interval`  — a signed 64-bit range [lo, hi] (the ISA transfer
 *    functions clamp to the 32-bit value space; the domain itself is
 *    64-bit generic so the lattice laws are testable at the extremes);
 *  - `Congruence` — value ≡ rem (mod mod), i.e. stride/alignment
 *    facts. `mod == 0` encodes a constant, `mod == 1` top. ISA-level
 *    transfers normalize moduli to powers of two so the facts survive
 *    32-bit wraparound (m | 2^32).
 *
 * The analysis runs forward over every function's RegionCfg on the
 * shared fixpoint engine (`fixpoint.hh`), with widening at loop heads
 * and a few narrowing sweeps, and iterates callee summaries (entry
 * state = join over call sites, exit state = join over returns) to a
 * joint interprocedural fixpoint — the same discovery and round
 * pattern as `solveProgramLiveness`.
 *
 * Consumers:
 *  - the verifier seeds `AbsMachine` walks (rule mirror + depcheck)
 *    with proven-constant entry registers and memory cells, turning
 *    runtime-dependent Warns into concrete verdicts;
 *  - liquid-scan reads loop trip-count bounds and access alignment;
 *  - liquid-proof shrinks enumeration domains with cell facts.
 *
 * Soundness is guarded by a differential oracle (`RangeObserver`): a
 * retire-bus recorder asserting that every static interval contains
 * every dynamically observed value.
 */

#ifndef LIQUID_VERIFIER_RANGE_HH
#define LIQUID_VERIFIER_RANGE_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "cpu/core.hh"
#include "verifier/dataflow.hh"
#include "verifier/liveness.hh"

namespace liquid
{

/** Signed 64-bit interval [lo, hi]; lo > hi encodes bottom (empty). */
struct Interval
{
    std::int64_t lo = INT64_MIN;
    std::int64_t hi = INT64_MAX;

    static Interval top() { return {}; }
    static Interval bottom() { return {1, 0}; }
    static Interval of(std::int64_t v) { return {v, v}; }
    static Interval make(std::int64_t lo, std::int64_t hi)
    {
        return {lo, hi};
    }

    bool empty() const { return lo > hi; }
    bool isTop() const { return lo == INT64_MIN && hi == INT64_MAX; }
    bool singleton() const { return lo == hi; }
    bool contains(std::int64_t v) const { return lo <= v && v <= hi; }
    bool
    containsAll(const Interval &o) const
    {
        return o.empty() || (lo <= o.lo && o.hi <= hi);
    }

    bool
    operator==(const Interval &o) const
    {
        if (empty() && o.empty())
            return true;
        return lo == o.lo && hi == o.hi;
    }

    /** Convex hull (lattice join). */
    Interval join(const Interval &o) const;
    /** Intersection (lattice meet). */
    Interval meet(const Interval &o) const;
    /** Standard widening: escaping bounds jump to the extremes. */
    Interval widen(const Interval &next) const;
    /** Standard narrowing: infinite bounds adopt the refined ones. */
    Interval narrow(const Interval &next) const;

    // Saturating abstract arithmetic (exact up to int64 saturation).
    Interval add(const Interval &o) const;
    Interval sub(const Interval &o) const;
    Interval neg() const;
    Interval mul(const Interval &o) const;

    std::string str() const;
};

/**
 * Congruence x ≡ rem (mod mod). `mod == 0` is the constant `rem`
 * (rem may be any int64); `mod == 1` is top; `mod >= 2` keeps
 * rem ∈ [0, mod).
 */
struct Congruence
{
    std::uint64_t mod = 1;
    std::int64_t rem = 0;

    static Congruence top() { return {}; }
    static Congruence of(std::int64_t v) { return {0, v}; }
    static Congruence make(std::uint64_t mod, std::int64_t rem);

    bool isTop() const { return mod == 1; }
    bool isConst() const { return mod == 0; }
    bool contains(std::int64_t v) const;

    bool
    operator==(const Congruence &o) const
    {
        return mod == o.mod && rem == o.rem;
    }

    Congruence join(const Congruence &o) const;
    /** Over-approximate meet (always contains the intersection). */
    Congruence meet(const Congruence &o) const;

    Congruence add(const Congruence &o) const;
    Congruence sub(const Congruence &o) const;
    Congruence neg() const;
    Congruence mul(const Congruence &o) const;

    /**
     * Coarsen the modulus to its largest power-of-two divisor (capped
     * at 2^31) so the fact survives 32-bit wraparound; constants pass
     * through, non-power-of-two residues degrade toward top.
     */
    Congruence pow2() const;

    std::string str() const;
};

/** The reduced product element. */
struct RangeVal
{
    Interval iv;
    Congruence cg;

    static RangeVal top() { return {}; }
    static RangeVal bottom()
    {
        return {Interval::bottom(), Congruence::top()};
    }
    static RangeVal of(std::int64_t v)
    {
        return {Interval::of(v), Congruence::of(v)};
    }

    bool isBottom() const { return iv.empty(); }
    bool isTop() const { return iv.isTop() && cg.isTop(); }
    bool
    isConst(std::int64_t &v) const
    {
        if (iv.singleton() && !iv.empty()) {
            v = iv.lo;
            return true;
        }
        return false;
    }
    bool
    contains(std::int64_t v) const
    {
        return iv.contains(v) && cg.contains(v);
    }

    bool
    operator==(const RangeVal &o) const
    {
        return iv == o.iv && cg == o.cg;
    }

    /**
     * Reduction: propagate information between the two components
     * (tighten interval endpoints onto the congruence's residue class,
     * collapse singletons to constants). Idempotent.
     */
    RangeVal reduce() const;

    RangeVal join(const RangeVal &o) const;
    RangeVal meet(const RangeVal &o) const;
    RangeVal widen(const RangeVal &next) const;
    RangeVal narrow(const RangeVal &next) const;

    std::string str() const;
};

/** Sabotage mutations for the --sabotage self-test (bitmask). */
enum RangeSabotage : unsigned
{
    SabNone = 0,
    /** join() keeps only the second operand (path-drop). */
    SabUnsoundJoin = 1u << 0,
    /** 32-bit overflow clamps instead of widening to top. */
    SabWrapClamp = 1u << 1,
    /** Stores through unknown addresses skip the memory havoc. */
    SabStoreNoHavoc = 1u << 2,
    /** Branch refinement tightens one element too far. */
    SabEdgeTighten = 1u << 3,
};

/** One memory cell's abstract contents (exact address and size). */
struct CellFact
{
    unsigned size = 4;
    RangeVal val;
};

/**
 * Abstract machine state of the range analysis: one RangeVal per
 * architectural register (flat id) plus a written-cell map over the
 * initial data image. An absent cell means "never written on any
 * path" — its value is the image's. `memHavoc` poisons all cells
 * (a store through an unknown address, or an unknown callee).
 */
struct RangeState
{
    bool reachable = false;
    std::array<RangeVal, 4 * regsPerClass> regs;
    bool memHavoc = false;
    std::map<Addr, CellFact> cells;

    // Flag-refinement bookkeeping: the registers compared by the last
    // cmp, if they still hold the compared values. Lets CFG edges
    // tighten `r` after `cmp r, bound; blt ...`.
    int cmpLhsFlat = -1;
    int cmpRhsFlat = -1;
    Interval cmpLhs = Interval::top();
    Interval cmpRhs = Interval::top();

    static RangeState bottom() { return {}; }
    /** All registers and memory unknown (but reachable). */
    static RangeState everything();

    RangeVal regAt(RegId id) const;
    void setReg(RegId id, const RangeVal &v);

    /** Abstract load from [addr, addr+size) against image + cells. */
    RangeVal load(const Program &prog, Addr addr, unsigned size,
                  bool sign_extend) const;
    /** Abstract store; non-singleton spans weak-update or havoc. */
    void store(const Interval &addr, unsigned size, const RangeVal &v,
               unsigned sabotage = SabNone);
    void havocMemory();

    bool operator==(const RangeState &o) const;
    void joinWith(const RangeState &o, const Program &prog,
                  unsigned sabotage = SabNone);
    void widenWith(const RangeState &prev);
};

/** Per-instruction facts joined over all contexts that execute it. */
struct InstFacts
{
    bool hasVal = false;
    RangeVal val;       ///< result written to a scalar destination
    bool hasAddr = false;
    Interval addr = Interval::bottom();   ///< effective address range
    Congruence addrCg = Congruence::top();
};

/** Trip-count facts for one natural loop. */
struct LoopFacts
{
    int headIndex = -1;       ///< first instruction of the loop head
    Interval trip = Interval::top();  ///< iterations executed
    unsigned ivFlat = 0;      ///< counted induction register
    std::int64_t step = 0;    ///< per-iteration increment
    bool known = false;       ///< trip is a real (non-top) bound
};

struct RangeSolveOptions
{
    /** Interprocedural rounds; 0 = entries + 3 (liveness pattern). */
    unsigned maxRounds = 0;
    /** Decreasing sweeps after the widened intraprocedural fixpoint. */
    unsigned narrowSweeps = 2;
    /** Seeded unsoundness for the sabotage self-test. */
    unsigned sabotage = SabNone;
};

/** The whole-binary solution. */
struct ProgramRanges
{
    struct Fn
    {
        RangeState entry;
        RangeState exit;
        std::map<int, LoopFacts> loops;  ///< keyed by head block index
        unsigned callSites = 0;
        bool converged = true;
    };

    std::map<int, Fn> fns;     ///< keyed by entry instruction index
    std::set<int> entries;
    /** Per-instruction facts, joined across every calling context. */
    std::map<int, InstFacts> facts;
    /** False when the joint fixpoint failed; all facts must read top. */
    bool sound = true;
    unsigned rounds = 0;

    const Fn *fnAt(int entry) const;
    const InstFacts *factsAt(int index) const;
    /** Tightest known trip bound over the region's loops (top if none). */
    Interval tripBound(int entry) const;
    /** Power-of-two byte alignment proven for a memory instruction. */
    std::uint64_t accessAlign(int index) const;
};

/** Solve value ranges for every function in the binary. */
ProgramRanges solveProgramRanges(const Program &prog,
                                 const RangeSolveOptions &opt = {});

/**
 * Adapter handing a region's proven entry facts to `AbsMachine`: the
 * rule-mirror and depcheck walks resolve entry registers and
 * writable-memory loads the analysis pinned to constants.
 */
class RangeFacts : public EntryFacts
{
  public:
    RangeFacts(const Program &prog, const ProgramRanges &ranges,
               int entry);

    bool entryReg(RegId reg, Word &value,
                  std::string &fact) const override;
    bool readCell(Addr addr, unsigned size, bool sign_extend,
                  Word &value, std::string &fact) const override;

  private:
    const Program &prog_;
    const ProgramRanges &ranges_;
    const ProgramRanges::Fn *fn_;
};

/**
 * Differential soundness oracle: attach to a scalar-mode Core and
 * assert every retired value/address lies inside the static fact.
 */
class RangeObserver : public RetireSink
{
  public:
    RangeObserver(const Program &prog, const ProgramRanges &ranges)
        : prog_(prog), ranges_(ranges)
    {
    }

    void onRetire(const RetireInfo &info, Cycles now) override;
    void onCall(Addr, bool, unsigned, Cycles) override {}
    void onReturn(Cycles) override {}
    void onInterrupt(Cycles) override {}

    unsigned checkedRetires() const { return checked_; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  private:
    const Program &prog_;
    const ProgramRanges &ranges_;
    unsigned checked_ = 0;
    std::vector<std::string> violations_;
};

} // namespace liquid

#endif // LIQUID_VERIFIER_RANGE_HH
