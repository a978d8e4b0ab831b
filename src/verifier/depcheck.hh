/**
 * @file
 * Static memory-dependence and stride analysis over one outlined
 * region ("depcheck").
 *
 * The dynamic translator's only memory-dependence defence is the
 * firstEa-interval test at loop finalization, which (a) never sees
 * gather/scatter accesses (Rule 3/5 creates no BuildNote), (b) ignores
 * store-store pairs, (c) ignores stores *below* a load stream, and
 * (d) aborts overlapping streams even when the carried distance makes
 * SIMD execution safe. depcheck closes that gap statically: it walks
 * the region once with the verifier's AbsMachine, records every
 * load/store executed inside a natural loop as a concrete
 * per-iteration address trace, classifies each access as
 * `base + k*iv + c` (unit-stride, strided, gather/scatter) and then
 * decides, per candidate SIMD width N, whether vector execution
 * preserves scalar memory semantics.
 *
 * The exactness argument: the accelerator executes the loop body in
 * textual order, one microcode instruction over all N lanes at a time
 * (vld reads lanes ascending, vst writes lanes ascending — see
 * Core::executeVector). A loop-carried dependence between iterations
 * i and j therefore breaks if and only if both fall into the same
 * vector group (⌊i/N⌋ == ⌊j/N⌋) and the textual order of the two
 * accesses is opposite to their iteration order. In particular a
 * carried distance d ≥ N can never break: the iterations land in
 * different groups, which execute in order.
 *
 * One scan decides every width: `scanWidth` walks an address index of
 * the trace, visiting only the stores that overlap an event of another
 * iteration and only their overlapping partners. analyzeDeps runs it
 * once per ladder width; liquid-poly (poly.hh) runs the same function
 * at every N up to its horizon.
 */

#ifndef LIQUID_VERIFIER_DEPCHECK_HH
#define LIQUID_VERIFIER_DEPCHECK_HH

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace liquid
{

class RegionCfg;

/** Address-progression class of one static load/store in a loop. */
enum class AccessClass : std::uint8_t
{
    UnitStride,    ///< ea(i) = base + i*elemSize
    Strided,       ///< ea(i) = base + i*stride, stride != elemSize
    GatherScatter, ///< concrete per-iteration addresses, non-affine
    Unknown,       ///< some address was runtime-dependent
};

const char *accessClassName(AccessClass cls);

/** One static memory access inside an analyzed loop. */
struct MemAccess
{
    int instIndex = -1;
    bool isStore = false;
    AccessClass cls = AccessClass::Unknown;
    unsigned elemSize = 0;
    Addr firstEa = 0;           ///< first executed effective address
    std::int64_t strideBytes = 0;  ///< per-iteration delta (affine only)
    unsigned events = 0;        ///< dynamic executions recorded
    Addr minEa = 0;             ///< lowest byte touched
    Addr maxEnd = 0;            ///< one past the highest byte touched
    std::string arrayName;      ///< data symbol blamed for firstEa
};

/** A loop-carried pair of accesses touching a common byte. */
struct DepPair
{
    int storeIndex = -1;   ///< instruction index of the store
    int otherIndex = -1;   ///< the load (flow/anti) or store (output)
    bool otherIsStore = false;
    unsigned distance = 0; ///< iteration distance |i - j| of the pair
    Addr addr = 0;         ///< a concrete overlapping byte address
    /**
     * True when the textual order of the two accesses is opposite to
     * their iteration order, so any width grouping both iterations
     * executes them in the wrong order.
     */
    bool orderFlips = false;
};

/**
 * Machine-readable cause of an `Unknown` verdict (the free-form `why`
 * string stays alongside as the human description). Stable codes are
 * surfaced in liquid-verify-v2 JSON; extend at the end only.
 */
enum class DepReason : std::uint8_t
{
    None,              ///< verdict is not Unknown
    StepBudget,        ///< abstract walk exceeded stepBudget
    LeavesText,        ///< control flow left the program text
    NestedCall,        ///< bl inside the region
    RuntimeBranch,     ///< branch depends on runtime data
    PredicatedAccess,  ///< conditional load/store inside a loop
    RuntimeAddress,    ///< effective address depends on runtime data
    PairBudgetAtWidth, ///< pair-visit budget died at this width
    PairBudgetBefore,  ///< pair-visit budget died at a narrower width
    OutsideLadder,     ///< width not in the analyzed ladder
};

/** Stable JSON code for @p reason (camelCase, e.g. "stepBudget"). */
const char *depReasonName(DepReason reason);

/** Per-width safety decision. */
struct WidthVerdict
{
    enum class Kind : std::uint8_t
    {
        Safe,     ///< SIMD at this width preserves scalar semantics
        Unsafe,   ///< a concrete dependence breaks; see pair
        Unknown,  ///< not statically resolvable; see why
    };
    Kind kind = Kind::Unknown;
    DepPair pair;     ///< valid when Unsafe
    std::string why;  ///< human description (Unknown)
    DepReason reason = DepReason::None;  ///< machine code for Unknown
};

class EntryFacts;

/** Analysis limits. */
struct DepcheckOptions
{
    /** Abstract walk budget (instructions executed). */
    unsigned long stepBudget = 200000;
    /**
     * Total dependence pairs visited: the address index build's, then
     * each candidate width's scan in ascending width order. Only pairs
     * that share a byte are visited, so a region whose accesses never
     * overlap spends nothing; when the budget runs dry the narrow
     * widths stay resolved and only the wide ones degrade to Unknown.
     */
    unsigned long pairBudget = 1ul << 24;
    /**
     * Proven region-entry facts (registers / memory cells) from the
     * whole-program range analysis; the walk's AbsMachine resolves
     * values through them instead of degrading to runtime-dependent.
     */
    const EntryFacts *facts = nullptr;
};

/** The complete dependence analysis of one region. */
struct DepcheckResult
{
    /** Candidate widths, matching the translator's fallback ladder. */
    static constexpr std::array<unsigned, 4> widths{2, 4, 8, 16};

    bool analyzed = false;   ///< region had loops and the walk ran
    bool resolved = false;   ///< walk completed with concrete addresses
    std::string unresolvedWhy;
    DepReason unresolvedReason = DepReason::None;
    int unresolvedIndex = -1;
    /** External range facts the walk consumed (for diagnostics). */
    std::vector<std::string> factsUsed;

    unsigned loopsAnalyzed = 0;
    unsigned eventCount = 0;      ///< dynamic load/store executions
    std::vector<MemAccess> accesses;

    /**
     * The most carried pairs (overlapping, different iterations, one
     * vector group) one width's scan accepted; a scan stops at its
     * first order-breaking pair.
     */
    unsigned carriedPairs = 0;
    /** Min iteration distance over carried pairs; 0 when none found. */
    unsigned minDistance = 0;
    /**
     * Pairs charged to DepcheckOptions::pairBudget: a deterministic
     * work count, in no report.
     */
    std::uint64_t pairsExamined = 0;

    std::array<WidthVerdict, widths.size()> byWidth;

    const WidthVerdict &verdictAt(unsigned width) const;
    bool safeAt(unsigned width) const;

    /**
     * One-line machine-written proof for an Ok verdict at @p width:
     * access classes plus the distance/disjointness argument.
     */
    std::string proofSummary(unsigned width) const;
};

/**
 * Analyze the region entered at @p entry_index. @p cfg must be the
 * region's CFG (for the loop ranges). Never throws; failures surface
 * as resolved == false / Unknown width verdicts.
 */
DepcheckResult analyzeDeps(const Program &prog, int entry_index,
                           const RegionCfg &cfg,
                           const DepcheckOptions &opts = {});

/**
 * One dynamic load/store execution inside a loop. A trace lists them
 * in walk order, which is iteration order per loop, so the events of
 * one vector group at any width are contiguous.
 */
struct DepEvent
{
    int loop = -1;      ///< loop id (dense, per region)
    unsigned iter = 0;  ///< 0-based iteration of that loop
    int pos = -1;       ///< instruction index = textual position
    Addr ea = 0;
    unsigned size = 0;
    bool isStore = false;
};

/**
 * Address index over a trace's events: every event index ordered by
 * (loop, ea, index), each loop's largest access size, and the stores
 * that overlap an event of another iteration of their loop, in (loop,
 * index) order. Those stores are the only ones a scan visits, and an
 * event overlapping a store at `ea` starts in `(ea - maxSize, ea +
 * size)`: one binary search finds them all.
 */
struct DepIndex
{
    std::vector<std::uint32_t> byAddr;
    std::vector<unsigned> maxSize;  ///< per loop
    std::vector<std::uint32_t> stores;
};

/**
 * The width-independent half of the dependence analysis: the abstract
 * walk's memory-event trace and the access classification. One trace
 * serves every width N.
 */
struct DepTrace
{
    bool analyzed = false;  ///< region had loops and the walk ran
    bool resolved = false;  ///< walk completed with concrete addresses
    std::string unresolvedWhy;
    DepReason unresolvedReason = DepReason::None;
    int unresolvedIndex = -1;
    std::vector<std::string> factsUsed;

    unsigned loopsAnalyzed = 0;
    std::vector<DepEvent> events;  ///< walk order (= scan order)
    std::vector<MemAccess> accesses;
    unsigned maxIter = 0;  ///< largest 0-based iteration observed
    /** Built by indexDeps; every scan needs it. */
    std::optional<DepIndex> index;
};

/**
 * Walk the region entered at @p entry_index abstractly and record its
 * trace. Never throws; a runtime-dependent address, branch or
 * predicate, a nested call or the step budget surfaces as
 * resolved == false.
 */
DepTrace traceDeps(const Program &prog, int entry_index,
                   const RegionCfg &cfg, const DepcheckOptions &opts = {});

/**
 * Build @p trace's address index. Each overlapping partner the build
 * visits costs one pair; once the visits exceed @p budget it stops and
 * leaves trace.index empty. Returns the pairs visited.
 */
std::uint64_t indexDeps(
    DepTrace &trace,
    std::uint64_t budget = std::numeric_limits<std::uint64_t>::max());

/** Iteration distance |a.iter - b.iter|. */
unsigned iterDistance(const DepEvent &a, const DepEvent &b);
/** Do @p a and @p b fall into one width-@p n vector group? */
bool sameGroup(const DepEvent &a, const DepEvent &b, unsigned n);
/** Textual order opposes iteration order: any grouping breaks it. */
bool orderFlips(const DepEvent &a, const DepEvent &b);

/**
 * The two pair predicates of a scan. analyzeDeps runs the defaults;
 * liquid-poly's --sabotage self-test swaps in seeded bugs.
 */
struct PairTests
{
    bool (*together)(const DepEvent &, const DepEvent &,
                     unsigned n) = sameGroup;
    bool (*breaks)(const DepEvent &, const DepEvent &) = orderFlips;
};

/** One width's scan: its verdict and the carried pairs it accepted. */
struct WidthScan
{
    WidthVerdict verdict;
    unsigned carriedPairs = 0;  ///< carried pairs `together` accepted
    unsigned minDistance = 0;   ///< their min distance; 0 when none
};

/**
 * The dependence scan at width @p n over an indexed @p trace. It
 * visits loops ascending, the index's stores ascending and each
 * store's overlapping partners ascending. A partner is accepted when
 * it is a carried candidate (another iteration; store pairs once) and
 * `together`; the first accepted pair that `breaks` makes the verdict
 * Unsafe. Events are iteration-ordered per loop, so a scan over each
 * vector group's store/event pairs meets the same pairs in the same
 * order; every pair the index skips is one that shares no byte or is
 * no carried candidate, so the first hit and the accepted-pair counts
 * are that scan's. Each visited pair adds one to @p spent; past
 * @p budget the verdict is Unknown with reason pairBudgetAtWidth. At
 * n = UINT_MAX every pair shares one group, so the scan asks whether
 * any width breaks.
 */
WidthScan scanWidth(const DepTrace &trace, unsigned n,
                    std::uint64_t &spent,
                    std::uint64_t budget =
                        std::numeric_limits<std::uint64_t>::max(),
                    const PairTests &tests = {});

} // namespace liquid

#endif // LIQUID_VERIFIER_DEPCHECK_HH
