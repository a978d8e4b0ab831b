/**
 * @file
 * Width-polymorphic static verification ("liquid-poly").
 *
 * The per-width pipeline (rules.cc Table-1 conformance, depcheck's
 * group/order-flip distance proofs) asks "is width N safe?" once per
 * ladder entry. This pass asks the question once, symbolically: one
 * width-independent recording walk captures every width-dependent
 * check as data (stream lanes, trip counts, lane counts, permutation
 * shapes, the dependence-pair trace), and the verdict becomes a
 * predicate on N — a validity set expressed as interval × congruence
 * constraints over the symbolic width, e.g. "Safe for all N with
 * N | 64" or "Error for N >= 8: depMiscompile, distance 4".
 *
 * Exactness contract: instantiate(N) replays the recorded checks in
 * program order and must reproduce verifyRegion()/analyzeDeps() at
 * width N bit-for-bit — verdict, AbortReason, DepReason, diagnostic
 * instruction index and the full DepPair. diffRegion() checks that
 * differentially; the `Sabotage` mutations seed bugs into the
 * constraint evaluator that the differential gate must catch.
 *
 * The constraint rendering reuses the interval × congruence domain
 * from the range analysis (range.hh) for the N-lattice, and symexec's
 * Lane-mode address algebra (TermPool::affineDiff over parametric
 * address polynomials) to derive symbolic carried distances.
 */

#ifndef LIQUID_VERIFIER_POLY_HH
#define LIQUID_VERIFIER_POLY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "translator/translator.hh"
#include "verifier/depcheck.hh"
#include "verifier/diagnostics.hh"
#include "verifier/range.hh"
#include "verifier/rules.hh"

namespace liquid
{

/**
 * Seeded bugs in the width-constraint evaluator, one bit each, for
 * the --sabotage self-test. Every mutation must make instantiate()
 * diverge from the concrete verifier on at least one kernel/width.
 */
enum class PolySabotage : unsigned
{
    None = 0,
    /** Same-group test degraded to `distance < N`. */
    GroupCollide = 1u << 0,
    /** Order-flip filter dropped: in-order pairs flagged too. */
    FlipIgnore = 1u << 1,
    /** Trip divisibility (`N | T`) dropped, keeping only `T >= N`. */
    TripDivisor = 1u << 2,
    /** Trip lower bound off by one: `T == N` wrongly aborts. */
    TripEqual = 1u << 3,
    /** Stream compare against lane 0 instead of lane `e mod N`. */
    StreamPeriod = 1u << 4,
};

constexpr unsigned polySabotageCount = 5;
const char *polySabotageName(PolySabotage s);

/** What instantiate() predicts verifyRegion would report at width N
 *  (widthFallback/prove/ranges off, hint 0). */
struct PolyWidthOutcome
{
    Severity verdict = Severity::Ok;
    AbortReason reason = AbortReason::None;  ///< Error verdicts
    /** Instruction index of the predicted Error/Warn diagnostic. */
    int instIndex = -1;
    bool depMiscompile = false;
    /** Dependence verdict at N; meaningful when the rules walk is Ok
     *  (and for conservative MemoryDependence aborts). */
    bool depRan = false;
    WidthVerdict::Kind depKind = WidthVerdict::Kind::Unknown;
    DepReason depReason = DepReason::None;
    DepPair pair;  ///< valid when depKind == Unsafe
    std::string note;  ///< Warn condition / human context
    /** Dependence pairs the scan at N visited (a work count). */
    std::uint64_t pairsExamined = 0;
};

/**
 * One constraint on the symbolic width, in the range domain's
 * interval × congruence lattice. `iv` bounds N; `cg` constrains its
 * residue (cg.mod == 0 means no congruence). `why` names the source
 * check ("trip count", "stream period", "carried distance", ...).
 */
struct NConstraint
{
    Interval iv = Interval::top();
    Congruence cg = Congruence::top();
    std::string why;
    /** Render as "N <= 16", "2 | N", "N in [2, 8]" plus the source. */
    std::string render() const;
};

/**
 * The validity set: for which N does the region verify?
 *
 * Exact part: `okWidths` lists every Ok width in [2, horizon], and
 * `tail` is the (constant) outcome shared by all N > horizon — every
 * recorded check saturates beyond the horizon, so one probe settles
 * the whole tail.
 *
 * Structural part: with the observed trip data factored out (the trip
 * count is an artifact of this run's input size, not of the region's
 * shape), `structuralUnbounded` says the region verifies for
 * arbitrarily large N subject to `constraints` — the "verify once,
 * run at any length" claim ROADMAP item 3 needs.
 */
struct PolyValidity
{
    unsigned horizon = 0;
    std::vector<unsigned> okWidths;  ///< exact Ok widths in [2,horizon]
    bool tailExact = false;  ///< horizon covered all observed data
    PolyWidthOutcome tail;   ///< outcome for every N > horizon
    bool structuralUnbounded = false;
    std::vector<NConstraint> constraints;
    std::string summary;  ///< one line, e.g. "Safe for all N with N | 64"

    bool okAt(unsigned n) const;
};

/** The width-polymorphic analysis of one region. */
class PolyRegion
{
  public:
    int entryIndex = -1;
    std::string entryLabel;

    /** Width-independent terminal outcome of the recording walk. */
    StaticOutcome terminal;
    /**
     * Dependence trace (width-independent walk + classification),
     * indexed when the terminal lets the dependence verdict through.
     */
    DepTrace deps;
    PolyValidity validity;
    /**
     * Dependence pairs analyzePoly's scans visited while deriving
     * `validity`: a deterministic work count, proportional to the
     * overlapping pairs rather than to all event pairs.
     */
    std::uint64_t pairsExamined = 0;

    /**
     * Replay the recorded checks at concrete width @p n (at least 2),
     * with the seeded bugs in @p sabotage (bitwise-or of PolySabotage)
     * applied to the evaluator. sabotage == 0 is the honest semantics.
     */
    PolyWidthOutcome instantiate(unsigned n, unsigned sabotage = 0) const;

    // -- recording storage (filled by analyzePoly) --------------------
    struct Stream
    {
        std::vector<Word> values;  ///< lane 0 (seed) + pushes, in order
    };
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            StreamLane,  ///< constant-pool load lane check
            TripCount,   ///< loop finalization trip check
            Lanes,       ///< patch lane-completeness check
            Perm,        ///< permutation-shape (CAM) check
        };
        Kind kind = Kind::StreamLane;
        int instIndex = -1;
        int stream = -1;       ///< StreamLane / Lanes / Perm
        std::uint32_t elem = 0;    ///< StreamLane: lane index in its loop
        Word value = 0;            ///< StreamLane
        unsigned iters = 0;        ///< TripCount
        std::uint32_t observed = 0;  ///< Lanes: lanes captured
        bool isStore = false;      ///< Perm: store side (inverse kind)
    };
    std::vector<Stream> streams;
    std::vector<Event> events;
    PermRepertoire permRepertoire{};
};

/**
 * Analyze the region entered at @p entry_index once, width-free.
 * Fills the recording, computes the validity set and its rendering.
 */
PolyRegion analyzePoly(const Program &prog, int entry_index,
                       const TranslatorConfig &config,
                       const DepcheckOptions &depOpts = {});

/** One field disagreement between poly-at-N and the concrete verdict. */
struct PolyMismatch
{
    unsigned width = 0;
    std::string field;
    std::string expect;  ///< concrete verifier's value
    std::string got;     ///< instantiate()'s value
};

/** Differential self-check of one region over the width ladder. */
struct PolyDiff
{
    int entryIndex = -1;
    std::string entryLabel;
    std::vector<PolyMismatch> mismatches;
    bool ok() const { return mismatches.empty(); }
};

/**
 * Instantiate the symbolic verdict at every ladder width and compare
 * bit-for-bit against verifyRegion()/depcheck at the same width
 * (fallback/prover/ranges off). @p sabotage seeds evaluator bugs; the
 * gate passes when sabotage == 0 diffs clean and each mutation diffs
 * dirty somewhere.
 */
PolyDiff diffRegion(const Program &prog, int entry_index,
                    const TranslatorConfig &config,
                    unsigned sabotage = 0);

/** diffRegion over every hinted region of the program. */
std::vector<PolyDiff> diffProgram(const Program &prog,
                                  const TranslatorConfig &config,
                                  unsigned sabotage = 0);

} // namespace liquid

#endif // LIQUID_VERIFIER_POLY_HH
