/**
 * @file
 * liquid-proof: symbolic translation validation with counterexample
 * replay (library API; the CLI front-end is tools/liquid_proof).
 *
 * The prover closes the loop the static verifier leaves open: instead
 * of predicting *whether* the translator commits, it checks that what
 * the translator commits is *correct*. For one region and one width it
 * symbolically executes (a) the scalar region and (b) the microcode the
 * offline translator produced — which is instruction-identical to what
 * the hardware translator commits — over the shared term domain of
 * symexec.hh, then proves that under the region's liveness contract
 * (solveProgramLiveness) both runs agree on
 *
 *   - the store set: every element address written, with equal values
 *     under the store granularity's truncation, and
 *   - every demanded live-out register (the caller-read accumulators).
 *
 * Obligations the normalizing term pool does not close by construction
 * are discharged by exhaustive small-domain enumeration (see PROOF.md
 * for the completeness argument and its limits). A failed obligation
 * yields a concrete counterexample — an initial-memory image — which is
 * replayed through the chaos oracle to confirm the divergence is
 * architectural, not an artifact of the symbolic model.
 *
 * The width-polymorphic mode (ProofOptions::symbolicN) proves the
 * per-lane body obligation once with the iteration index and lane index
 * as opaque parameters, covering every width whose microcode is
 * structurally width-generic. It only ever *proves*: enumeration over
 * unconstrained parameters is sound for a universal claim but not for
 * refutation, so any failure falls back to the per-width proofs.
 */

#ifndef LIQUID_VERIFIER_PROOF_HH
#define LIQUID_VERIFIER_PROOF_HH

#include <optional>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "memory/ucode_cache.hh"
#include "verifier/liveness.hh"

namespace liquid
{

struct ProgramRanges;

/** Outcome of one proof attempt. */
enum class ProofVerdict : std::uint8_t
{
    Proved,        ///< every obligation discharged
    Refuted,       ///< a concrete counterexample distinguishes the runs
    Unknown,       ///< an obligation exceeded the discharge budget
    NoTranslation, ///< no microcode commits at this width (vacuous)
};

/** Canonical verdict name: "proved", "refuted", ... */
const char *proofVerdictName(ProofVerdict verdict);

/** Severity order: Refuted > Unknown > Proved > NoTranslation. */
ProofVerdict worseProofVerdict(ProofVerdict a, ProofVerdict b);

/** One leaf assignment of a counterexample environment. */
struct CeAssignment
{
    std::string sym;      ///< printable symbol name
    Word value = 0;       ///< assigned (post-extension) value
    bool isMem = false;   ///< an initial-memory element
    Addr addr = 0;        ///< isMem: element address
    unsigned size = 4;    ///< isMem: element size in bytes
};

/** A concrete counterexample extracted from a failed obligation. */
struct Counterexample
{
    std::vector<CeAssignment> assigns;
    std::string obligation;   ///< which obligation failed
    Word scalarValue = 0;     ///< obligation LHS under the environment
    Word simdValue = 0;       ///< obligation RHS under the environment
    /** True when every assigned leaf is an initial-memory element, so
     *  the environment is realizable as a program data image. */
    bool memOnly = false;
    bool replayed = false;          ///< a chaos-oracle replay was run
    bool replayConfirmed = false;   ///< the replay diverged as predicted
    std::string replayNote;         ///< why a replay was skipped
    std::vector<std::string> replayMismatches;
};

/** Proof result for one region at one requested width. */
struct WidthProof
{
    unsigned width = 0;       ///< requested accelerator width
    unsigned boundWidth = 0;  ///< width the microcode committed at
    ProofVerdict verdict = ProofVerdict::Unknown;
    std::string summary;      ///< one-line outcome description
    unsigned obligations = 0;
    unsigned closedStructural = 0;  ///< equal after normalization
    unsigned closedEnum = 0;        ///< closed by enumeration
    unsigned unknownObligations = 0;
    std::uint64_t enumPoints = 0;   ///< concrete points evaluated
    /** Enumeration leaves pinned to proven region-entry constants. */
    unsigned rangePinned = 0;
    std::optional<Counterexample> ce;
    /** Covered by the single width-generic (symbolic-N) proof. */
    bool widthGeneric = false;
    /** Work counters of this width's own proof, not reported: terms
     *  its pool interned and tape ops its enumeration evaluated. */
    std::uint64_t terms = 0;
    std::uint64_t tapeOps = 0;
};

/** Outcome of the width-polymorphic proof attempt. */
struct SymbolicNProof
{
    bool attempted = false;
    bool proved = false;
    std::string summary;  ///< why it did not apply / did not close
    unsigned obligations = 0;
    std::uint64_t enumPoints = 0;
    /**
     * Corroboration from the width-polymorphic static verifier
     * (poly.hh): polyValidity is its predicate on N, and
     * polyUnbounded says the rules/depcheck side also verifies for
     * arbitrarily large N — together with `proved` (microcode
     * equivalence at every ladder width plus the width-generic lane
     * argument) this extends the claim past the ladder.
     */
    bool polyUnbounded = false;
    std::string polyValidity;
};

/** Proof results for one region across the requested widths. */
struct RegionProof
{
    int entryIndex = -1;
    std::string entryLabel;
    unsigned widthHint = 0;
    RegSet demand;            ///< demanded live-outs proved equal
    std::vector<WidthProof> widths;
    SymbolicNProof symbolicN;

    /** Worst verdict across widths (NoTranslation when empty). */
    ProofVerdict overall() const;
};

/** Proof results for every hinted region of a program. */
struct ProgramProof
{
    std::vector<RegionProof> regions;

    ProofVerdict overall() const;
    unsigned count(ProofVerdict verdict) const;
};

/** Prover options. */
struct ProofOptions
{
    /** Accelerator widths to prove (the fallback ladder's rungs). */
    std::vector<unsigned> widths{2, 4, 8, 16};
    /** Try the width-polymorphic proof before the per-width ones. */
    bool symbolicN = false;
    /** Replay refutations through the chaos oracle. */
    bool replay = true;
    /** Symbolic-step budget per run (scalar region or microcode). */
    std::uint64_t maxSteps = 1'000'000;
    /** Obligations with more distinct leaves than this are Unknown. */
    unsigned maxEnumLeaves = 8;
    /**
     * Whole-program value-range analysis (range.hh). When set and
     * sound, an initial-memory leaf whose cell the analysis proves
     * constant at region entry enumerates only that value: it stops
     * counting against maxEnumLeaves and its corner sweep collapses
     * to one point. The equivalence claim correspondingly narrows
     * from all syntactic environments to the environments the program
     * can actually reach — which is what the verifier asserts.
     * Refutations remain realizable (the pinned value is the one the
     * program image produces).
     */
    const ProgramRanges *ranges = nullptr;
};

/**
 * The recursion-free core: prove that executing @p ucode is
 * architecturally equivalent to executing the scalar region at
 * @p entry_index, for the store set and the registers in @p demand.
 * Does not translate, does not replay — callers own both.
 * @p region_insts is how many scalar instructions the region retires
 * (OfflineResult::regionInsts); the scalar run interns about one term
 * per instruction, so it sizes the term pool.
 */
WidthProof proveTranslation(const Program &prog, int entry_index,
                            const UcodeEntry &ucode,
                            std::uint64_t region_insts,
                            const RegSet &demand, const ProofOptions &opts);

/**
 * Prove one region at every requested width: runs the offline
 * translator's width-binding cascade (translateWithFallback() —
 * exactly the microcode the hardware commits), then proveTranslation
 * on the committed entry. Refutations
 * are replayed through the chaos oracle when opts.replay is set.
 */
RegionProof proveRegion(const Program &prog, int entry_index,
                        unsigned width_hint, const RegSet &demand,
                        const ProofOptions &opts);

/**
 * Prove every hinted region of @p prog, sharing one interprocedural
 * liveness solution for the live-out contracts.
 */
ProgramProof proveProgram(const Program &prog, const ProofOptions &opts);

/**
 * Replay @p ce as a program run: apply its initial-memory writes to a
 * copy of @p prog, re-derive the scalar reference, run Liquid mode at
 * @p width fault-free and record whether the architectural state
 * diverges. Returns ce.replayConfirmed. Requires ce.memOnly.
 */
bool replayCounterexample(const Program &prog, unsigned width,
                          Counterexample &ce);

/**
 * Replay @p ce against a specific microcode entry: like
 * replayCounterexample, but @p ucode is pre-injected into the
 * microcode cache (ready at cycle 0) so the core executes it instead
 * of the translator's own commit — the replay path for mutated-ucode
 * refutations.
 */
bool replayCounterexampleInjected(const Program &prog, unsigned width,
                                  const UcodeEntry &ucode,
                                  Counterexample &ce);

/** One sabotage scenario's outcome. */
struct SabotageOutcome
{
    std::string name;      ///< scenario name, e.g. "overlapStoreStore"
    std::string expect;    ///< "noTranslation" or "refuted"
    ProofVerdict verdict = ProofVerdict::Unknown;
    bool replayConfirmed = false;  ///< refutations only
    bool pass = false;     ///< verdict (and replay) matched expectation
    std::string detail;
};

/**
 * The adversarial gate: run the prover against every scalarizer
 * sabotage mode (EmitOptions::Sabotage) plus a set of direct microcode
 * mutations (truncated tail, wrong opcode, wrong IV step, dropped
 * store, flipped permutation, corrupted constant vector). Abort-class
 * sabotages must come back NoTranslation; miscompile-class sabotages
 * and every mutation must come back Refuted with a chaos-replay-
 * confirmed counterexample.
 */
std::vector<SabotageOutcome> runSabotageSuite(const ProofOptions &opts);

} // namespace liquid

#endif // LIQUID_VERIFIER_PROOF_HH
