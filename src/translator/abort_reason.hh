/**
 * @file
 * Stable taxonomy of translation-abort reasons.
 *
 * Every legality check in the dynamic translator (paper Section 4's
 * rule automaton) reports one of these reasons. The canonical string
 * names are part of the tool contract: they key the translator's
 * statistic counters ("abort.<name>"), the offline translator's
 * OfflineResult, and the static verifier's diagnostics, and the
 * differential tests assert that all three agree. Add new reasons at
 * the end of their class group; never rename an existing one.
 */

#ifndef LIQUID_TRANSLATOR_ABORT_REASON_HH
#define LIQUID_TRANSLATOR_ABORT_REASON_HH

#include <string>

#include "common/types.hh"

namespace liquid
{

/** Why a region's translation aborted (canonical name in comments). */
enum class AbortReason : std::uint8_t
{
    None,                 ///< no abort (translation committed)

    // -- structure: the region does not fit the outlined-loop format --
    NestedCall,           ///< "nestedCall"
    ForwardBranch,        ///< "forwardBranch"
    RetInsideLoop,        ///< "retInsideLoop"
    BackedgeTargetUnseen, ///< "backedgeTargetUnseen"
    ShapeMismatch,        ///< "shapeMismatch"
    VectorOutsideLoop,    ///< "vectorOutsideLoop"
    DanglingBranch,       ///< "danglingBranch"
    UnindexedInst,        ///< "unindexedInst"
    IdiomIncomplete,      ///< "idiomIncomplete"
    UnfinalizedPatches,   ///< "unfinalizedPatches"

    // -- opcode: an instruction outside the Table 1/3 repertoire --
    VectorOpcode,         ///< "vectorOpcode"
    UntranslatableOpcode, ///< "untranslatableOpcode"
    ConditionalMov,       ///< "conditionalMov"
    MovFromNonScalar,     ///< "movFromNonScalar"
    LoadWithoutIndex,     ///< "loadWithoutIndex"
    LoadBadIndex,         ///< "loadBadIndex"
    StoreWithoutIndex,    ///< "storeWithoutIndex"
    StoreScalarData,      ///< "storeScalarData"
    StoreBadIndex,        ///< "storeBadIndex"
    VectorCompare,        ///< "vectorCompare"
    UnsupportedReduction, ///< "unsupportedReduction"
    NoVectorEquivalent,   ///< "noVectorEquivalent"
    VectorScalarMix,      ///< "vectorScalarMix"
    OffsetsInArithmetic,  ///< "offsetsInArithmetic"
    IvArithmetic,         ///< "ivArithmetic"

    // -- idiom: a saturation idiom started but lost its shape --
    IdiomNoProducer,      ///< "idiomNoProducer"
    IdiomShape,           ///< "idiomShape"
    IdiomBadProducer,     ///< "idiomBadProducer"

    // -- dataflow: observed values broke a multi-lane invariant --
    ValueTooWide,         ///< "valueTooWide"
    AddressMismatch,      ///< "addressMismatch"
    IvMismatch,           ///< "ivMismatch"
    MemoryDependence,     ///< "memoryDependence"

    // -- width: can succeed at a narrower binding (fallback retries) --
    TripCount,            ///< "tripCount"
    UnsupportedShuffle,   ///< "unsupportedShuffle"
    ValueMismatch,        ///< "valueMismatch"
    LanesIncomplete,      ///< "lanesIncomplete"

    // -- capacity: microcode buffer limits --
    UcodeOverflow,        ///< "ucodeOverflow"

    // -- runtime: external events, not a property of the region --
    Interrupt,            ///< "interrupt"
    UcodeFlushed,         ///< "ucodeFlushed"
    UcodeEvicted,         ///< "ucodeEvicted"
    SmcInvalidated,       ///< "smcInvalidated"

    NumReasons,
};

/**
 * Coarse grouping used by the differential tests: the static verifier
 * must predict the dynamic translator's abort *class* even when check
 * ordering makes the precise reason ambiguous.
 */
enum class ReasonClass : std::uint8_t
{
    None,       ///< translation committed
    Structure,  ///< region shape outside the outlined-loop format
    Opcode,     ///< instruction outside the conversion-rule repertoire
    Idiom,      ///< malformed saturation idiom
    Dataflow,   ///< multi-lane value/address invariant violated
    Width,      ///< width-dependent; a narrower binding may succeed
    Capacity,   ///< microcode buffer overflow
    Runtime,    ///< external interrupt — unknowable statically
};

/** Canonical string name, e.g. "tripCount" (stats key "abort.<name>"). */
const char *abortReasonName(AbortReason reason);

/**
 * One-line human description of the reason, shared by the translator
 * statistics, the verifier diagnostics and the scan report so every
 * tool explains an abort in the same words. Rendered from the same
 * table as abortReasonName(); a static_assert guarantees the table
 * covers every enum value.
 */
const char *abortReasonDescription(AbortReason reason);

/** Parse a canonical name; returns NumReasons when unknown. */
AbortReason parseAbortReason(const std::string &name);

/** The reason's class. */
ReasonClass abortReasonClass(AbortReason reason);

/** Printable class name ("structure", "opcode", ...). */
const char *reasonClassName(ReasonClass cls);

/**
 * True if this failure can succeed at a narrower width binding (the
 * dynamic translator's width-fallback retry set) — exactly the Width
 * class.
 */
inline bool
abortIsWidthDependent(AbortReason reason)
{
    return abortReasonClass(reason) == ReasonClass::Width;
}

/**
 * The width-binding cascade that the translator, the offline
 * translator, the verifier and the prover all walk. A region binds at
 * the accelerator's @p width, capped by its compiled maximum
 * vectorizable width @p hint (bl.simd<N>, paper Section 3.1; 0 = no
 * cap). Below 2 the region is never captured.
 */
inline unsigned
bindWidth(unsigned width, unsigned hint)
{
    return hint != 0 && hint < width ? hint : width;
}

/**
 * The cascade's next binding after an attempt at @p bind ended with
 * @p reason: half the width when the abort is width-class and the half
 * is still at least 2, otherwise 0 (the cascade ends).
 */
inline unsigned
fallbackWidth(unsigned bind, AbortReason reason)
{
    const unsigned half = bind / 2;
    return abortIsWidthDependent(reason) && half >= 2 ? half : 0;
}

/**
 * Can this loaded value live in the translator's per-lane value state?
 * The paper stores only small values ("numbers that are too big to
 * represent simply abort"): permutation offsets, small constants, and
 * all-ones/all-zero lane masks. Shared by the hardware translator and
 * the static verifier so both classify streams identically.
 */
inline bool
laneRepresentable(Word value)
{
    if (value == 0xFFFFFFFFu)
        return true;  // lane-mask "keep" pattern
    const SWord s = static_cast<SWord>(value);
    return s >= -128 && s <= 127;
}

} // namespace liquid

#endif // LIQUID_TRANSLATOR_ABORT_REASON_HH
