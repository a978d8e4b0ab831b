/**
 * @file
 * Static Table-1/Table-3 conformance analysis of one outlined region.
 *
 * analyzeRegion() walks the region's instructions from the entry and
 * drives the translator's own rule automaton (RuleAutomaton,
 * translator/rule_automaton.hh) with what an AbsMachine (dataflow.hh)
 * says the retire bus would have carried. There is no second copy of
 * the rules: this file owns only the walk, its step budget, and the
 * mapping of the automaton's outcomes to verdicts.
 *
 * The outcome is therefore a *prediction* of translateOffline() at the
 * same width: Ok predicts a commit (with the exact microcode size and
 * constant-pool count), Error predicts an abort with the given reason,
 * and Warn means some decision needed runtime state the analysis
 * cannot see (a Top value the automaton asked for, a branch on
 * non-constant data, control flow leaving the text, a region longer
 * than the analysis budget).
 */

#ifndef LIQUID_VERIFIER_RULES_HH
#define LIQUID_VERIFIER_RULES_HH

#include <string>
#include <vector>

#include "asm/program.hh"
#include "translator/rule_automaton.hh"
#include "translator/translator.hh"
#include "verifier/diagnostics.hh"

namespace liquid
{

/** Result of statically analyzing one region at one binding width. */
struct StaticOutcome
{
    Severity verdict = Severity::Ok;
    AbortReason reason = AbortReason::None;  ///< Error: predicted abort
    int reasonIndex = -1;   ///< instruction index where it was decided
    std::string warnCondition;  ///< Warn: the runtime condition

    // Predictions, valid when the verdict is Ok.
    unsigned ucodeInsts = 0;  ///< microcode size after collapse
    unsigned cvecs = 0;       ///< constant vectors interned
    unsigned loopsVerified = 0;
    unsigned ucodeLoopInsts = 0;  ///< collapsed slots inside loop bodies
    unsigned loopIters = 0;       ///< scalar iterations across all loops

    unsigned analyzedInsts = 0;   ///< abstract retires observed
    std::vector<int> visited;     ///< distinct instruction indices walked
    /** External range facts the walk consumed (for diagnostics). */
    std::vector<std::string> factsUsed;
};

class EntryFacts;

/**
 * Statically analyze the region entered at @p entry_index, bound at
 * @p capture_width lanes (the caller applies the width hint and any
 * fallback halving, mirroring Translator::onCall). @p facts supplies
 * proven region-entry values from the whole-program range analysis;
 * null reproduces the facts-free walk. A non-null @p poly switches the
 * walk into the width-polymorphic recording mode described on
 * WidthCheckSink; capture_width then only scales emitted IV strides
 * and must not affect the outcome.
 */
StaticOutcome analyzeRegion(const Program &prog, int entry_index,
                            const TranslatorConfig &config,
                            unsigned capture_width,
                            const EntryFacts *facts = nullptr,
                            WidthCheckSink *poly = nullptr);

} // namespace liquid

#endif // LIQUID_VERIFIER_RULES_HH
