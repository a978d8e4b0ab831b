#include "verifier/verifier.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "translator/cost_model.hh"
#include "translator/offline.hh"
#include "verifier/cfg.hh"
#include "verifier/depcheck.hh"
#include "verifier/liveness.hh"
#include "verifier/poly.hh"
#include "verifier/proof.hh"
#include "verifier/range.hh"
#include "verifier/rules.hh"

namespace liquid
{

namespace
{

/** Ok-verdict coverage check: CFG-reachable but never analyzed. */
void
addCoverageDiags(const RegionCfg &cfg, const StaticOutcome &outcome,
                 RegionReport &report)
{
    std::vector<int> unseen;
    for (const int i : cfg.instructions()) {
        if (!std::binary_search(outcome.visited.begin(),
                                outcome.visited.end(), i))
            unseen.push_back(i);
    }
    if (unseen.empty())
        return;
    std::ostringstream os;
    os << unseen.size() << " instruction(s) reachable in the CFG were "
       << "never executed on the analyzed path (first at inst "
       << unseen.front()
       << "); the prediction holds only while those paths stay cold";
    Diagnostic d;
    d.severity = Severity::Warn;
    d.instIndex = unseen.front();
    d.message = os.str();
    report.diags.push_back(std::move(d));
}

/**
 * Run the translation-validation prover against the microcode the
 * offline translator commits at @p bind. nullopt when translation
 * itself aborts (there is nothing to prove against). Replay is off:
 * the static verifier reports the counterexample assignment but does
 * not spin up a simulator pair.
 */
std::optional<WidthProof>
proveBindWidth(const Program &prog, int entry_index, unsigned bind,
               unsigned width_hint, const ProgramRanges *ranges)
{
    const OfflineResult off =
        translateOffline(prog, entry_index, bind, width_hint);
    if (!off.ok)
        return std::nullopt;
    ProofOptions popts;
    popts.replay = false;
    popts.ranges = ranges;
    return proveTranslation(prog, entry_index, off.entry,
                            solveProgramLiveness(prog).demandAt(
                                entry_index),
                            popts);
}

} // namespace

/** The per-width verification cascade; poly attachment happens in the
 *  public wrapper so every early return is covered. */
static RegionReport
verifyRegionImpl(const Program &prog, int entry_index,
                 const VerifyOptions &opts, unsigned width_hint)
{
    RegionReport report;
    report.entryIndex = entry_index;
    report.entryLabel = prog.labelAt(entry_index);
    report.requestedWidth = opts.config.simdWidth;
    report.widthHint = width_hint;

    const RegionCfg cfg = RegionCfg::build(prog, entry_index);
    report.blockCount = static_cast<unsigned>(cfg.blocks().size());
    report.loopCount = static_cast<unsigned>(cfg.loops().size());

    if (cfg.fallsOffEnd()) {
        Diagnostic d;
        d.severity = Severity::Warn;
        d.message = "a reachable path runs past the end of the "
                    "program text";
        report.diags.push_back(std::move(d));
    }

    // Mirror of Translator::onCall width binding.
    unsigned bind = opts.config.simdWidth;
    if (width_hint != 0)
        bind = std::min(bind, width_hint);
    if (bind < 2) {
        report.verdict = Severity::Warn;
        Diagnostic d;
        d.severity = Severity::Warn;
        d.instIndex = entry_index;
        d.message = "effective width below 2: the translator never "
                    "captures this region";
        report.diags.push_back(std::move(d));
        return report;
    }

    // Proven region-entry facts from the whole-program range analysis
    // feed both abstract walks (the rule mirror and depcheck).
    std::optional<RangeFacts> rangeFacts;
    const EntryFacts *facts = nullptr;
    if (opts.ranges && opts.ranges->sound) {
        rangeFacts.emplace(prog, *opts.ranges, entry_index);
        facts = &*rangeFacts;
    }
    DepcheckOptions depOpts = opts.dep;
    depOpts.facts = facts;

    auto noteFacts = [&](const std::vector<std::string> &used) {
        for (const std::string &f : used) {
            if (std::find(report.rangeFacts.begin(),
                          report.rangeFacts.end(),
                          f) == report.rangeFacts.end())
                report.rangeFacts.push_back(f);
        }
    };

    /** One `range:` Ok diagnostic per consumed fact (deduplicated). */
    auto attachRangeEvidence = [&]() {
        for (const std::string &f : report.rangeFacts) {
            const std::string msg = "range: " + f;
            bool seen = false;
            for (const Diagnostic &d : report.diags)
                seen = seen || d.message == msg;
            if (seen)
                continue;
            Diagnostic d;
            d.severity = Severity::Ok;
            d.instIndex = entry_index;
            d.message = msg;
            report.diags.push_back(std::move(d));
        }
    };

    /** Feed proven trip bounds and access alignment to the cost model. */
    auto refineCost = [&](RegionCostInputs &ci) {
        if (!opts.ranges || !opts.ranges->sound)
            return;
        const Interval trip = opts.ranges->tripBound(entry_index);
        if (!trip.isTop() && !trip.empty() && trip.hi > 0 &&
            trip.hi > static_cast<std::int64_t>(ci.loopIters))
            ci.tripBound = static_cast<unsigned long>(trip.hi);
        unsigned align = 0;
        for (const int i : cfg.instructions()) {
            if (!prog.code()[i].isMem())
                continue;
            const unsigned a =
                static_cast<unsigned>(opts.ranges->accessAlign(i));
            align = align == 0 ? a : std::min(align, a);
        }
        ci.minAlignBytes = align;
    };

    // Memory-dependence analysis is width-independent (it resolves all
    // candidate widths in one walk); run it lazily, at most once.
    bool dep_ran = false;
    auto depResult = [&]() -> const DepcheckResult & {
        if (!dep_ran) {
            report.dep = analyzeDeps(prog, entry_index, cfg, depOpts);
            report.depAnalyzed = true;
            dep_ran = true;
            noteFacts(report.dep.factsUsed);
        }
        return report.dep;
    };

    // The headline verdict is the first non-Ok outcome on the fallback
    // cascade (what a translateOffline() call at full width reports) —
    // unless a narrower width later proves Ok, which overrides it: the
    // dynamic translator retries width-dependent failures and ends up
    // committed, so the region's fate is Ok.
    bool headline_set = false;
    auto headline = [&](Severity sev, AbortReason reason) {
        if (headline_set)
            return;
        headline_set = true;
        report.verdict = sev;
        report.reason = reason;
    };

    // Width-independent Warn conditions recur at every fallback width;
    // report each condition once.
    auto warnOnce = [&](int inst_index, std::string message) {
        for (const Diagnostic &d : report.diags) {
            if (d.severity == Severity::Warn && d.message == message)
                return;
        }
        Diagnostic d;
        d.severity = Severity::Warn;
        d.instIndex = inst_index;
        d.message = std::move(message);
        report.diags.push_back(std::move(d));
    };

    for (; bind >= 2; bind /= 2) {
        const StaticOutcome outcome = analyzeRegion(
            prog, entry_index, opts.config, bind, facts);
        report.analyzedInsts = outcome.analyzedInsts;
        noteFacts(outcome.factsUsed);

        if (outcome.verdict == Severity::Ok) {
            const DepcheckResult &dep = depResult();
            const WidthVerdict &wv = dep.verdictAt(bind);

            if (wv.kind == WidthVerdict::Kind::Unsafe) {
                // The translator's runtime dependence check misses
                // this pair: it commits at this width and the vector
                // groups execute the pair in the wrong order. The
                // cascade dynamically stops here, so this is the
                // region's fate regardless of any earlier headline.
                headline_set = true;
                report.verdict = Severity::Error;
                report.reason = AbortReason::MemoryDependence;
                report.depMiscompile = true;
                report.predictedWidth = bind;
                report.predictedUcode = outcome.ucodeInsts;
                report.predictedCvecs = outcome.cvecs;
                Diagnostic d;
                d.severity = Severity::Error;
                d.reason = AbortReason::MemoryDependence;
                d.instIndex = wv.pair.storeIndex;
                std::ostringstream os;
                os << "silent miscompile at width " << bind
                   << ": the store at inst " << wv.pair.storeIndex
                   << " and the "
                   << (wv.pair.otherIsStore ? "store" : "load")
                   << " at inst " << wv.pair.otherIndex
                   << " touch address 0x" << std::hex << wv.pair.addr
                   << std::dec << " at carried distance "
                   << wv.pair.distance << " < " << bind
                   << " with textual order opposite iteration order; "
                   << "the dynamic dependence check cannot see this "
                   << "pair, so translation commits anyway";
                d.message = os.str();
                report.diags.push_back(std::move(d));
                return report;
            }

            if (wv.kind == WidthVerdict::Kind::Unknown) {
                // The static dependence analysis is out of its depth;
                // the translation-validation prover (when enabled) can
                // still settle the width by checking the microcode the
                // translator would actually commit.
                if (opts.prove) {
                    const std::optional<WidthProof> po = proveBindWidth(
                        prog, entry_index, bind, width_hint,
                        opts.ranges);
                    if (po) {
                        const WidthProof &wp = *po;
                        report.proofVerdict =
                            proofVerdictName(wp.verdict);
                        report.proofSummary = wp.summary;

                        if (wp.verdict == ProofVerdict::Proved) {
                            headline_set = true;
                            report.verdict = Severity::Ok;
                            report.reason = AbortReason::None;
                            report.predictedWidth = bind;
                            report.predictedUcode = outcome.ucodeInsts;
                            report.predictedCvecs = outcome.cvecs;

                            RegionCostInputs ci;
                            ci.scalarInsts = outcome.analyzedInsts;
                            ci.ucodeInsts = outcome.ucodeInsts;
                            ci.ucodeLoopInsts = outcome.ucodeLoopInsts;
                            ci.loopIters = outcome.loopIters;
                            ci.width = bind;
                            refineCost(ci);
                            const RegionCostEstimate cost =
                                estimateRegionCost(ci);
                            report.predictedScalarCycles =
                                cost.scalarCycles;
                            report.predictedSimdCycles =
                                cost.simdCycles;
                            report.predictedSpeedup = cost.speedup;

                            Diagnostic d;
                            d.severity = Severity::Ok;
                            d.instIndex = entry_index;
                            d.message =
                                "depcheck could not resolve width " +
                                std::to_string(bind) +
                                ", but the translation proof closes "
                                "it: " + wp.summary;
                            report.diags.push_back(std::move(d));
                            attachRangeEvidence();
                            addCoverageDiags(cfg, outcome, report);
                            return report;
                        }

                        if (wp.verdict == ProofVerdict::Refuted) {
                            headline_set = true;
                            report.verdict = Severity::Error;
                            report.reason =
                                AbortReason::MemoryDependence;
                            report.depMiscompile = true;
                            report.predictedWidth = bind;
                            report.predictedUcode = outcome.ucodeInsts;
                            report.predictedCvecs = outcome.cvecs;
                            Diagnostic d;
                            d.severity = Severity::Error;
                            d.reason = AbortReason::MemoryDependence;
                            d.instIndex = entry_index;
                            d.message =
                                "silent miscompile at width " +
                                std::to_string(bind) +
                                ", proven by translation validation: " +
                                wp.summary;
                            report.diags.push_back(std::move(d));
                            return report;
                        }
                        // Unknown: fall through to the Warn below.
                    }
                }

                headline(Severity::Warn, AbortReason::None);
                std::ostringstream os;
                os << "memoryDependence";
                if (dep.resolved) {
                    // Budget exhaustion is genuinely per-width.
                    os << " at width " << bind << ": " << wv.why;
                } else {
                    os << ": " << dep.unresolvedWhy;
                }
                warnOnce(dep.unresolvedIndex, os.str());
                if (!opts.widthFallback)
                    return report;
                continue;
            }

            // Depcheck proves SIMD at this width preserves scalar
            // memory semantics: the commit is safe. The prover (when
            // enabled) double-checks the committed microcode end to
            // end; a refutation means depcheck and the prover
            // disagree, and the prover holds a concrete
            // counterexample, so it wins.
            if (opts.prove) {
                const std::optional<WidthProof> po = proveBindWidth(
                    prog, entry_index, bind, width_hint, opts.ranges);
                if (po) {
                    report.proofVerdict = proofVerdictName(po->verdict);
                    report.proofSummary = po->summary;
                    if (po->verdict == ProofVerdict::Refuted) {
                        headline_set = true;
                        report.verdict = Severity::Error;
                        report.reason = AbortReason::MemoryDependence;
                        report.depMiscompile = true;
                        report.predictedWidth = bind;
                        report.predictedUcode = outcome.ucodeInsts;
                        report.predictedCvecs = outcome.cvecs;
                        Diagnostic d;
                        d.severity = Severity::Error;
                        d.reason = AbortReason::MemoryDependence;
                        d.instIndex = entry_index;
                        d.message =
                            "depcheck passed width " +
                            std::to_string(bind) +
                            " but translation validation refutes "
                            "it: " + po->summary;
                        report.diags.push_back(std::move(d));
                        return report;
                    }
                }
            }

            headline_set = true;
            report.verdict = Severity::Ok;
            report.reason = AbortReason::None;
            report.predictedWidth = bind;
            report.predictedUcode = outcome.ucodeInsts;
            report.predictedCvecs = outcome.cvecs;

            RegionCostInputs ci;
            ci.scalarInsts = outcome.analyzedInsts;
            ci.ucodeInsts = outcome.ucodeInsts;
            ci.ucodeLoopInsts = outcome.ucodeLoopInsts;
            ci.loopIters = outcome.loopIters;
            ci.width = bind;
            refineCost(ci);
            const RegionCostEstimate cost = estimateRegionCost(ci);
            report.predictedScalarCycles = cost.scalarCycles;
            report.predictedSimdCycles = cost.simdCycles;
            report.predictedSpeedup = cost.speedup;

            Diagnostic d;
            d.severity = Severity::Ok;
            d.instIndex = entry_index;
            std::ostringstream os;
            os << "translation commits at width " << bind << " ("
               << outcome.ucodeInsts << " microcode insts, "
               << outcome.loopsVerified << " verified loop(s))";
            d.message = os.str();
            report.diags.push_back(std::move(d));
            attachRangeEvidence();
            addCoverageDiags(cfg, outcome, report);
            return report;
        }

        if (outcome.verdict == Severity::Warn) {
            headline(Severity::Warn, AbortReason::None);
            // The mirror cannot predict this width's outcome, but a
            // narrower width may still be certifiable; keep walking so
            // a later-width Ok can claim the region.
            warnOnce(outcome.reasonIndex, outcome.warnCondition);
            if (!opts.widthFallback)
                return report;
            continue;
        }

        // Error at this width.
        headline(Severity::Error, outcome.reason);
        Diagnostic d;
        d.severity = Severity::Error;
        d.reason = outcome.reason;
        d.instIndex = outcome.reasonIndex;
        std::ostringstream os;
        os << "translation aborts at width " << bind << ": "
           << abortReasonName(outcome.reason) << " ("
           << reasonClassName(abortReasonClass(outcome.reason))
           << " check: " << abortReasonDescription(outcome.reason)
           << ")";
        d.message = os.str();
        report.diags.push_back(std::move(d));

        if (outcome.reason == AbortReason::MemoryDependence) {
            // The runtime interval test is conservative: note when the
            // distance analysis proves the overlap harmless. The
            // verdict stays Error — the hardware will still abort.
            const DepcheckResult &dep = depResult();
            if (dep.resolved &&
                dep.verdictAt(bind).kind == WidthVerdict::Kind::Safe) {
                Diagnostic note;
                note.severity = Severity::Ok;
                note.instIndex = outcome.reasonIndex;
                std::ostringstream ns;
                ns << "conservative abort: depcheck proves the "
                   << "overlapping streams safe at width " << bind
                   << " (" << dep.proofSummary(bind)
                   << "), but the translator's interval test cannot";
                note.message = ns.str();
                report.diags.push_back(std::move(note));
            }
        }

        if (!opts.widthFallback ||
            !abortIsWidthDependent(outcome.reason)) {
            attachRangeEvidence();
            return report;
        }
    }
    attachRangeEvidence();
    return report;
}

RegionReport
verifyRegion(const Program &prog, int entry_index,
             const VerifyOptions &opts, unsigned width_hint)
{
    RegionReport report =
        verifyRegionImpl(prog, entry_index, opts, width_hint);
    if (opts.poly) {
        DepcheckOptions depOpts = opts.dep;
        std::optional<RangeFacts> rangeFacts;
        if (opts.ranges && opts.ranges->sound) {
            rangeFacts.emplace(prog, *opts.ranges, entry_index);
            depOpts.facts = &*rangeFacts;
        }
        const PolyRegion poly =
            analyzePoly(prog, entry_index, opts.config, depOpts);
        report.polyAnalyzed = true;
        report.polyUnbounded = poly.validity.structuralUnbounded;
        report.polySummary = poly.validity.summary;
        report.polyOkWidths = poly.validity.okWidths;
        for (const NConstraint &c : poly.validity.constraints)
            report.polyConstraints.push_back(c.render());
    }
    return report;
}

ProgramReport
verifyProgram(const Program &prog, const VerifyOptions &opts)
{
    ProgramReport report;
    for (const HintedCall &call : prog.hintedCalls()) {
        report.regions.push_back(
            verifyRegion(prog, call.target, opts, call.widthHint));
    }
    return report;
}

} // namespace liquid
