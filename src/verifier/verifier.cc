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

    unsigned bind = bindWidth(opts.config.simdWidth, width_hint);
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

    // The translation-validation prover, run against the microcode the
    // offline translator commits at a width; nullopt when translation
    // itself aborts (there is nothing to prove against). Its live-out
    // contract comes from whole-program liveness, solved lazily, at
    // most once. Replay is off: the static verifier reports the
    // counterexample assignment but does not spin up a simulator pair.
    std::optional<RegSet> demand;
    auto proveAt = [&](unsigned width) -> std::optional<WidthProof> {
        const OfflineResult off =
            translateOffline(prog, entry_index, width, width_hint);
        if (!off.ok)
            return std::nullopt;
        if (!demand)
            demand = solveProgramLiveness(prog).demandAt(entry_index);
        ProofOptions popts;
        popts.replay = false;
        popts.ranges = opts.ranges;
        return proveTranslation(prog, entry_index, off.entry,
                                off.regionInsts, *demand, popts);
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

    // The translation commits at `bind`, or commits microcode that
    // silently miscompiles. Either is the region's fate: the cascade
    // stops here, whatever an earlier width headlined.
    auto settle = [&](Severity sev, AbortReason reason,
                      const StaticOutcome &outcome) {
        headline_set = true;
        report.verdict = sev;
        report.reason = reason;
        report.predictedWidth = bind;
        report.predictedUcode = outcome.ucodeInsts;
        report.predictedCvecs = outcome.cvecs;
    };
    auto commit = [&](const StaticOutcome &outcome, std::string message) {
        settle(Severity::Ok, AbortReason::None, outcome);
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
        d.message = std::move(message);
        report.diags.push_back(std::move(d));
        attachRangeEvidence();
        addCoverageDiags(cfg, outcome, report);
    };
    auto miscompile = [&](const StaticOutcome &outcome, int inst_index,
                          std::string message) {
        settle(Severity::Error, AbortReason::MemoryDependence, outcome);
        report.depMiscompile = true;
        Diagnostic d;
        d.severity = Severity::Error;
        d.reason = AbortReason::MemoryDependence;
        d.instIndex = inst_index;
        d.message = std::move(message);
        report.diags.push_back(std::move(d));
    };

    // What ended the last width. A Warn leaves its width open, and the
    // cascade walks on as after a width-class abort: a narrower width
    // may still certify.
    AbortReason ended = AbortReason::None;
    const AbortReason openWidth = AbortReason::LanesIncomplete;
    for (; bind != 0;
         bind = opts.widthFallback ? fallbackWidth(bind, ended) : 0) {
        const StaticOutcome outcome = analyzeRegion(
            prog, entry_index, opts.config, bind, facts);
        report.analyzedInsts = outcome.analyzedInsts;
        noteFacts(outcome.factsUsed);

        if (outcome.verdict == Severity::Error) {
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
                // The runtime interval test is conservative: note when
                // the distance analysis proves the overlap harmless.
                // The verdict stays Error — the hardware will still
                // abort.
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
            ended = outcome.reason;
            continue;
        }

        // The mirror cannot predict this width's outcome, or (below)
        // depcheck cannot resolve it and nothing proved it.
        int warnIndex = outcome.reasonIndex;
        std::string warn = outcome.warnCondition;
        if (outcome.verdict == Severity::Ok) {
            const DepcheckResult &dep = depResult();
            const WidthVerdict &wv = dep.verdictAt(bind);

            if (wv.kind == WidthVerdict::Kind::Unsafe) {
                // The translator's runtime dependence check misses
                // this pair: it commits at this width and the vector
                // groups execute the pair in the wrong order.
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
                miscompile(outcome, wv.pair.storeIndex, os.str());
                return report;
            }

            // Depcheck Safe proves SIMD at this width preserves scalar
            // memory semantics; Unknown means it is out of its depth.
            // The prover (when enabled) checks the microcode end to
            // end: a refutation holds a concrete counterexample and
            // wins over either, and a proof settles an Unknown width.
            const bool safe = wv.kind == WidthVerdict::Kind::Safe;
            const std::optional<WidthProof> proof =
                opts.prove ? proveAt(bind) : std::nullopt;
            if (proof) {
                report.proofVerdict = proofVerdictName(proof->verdict);
                report.proofSummary = proof->summary;
            }
            const auto proven = [&](ProofVerdict v) {
                return proof && proof->verdict == v;
            };
            if (proven(ProofVerdict::Refuted)) {
                const std::string w = std::to_string(bind);
                miscompile(outcome, entry_index,
                           safe ? "depcheck passed width " + w +
                                      " but translation validation "
                                      "refutes it: " + proof->summary
                                : "silent miscompile at width " + w +
                                      ", proven by translation "
                                      "validation: " + proof->summary);
                return report;
            }
            if (safe || proven(ProofVerdict::Proved)) {
                std::ostringstream os;
                if (safe)
                    os << "translation commits at width " << bind << " ("
                       << outcome.ucodeInsts << " microcode insts, "
                       << outcome.loopsVerified << " verified loop(s))";
                else
                    os << "depcheck could not resolve width " << bind
                       << ", but the translation proof closes it: "
                       << proof->summary;
                commit(outcome, os.str());
                return report;
            }

            std::ostringstream os;
            os << "memoryDependence";
            if (dep.resolved) {
                // Budget exhaustion is genuinely per-width.
                os << " at width " << bind << ": " << wv.why;
            } else {
                os << ": " << dep.unresolvedWhy;
            }
            warnIndex = dep.unresolvedIndex;
            warn = os.str();
        }

        headline(Severity::Warn, AbortReason::None);
        warnOnce(warnIndex, std::move(warn));
        if (!opts.widthFallback)
            return report;
        ended = openWidth;
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
