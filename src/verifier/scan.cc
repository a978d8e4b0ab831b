#include "verifier/scan.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "translator/abort_reason.hh"
#include "verifier/poly.hh"

namespace liquid
{

namespace
{

Severity
maxSeverity(Severity a, Severity b)
{
    return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b)
               ? a
               : b;
}

/** Reachable instruction indices inside one natural loop's body. */
std::vector<int>
loopBodyInsts(const RegionCfg &cfg, const CfgLoop &loop)
{
    const auto &blocks = cfg.blocks();
    std::vector<int> body;
    if (loop.headBlock < 0 || loop.latchBlock < 0)
        return body;
    const int first =
        blocks[static_cast<std::size_t>(loop.headBlock)].first;
    const int last =
        blocks[static_cast<std::size_t>(loop.latchBlock)].last;
    for (const int i : cfg.instructions()) {
        if (i >= first && i <= last)
            body.push_back(i);
    }
    return body;
}

/**
 * Identify the loop's induction variable: the unique register with
 * exactly one definition in the body, stepped by an immediate
 * add/sub of itself, that the loop's exit compare consumes.
 */
RegSet
findLoopIvs(const Program &prog, const std::vector<int> &body)
{
    const auto &code = prog.code();
    std::map<unsigned, unsigned> defCount;
    std::set<unsigned> stepped;
    std::set<unsigned> compared;
    for (const int i : body) {
        const Inst &inst = code[static_cast<std::size_t>(i)];
        const InstEffects fx = instEffects(inst);
        for (const RegId def : fx.writes.regs())
            ++defCount[def.flat()];
        if ((inst.op == Opcode::Add || inst.op == Opcode::Sub) &&
            inst.hasImm && inst.dst.isValid() &&
            inst.dst == inst.src1)
            stepped.insert(inst.dst.flat());
        if (inst.op == Opcode::Cmp) {
            for (const RegId use : fx.reads.regs())
                compared.insert(use.flat());
        }
    }
    RegSet ivs;
    for (const unsigned flat : stepped) {
        if (defCount[flat] == 1 && compared.count(flat))
            ivs.add(RegId::fromFlat(flat));
    }
    return ivs;
}

} // namespace

Severity
ScanRegion::overallVerdict() const
{
    if (!candidate)
        return contractVerdict;
    // The region's fate is its best width (the dynamic translator
    // lands there through the fallback ladder), floored by any
    // contract finding.
    Severity best = Severity::Error;
    for (const WidthPrediction &p : predictions) {
        if (static_cast<std::uint8_t>(p.report.verdict) <
            static_cast<std::uint8_t>(best))
            best = p.report.verdict;
    }
    if (predictions.empty())
        best = Severity::Ok;
    return maxSeverity(contractVerdict, best);
}

unsigned
ScanReport::candidateCount() const
{
    unsigned n = 0;
    for (const ScanRegion &r : regions)
        n += r.candidate ? 1 : 0;
    return n;
}

bool
ScanReport::anyError() const
{
    return std::any_of(regions.begin(), regions.end(),
                       [](const ScanRegion &r) {
                           return r.overallVerdict() == Severity::Error;
                       });
}

ScanReport
scanProgram(const Program &prog, const ScanOptions &opts)
{
    ScanReport rep;
    const auto &code = prog.code();
    if (code.empty())
        return rep;

    // ---- 1-2. discovery + joint liveness fixpoint -------------------
    // Shared with the translation-validation prover, which needs the
    // same demanded-live-out contract (see liveness.hh).
    const ProgramLiveness pl = solveProgramLiveness(prog);
    const auto &cfgs = pl.cfgs;
    const auto &live = pl.live;
    const auto &demand = pl.demand;

    // ---- 3. per-function contract + prediction ----------------------
    for (const auto &[entry, fi] : pl.fns) {
        ScanRegion r;
        r.entryIndex = entry;
        r.entryLabel = prog.labelAt(entry);
        r.callSites = fi.callSites;
        r.hinted = fi.hinted;
        r.widthHint = fi.widthHint;

        const RegionCfg &cfg = cfgs.at(entry);
        r.blockCount = static_cast<unsigned>(cfg.blocks().size());
        r.loopCount = static_cast<unsigned>(cfg.loops().size());
        r.hasLoop = r.loopCount > 0;

        const Liveness &lv = live.at(entry);
        r.liveIn = lv.entryLiveIn();
        auto dit = demand.find(entry);
        if (dit != demand.end())
            r.liveOutDemanded = dit->second;

        auto diag = [&r](Severity sev, int index, std::string msg) {
            Diagnostic d;
            d.severity = sev;
            d.instIndex = index;
            d.message = std::move(msg);
            r.contractVerdict = maxSeverity(r.contractVerdict, sev);
            r.contractDiags.push_back(std::move(d));
        };

        if (!r.hasLoop) {
            diag(Severity::Warn, entry,
                 "no natural loop: nothing for the translator to "
                 "capture (discovered from the bl/ret convention "
                 "only)");
        }

        const auto dominators = blockDominators(cfg);
        for (const CfgLoop &loop : cfg.loops()) {
            if (!loopIsReducible(cfg, loop, dominators)) {
                r.irreducible = true;
                diag(Severity::Error, loop.backedgeIndex,
                     "irreducible loop: the back edge's target does "
                     "not dominate its source, so control enters the "
                     "loop body around its head — the translator's "
                     "single-entry capture cannot represent this");
            }
        }

        if (cfg.fallsOffEnd()) {
            diag(Severity::Warn, -1,
                 "a reachable path runs past the end of the program "
                 "text");
        }

        // Region-boundary contract: self-contained entry.
        RegSet vecLiveIn = r.liveIn.ofClass(RegClass::Vec);
        vecLiveIn |= r.liveIn.ofClass(RegClass::VFlt);
        const RegSet scalarLiveIn = r.liveIn.minus(vecLiveIn);
        if (!vecLiveIn.empty()) {
            diag(Severity::Error, entry,
                 "vector register(s) " + vecLiveIn.str() +
                     " live into the region: a scalar Liquid region "
                     "cannot consume vector caller state");
        }
        if (!scalarLiveIn.empty()) {
            diag(Severity::Warn, entry,
                 "region is not self-contained: reads " +
                     scalarLiveIn.str() +
                     " from the caller (the scalarizer emits regions "
                     "that initialize all state internally)");
        }

        // Results must escape through scalar registers only.
        if (r.liveOutDemanded.anyVector()) {
            diag(Severity::Error, entry,
                 "vector register(s) escape the region live: " +
                     r.liveOutDemanded.str() +
                     " are read by a caller after the bl");
        }

        // Induction variables stay private to the region.
        for (const CfgLoop &loop : cfg.loops()) {
            const auto body = loopBodyInsts(cfg, loop);
            const RegSet ivs = findLoopIvs(prog, body);
            r.ivRegs |= ivs;
            if (r.hasLoop && ivs.empty() && !r.irreducible) {
                diag(Severity::Warn, loop.backedgeIndex,
                     "loop has no isolated induction variable "
                     "(single immediate-stepped register feeding the "
                     "exit compare)");
            }
            for (const RegId iv : ivs.regs()) {
                if (r.liveIn.contains(iv)) {
                    diag(Severity::Warn, entry,
                         "induction variable " + regName(iv) +
                             " enters the region live: its initial "
                             "value is caller state");
                }
                if (r.liveOutDemanded.contains(iv)) {
                    diag(Severity::Warn, loop.backedgeIndex,
                         "induction variable " + regName(iv) +
                             " escapes the region: a caller reads it "
                             "after the bl");
                }
            }

            // No spill-like traffic inside the loop body: every
            // load/store must progress with an index register.
            for (const int i : body) {
                const Inst &inst = code[static_cast<std::size_t>(i)];
                if (inst.isMem() && !inst.mem.index.isValid()) {
                    diag(Severity::Warn, i,
                         "loop-invariant (spill-like) memory traffic "
                         "inside the loop body: " + inst.toString());
                }
            }
        }

        r.candidate =
            r.hasLoop && r.contractVerdict != Severity::Error;

        if (opts.ranges && opts.ranges->sound)
            r.tripCountBound = opts.ranges->tripBound(entry);

        // ---- prediction stage ---------------------------------------
        if (r.candidate && opts.predict) {
            for (const unsigned w : opts.widths) {
                VerifyOptions vopts;
                vopts.config = opts.config;
                vopts.config.simdWidth = w;
                vopts.widthFallback = opts.widthFallback;
                vopts.dep = opts.dep;
                vopts.prove = opts.prove;
                vopts.ranges = opts.ranges;
                WidthPrediction p;
                p.requestedWidth = w;
                // Deliberately no width hint: the scan runs without
                // scalarizer metadata.
                p.report = verifyRegion(prog, entry, vopts, 0);
                if (p.report.verdict == Severity::Ok &&
                    p.report.predictedSpeedup > r.bestSpeedup) {
                    r.bestSpeedup = p.report.predictedSpeedup;
                    r.bestWidth = p.report.predictedWidth;
                }
                r.predictions.push_back(std::move(p));
            }
            // One width-free recording walk answers "for which N?"
            // across the whole ladder and beyond.
            const PolyRegion poly =
                analyzePoly(prog, entry, opts.config, opts.dep);
            r.polyAnalyzed = true;
            r.polyUnbounded = poly.validity.structuralUnbounded;
            r.widthValidity = poly.validity.summary;
            r.polyOkWidths = poly.validity.okWidths;
        }

        rep.regions.push_back(std::move(r));
    }
    return rep;
}

std::string
formatScanRegion(const ScanRegion &region)
{
    std::ostringstream os;
    os << "fn ";
    if (!region.entryLabel.empty())
        os << region.entryLabel;
    else
        os << "@" << region.entryIndex;
    os << " [inst " << region.entryIndex << ", " << region.callSites
       << " call site(s)" << (region.hinted ? ", hinted" : "")
       << "]: " << severityName(region.overallVerdict());
    if (region.candidate && region.bestWidth) {
        os << " (best width " << region.bestWidth << ", predicted "
           << region.bestSpeedup << "x)";
    } else if (!region.candidate) {
        os << " (not a candidate)";
    }
    os << '\n';
    os << "  blocks=" << region.blockCount
       << " loops=" << region.loopCount
       << " liveIn=[" << region.liveIn.str() << "]"
       << " liveOut=[" << region.liveOutDemanded.str() << "]"
       << " iv=[" << region.ivRegs.str() << "]\n";
    if (!region.tripCountBound.isTop() && !region.tripCountBound.empty())
        os << "  proven trip-count bound: "
           << region.tripCountBound.str() << '\n';
    if (region.polyAnalyzed)
        os << "  width-validity: " << region.widthValidity << '\n';

    for (const Diagnostic &d : region.contractDiags) {
        os << "  contract " << severityName(d.severity);
        if (d.instIndex >= 0)
            os << " at inst " << d.instIndex;
        os << ": " << d.message << '\n';
    }
    for (const WidthPrediction &p : region.predictions) {
        const RegionReport &rr = p.report;
        os << "  w" << p.requestedWidth << ": "
           << severityName(rr.verdict);
        if (rr.verdict == Severity::Ok) {
            os << " binds w" << rr.predictedWidth << ", "
               << rr.predictedUcode << " ucode insts, speedup "
               << rr.predictedSpeedup << "x";
        } else if (rr.verdict == Severity::Error) {
            os << " " << abortReasonName(rr.reason) << " ("
               << abortReasonDescription(rr.reason) << ")";
        }
        if (!rr.proofVerdict.empty())
            os << " [proof: " << rr.proofVerdict << "]";
        os << '\n';
    }
    return os.str();
}

} // namespace liquid
