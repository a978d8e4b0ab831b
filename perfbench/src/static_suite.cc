/**
 * @file
 * The static-suite pass profiled in the serve-closed traced run: one
 * single-threaded pass of the static analyses over all 15 suite
 * programs — the work behind `liquid-verify/-poly/-scan/-proof
 * --suite`, simulating nothing.
 *
 * The verification half runs solveProgramRanges, verifyProgram at
 * widths 2/4/8/16 seeded with those ranges and analyzePoly per hinted
 * region; the discovery half runs scanProgram on the hint-less build
 * with predictions off and proveProgram per width. 179.art dominates
 * (its analyzePoly alone is most of the pass) and stays in on purpose:
 * it is the scanDepsAt defect a later change must show a fix for.
 *
 * The pass is not a workload of its own: on the shared reference host
 * one pass moved by 10-40% between runs (see NOTES.md).
 */

#include <algorithm>
#include <sstream>

#include "bench.hh"
#include "lab/spec.hh"
#include "verifier/poly.hh"
#include "verifier/proof.hh"
#include "verifier/range.hh"
#include "verifier/scan.hh"
#include "verifier/verifier.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace liquid;

constexpr unsigned ladder[] = {2, 4, 8, 16};

struct SuiteProgram
{
    std::string name;
    Workload::Build hinted;
    Workload::Build hintless;
};

std::vector<SuiteProgram>
buildSuite()
{
    std::vector<SuiteProgram> out;
    for (const auto &wl : makeSuite()) {
        out.push_back({wl->name(),
                       wl->build(EmitOptions::Mode::Scalarized, 8, true),
                       wl->build(EmitOptions::Mode::Scalarized, 8,
                                 false)});
    }
    return out;
}

/** What one pass produced: verdict text per region, work counts. */
struct PassResult
{
    std::map<std::string, std::string> regions;  ///< key -> verdict text
    std::map<std::string, std::uint64_t> counts;
};

/** Run one analysis call inside a span named after its layer. */
template <typename F>
void
op(Trace &trace, const char *layer, std::uint64_t parent, F &&call)
{
    const Span s(trace, layer, parent);
    call();
}

std::string
regionKey(const std::string &program, const std::string &label, int entry)
{
    return program + "/" + label + "@" + std::to_string(entry);
}

PassResult
suitePass(const std::vector<SuiteProgram> &suite, Trace &trace)
{
    PassResult res;
    std::map<std::string, std::ostringstream> text;

    // --- verification: ranges, verify per width, poly per region ---
    {
        const Span phase(trace, "static.verify");
        for (const SuiteProgram &p : suite) {
            const Span prog(trace, "program." + p.name, phase.id());
            const Program &code = p.hinted.prog;
            ProgramRanges ranges;
            op(trace, "verifier.ranges", prog.id(),
               [&] { ranges = solveProgramRanges(code); });
            res.counts["range.rounds"] += ranges.rounds;
            for (unsigned w : ladder) {
                VerifyOptions vo;
                vo.config.simdWidth = w;
                vo.ranges = &ranges;
                ProgramReport rep;
                op(trace, "verifier.verify", prog.id(),
                   [&] { rep = verifyProgram(code, vo); });
                for (const RegionReport &r : rep.regions) {
                    text[regionKey(p.name, r.entryLabel, r.entryIndex)]
                        << "v" << w << ':' << severityName(r.verdict)
                        << ',' << abortReasonName(r.reason) << ','
                        << r.predictedWidth << ',' << r.predictedUcode
                        << ';';
                }
            }
            std::vector<int> seen;
            for (const HintedCall &call : code.hintedCalls()) {
                if (std::find(seen.begin(), seen.end(), call.target) !=
                    seen.end())
                    continue;
                seen.push_back(call.target);
                PolyRegion poly;
                op(trace, "verifier.poly", prog.id(), [&] {
                    poly = analyzePoly(code, call.target,
                                       TranslatorConfig{});
                });
                res.counts["poly.dep_events"] += poly.deps.events.size();
                std::ostringstream &t = text[regionKey(
                    p.name, poly.entryLabel, poly.entryIndex)];
                t << "poly:" << poly.validity.summary << ','
                  << poly.validity.structuralUnbounded << ','
                  << poly.deps.events.size() << ",ok=";
                for (unsigned n : poly.validity.okWidths)
                    t << n << ' ';
                t << ';';
            }
        }
    }

    // --- discovery and proof: hint-less scan, proof per width ---
    {
        const Span phase(trace, "static.prove");
        for (const SuiteProgram &p : suite) {
            const Span prog(trace, "program." + p.name, phase.id());
            ScanOptions so;
            so.predict = false;
            ScanReport scan;
            op(trace, "verifier.scan", prog.id(),
               [&] { scan = scanProgram(p.hintless.prog, so); });
            res.counts["scan.candidates"] += scan.candidateCount();
            std::ostringstream &st = text[p.name + "/scan"];
            for (const ScanRegion &r : scan.regions) {
                st << r.entryLabel << ':' << r.candidate << ','
                   << severityName(r.contractVerdict) << ','
                   << r.blockCount << ',' << r.loopCount << ';';
            }
            for (unsigned w : ladder) {
                ProofOptions po;
                po.widths = {w};
                ProgramProof proof;
                op(trace, "verifier.proof", prog.id(),
                   [&] { proof = proveProgram(p.hinted.prog, po); });
                for (const RegionProof &r : proof.regions) {
                    std::ostringstream &t = text[regionKey(
                        p.name, r.entryLabel, r.entryIndex)];
                    for (const WidthProof &wp : r.widths) {
                        t << "p" << w << ':'
                          << proofVerdictName(wp.verdict) << ','
                          << wp.boundWidth << ',' << wp.obligations << ','
                          << wp.closedStructural << ',' << wp.closedEnum
                          << ',' << wp.unknownObligations << ','
                          << wp.enumPoints << ';';
                        res.counts["proof.obligations"] += wp.obligations;
                        res.counts["proof.enum_points"] += wp.enumPoints;
                    }
                }
            }
        }
    }

    for (auto &[key, t] : text)
        res.regions[key] = t.str();
    return res;
}

/** Check one pass's region digests and work counts. */
void
checkPass(const PassResult &res, Recorded &recorded, Outcome &out)
{
    for (const auto &[key, text] : res.regions)
        recorded.checkDigest(key, liquid::lab::fnv1a(text), out);
    for (const auto &[name, value] : res.counts)
        recorded.checkCount(name, value, out);
}

} // namespace

void
profileStaticLayers(const RunArgs &args, Trace &trace, Outcome &out)
{
    RunArgs suiteArgs = args;
    suiteArgs.workload = "static-suite";
    Recorded recorded(suiteArgs);
    const PassResult pass = suitePass(buildSuite(), trace);
    checkPass(pass, recorded, out);
    recorded.finish(out);
    auto &L = out.perLayer;
    for (const char *layer : {"ranges", "verify", "poly", "scan", "proof"}) {
        L[std::string("verifier.") + layer + "_s"] = {
            trace.totalSeconds(std::string("verifier.") + layer), "s"};
    }
    for (const auto &[name, value] : pass.counts)
        L[name] = {static_cast<double>(value), "count"};
}

} // namespace perfbench
