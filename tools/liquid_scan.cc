/**
 * @file
 * liquid-scan: whole-binary SIMD-region discovery and static speedup
 * prediction.
 *
 * Takes an assembled program with NO scalarizer metadata, recovers the
 * interprocedural CFG (every bl target is an outlined function under
 * the bl/ret convention), checks each function's natural loops against
 * the paper's region-boundary liveness contract, and predicts the
 * translated speedup at each accelerator width via the Table-1 rule
 * mirror, depcheck and the cost model.
 *
 *   liquid-scan prog.s                    # scan one binary
 *   liquid-scan --suite                   # scan the unhinted suite
 *   liquid-scan --widths 2,4,8,16 prog.s  # prediction widths
 *   liquid-scan --json prog.s             # machine-readable report
 *   liquid-scan --suite --validate bench/baseline/BENCH_fig6.json
 *                                         # join predictions against
 *                                         # measured lab results
 *
 * Exit status: 0 when no region is Error-severity (and, with
 * --validate, predicted-vs-measured rankings agree); 1 otherwise;
 * 2 on usage errors, unreadable or unassemblable input, and internal
 * errors.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "lab/predict.hh"
#include "report.hh"
#include "verifier/range.hh"
#include "verifier/scan.hh"

using namespace liquid;

namespace
{

/**
 * JSON output format identifier; bump on breaking layout changes.
 * v2: regions gained tripCountBound (liquid-range proven iteration
 * bound, present when --ranges proves one).
 * v3: candidate regions gained widthValidity{summary, okWidths,
 * structuralUnbounded} (the liquid-poly predicate on N), and
 * validation summaries report rejected functional-tier rows. Additive
 * over v2.
 */
constexpr const char *scanSchema = "liquid-scan-v3";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *scanToolVersion = "3.0";

struct Options
{
    std::vector<unsigned> widths{2, 4, 8, 16};
    bool fallback = true;
    bool predict = true;
    bool prove = false;
    bool ranges = false;
    bool werror = false;
    bool suite = false;
    bool json = false;
    std::string validateFile;
};

json::Value
regionJson(const std::string &program, const ScanRegion &r)
{
    json::Value v = json::Value::object();
    v.set("program", program);
    v.set("entryLabel", r.entryLabel);
    v.set("entryIndex", r.entryIndex);
    v.set("callSites", r.callSites);
    v.set("hinted", r.hinted);
    if (r.widthHint)
        v.set("widthHint", r.widthHint);
    v.set("blocks", r.blockCount);
    v.set("loops", r.loopCount);
    v.set("irreducible", r.irreducible);
    v.set("liveIn", cli::jsonArray(r.liveIn.regs(), regName));
    v.set("liveOut", cli::jsonArray(r.liveOutDemanded.regs(), regName));
    v.set("iv", cli::jsonArray(r.ivRegs.regs(), regName));
    v.set("contractVerdict", severityName(r.contractVerdict));
    v.set("verdict", severityName(r.overallVerdict()));
    v.set("candidate", r.candidate);
    if (!r.tripCountBound.isTop() && !r.tripCountBound.empty())
        v.set("tripCountBound", r.tripCountBound.str());

    json::Value diags = json::Value::array();
    for (const Diagnostic &d : r.contractDiags) {
        json::Value dj = json::Value::object();
        dj.set("severity", severityName(d.severity));
        if (d.instIndex >= 0)
            dj.set("inst", d.instIndex);
        dj.set("message", d.message);
        diags.push(std::move(dj));
    }
    v.set("contractDiags", std::move(diags));

    json::Value preds = json::Value::array();
    for (const WidthPrediction &p : r.predictions) {
        const RegionReport &rr = p.report;
        json::Value pj = json::Value::object();
        pj.set("requestedWidth", p.requestedWidth);
        pj.set("verdict", severityName(rr.verdict));
        if (rr.verdict == Severity::Error) {
            pj.set("reason", abortReasonName(rr.reason));
            pj.set("reasonDesc", abortReasonDescription(rr.reason));
            pj.set("depMiscompile", rr.depMiscompile);
        }
        if (rr.predictedWidth) {
            pj.set("boundWidth", rr.predictedWidth);
            pj.set("ucodeInsts", rr.predictedUcode);
        }
        if (rr.verdict == Severity::Ok && rr.predictedSpeedup > 0) {
            pj.set("scalarCycles", rr.predictedScalarCycles);
            pj.set("simdCycles", rr.predictedSimdCycles);
            pj.set("speedup", rr.predictedSpeedup);
        }
        if (!rr.proofVerdict.empty()) {
            json::Value proof = json::Value::object();
            proof.set("verdict", rr.proofVerdict);
            proof.set("summary", rr.proofSummary);
            pj.set("translationProof", std::move(proof));
        }
        preds.push(std::move(pj));
    }
    v.set("predictions", std::move(preds));

    if (r.polyAnalyzed) {
        json::Value pv = json::Value::object();
        pv.set("summary", r.widthValidity);
        pv.set("structuralUnbounded", r.polyUnbounded);
        pv.set("okWidths", cli::jsonArray(r.polyOkWidths));
        v.set("widthValidity", std::move(pv));
    }

    if (r.bestWidth) {
        v.set("bestWidth", r.bestWidth);
        v.set("bestSpeedup", r.bestSpeedup);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const cli::Tool tool{
        "liquid-scan",
        {{"", "[options] program.s\n[options] --suite", "", {}, 1}},
        {
            cli::widths({"--widths"}, opt.widths,
                        "comma-separated prediction widths (2,4,8,16)"),
            cli::flag({"--no-fallback"}, opt.fallback,
                      "do not retry failed widths at half width", false),
            cli::flag({"--no-predict"}, opt.predict,
                      "discovery and contract checks only", false),
            cli::flag({"--prove"}, opt.prove,
                      "back each prediction with the symbolic "
                      "translation-validation prover"),
            cli::flag({"--ranges"}, opt.ranges,
                      "seed discovery and the cost model with the "
                      "interprocedural value-range analysis (trip-count "
                      "bounds, access alignment; docs/RANGE.md)"),
            cli::flag({"--werror"}, opt.werror,
                      "treat warn verdicts as errors"),
            cli::flag({"--json"}, opt.json,
                      "machine-readable report on stdout"),
            cli::flag({"--suite"}, opt.suite,
                      "scan every suite workload, built without "
                      "scalarizer hints"),
            cli::text({"--validate"}, "FILE", opt.validateFile,
                      "join suite predictions against measured liquid-lab "
                      "results (implies --suite)"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        if (!opt.validateFile.empty())
            opt.suite = true;
        const cli::Analysis run(p, {{"--suite", opt.suite}}, scanSchema,
                                scanToolVersion, opt.json);

        // Per-program scan; --ranges solves the interprocedural
        // value-range analysis first and hands the facts to discovery,
        // depcheck and the cost model.
        const auto scanOne = [&](const Program &prog) {
            ScanOptions s;
            s.widths = opt.widths;
            s.widthFallback = opt.fallback;
            s.predict = opt.predict;
            s.prove = opt.prove;
            std::optional<ProgramRanges> pr;
            if (opt.ranges) {
                pr.emplace(solveProgramRanges(prog));
                s.ranges = &*pr;
            }
            return scanProgram(prog, s);
        };
        // No hints in the suite: the scan must rediscover every region
        // from the bl/ret convention alone.
        cli::Results<ScanReport> reports;
        run.analyze(opt.suite, 8, /*hinted=*/false, reports, scanOne);

        unsigned regions = 0, candidates = 0;
        unsigned ok = 0, warn = 0, error = 0;
        for (const auto &[name, rep] : reports) {
            regions += static_cast<unsigned>(rep.regions.size());
            candidates += rep.candidateCount();
            for (const ScanRegion &r : rep.regions) {
                const Severity v = r.overallVerdict();
                ok += v == Severity::Ok;
                warn += v == Severity::Warn;
                error += v == Severity::Error;
            }
        }

        // Optional differential validation against measured results.
        bool validated = true;
        lab::ValidationSummary validation;
        if (!opt.validateFile.empty()) {
            std::vector<lab::WorkloadPrediction> preds;
            for (const auto &[name, rep] : reports) {
                lab::WorkloadPrediction p;
                p.workload = name;
                p.speedupByWidth = lab::aggregateScanSpeedups(rep);
                preds.push_back(std::move(p));
            }
            const lab::ResultSet measured =
                lab::ResultSet::readFile(opt.validateFile);
            validation = lab::validatePredictions(preds, measured);
            validated = validation.rankAgreement() &&
                        !validation.rows.empty();
        }

        if (opt.json) {
            json::Value root = run.report();
            json::Value regionArr = json::Value::array();
            for (const auto &[name, rep] : reports) {
                for (const ScanRegion &r : rep.regions)
                    regionArr.push(regionJson(name, r));
            }
            root.set("regions", std::move(regionArr));
            json::Value summary = json::Value::object();
            summary.set("regions", regions);
            summary.set("candidates", candidates);
            summary.set("ok", ok);
            summary.set("warn", warn);
            summary.set("error", error);
            root.set("summary", std::move(summary));
            if (!opt.validateFile.empty())
                root.set("validation", validation.toJson());
            cli::printReport(root);
        } else {
            for (const auto &[name, rep] : reports) {
                run.header(name);
                for (const ScanRegion &r : rep.regions)
                    std::cout << formatScanRegion(r);
            }
            std::cout << regions << " region(s): " << candidates
                      << " candidate(s), " << ok << " ok, " << warn
                      << " warn, " << error << " error\n";
            if (!opt.validateFile.empty()) {
                if (validation.rejectedFunctional > 0) {
                    std::cout << "validation: rejected "
                              << validation.rejectedFunctional
                              << " functional-tier row(s) (no cycle "
                                 "clock under the /fun tier";
                    for (const std::string &k :
                         validation.rejectedFunctionalKeys)
                        std::cout << "; " << k;
                    std::cout << ")\n";
                }
                std::cout << "validation vs " << opt.validateFile
                          << ": " << validation.rows.size()
                          << " joined pair(s), "
                          << validation.discordantPairs << "/"
                          << validation.comparablePairs
                          << " discordant, mean |err| "
                          << validation.meanAbsError << ", max |err| "
                          << validation.maxAbsError << " -> "
                          << (validated ? "RANKS AGREE"
                                        : "RANK DISAGREEMENT")
                          << '\n';
            }
        }

        return error || (opt.werror && warn) || !validated ? 1 : 0;
    });
}
