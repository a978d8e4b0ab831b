/**
 * @file
 * liquid-verify: static Table-1 conformance verifier.
 *
 * Assembles a .s file and, without executing it on the simulator,
 * predicts what the dynamic translator will do with every outlined
 * region: commit (with the bound width, microcode size, and a
 * cost-model cycle estimate), abort (with the reason), or a
 * runtime-dependent outcome (warn). Commits additionally carry the
 * memory-dependence proof computed by depcheck.
 *
 *   liquid-verify prog.s                # verify at width 8
 *   liquid-verify -w 16 prog.s          # verify against 16 lanes
 *   liquid-verify --no-fallback prog.s  # single-width prediction
 *   liquid-verify --suite               # verify the workload suite
 *   liquid-verify --json prog.s         # machine-readable verdicts
 *
 * Exit status: 0 when no region has an Error verdict (with --werror,
 * no Warn either), 1 otherwise, 2 on usage errors, unreadable or
 * unassemblable input, and internal errors.
 */

#include <iostream>
#include <optional>
#include <string>

#include "analysis.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "report.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"

using namespace liquid;

namespace
{

/**
 * JSON output format identifier; bump on breaking layout changes.
 * v2: byWidth entries became objects {verdict, reason, why, viaRange}
 * and regions gained range{facts, discharged} under --ranges.
 * v3: regions gained validity{summary, structuralUnbounded, okWidths,
 * constraints} under --poly. Purely additive over v2 — every v2 field
 * keeps its name and type, so v2 consumers parse v3 reports unchanged
 * (tests/poly_test.cc locks that in).
 * v4: byWidth entries lost `viaRange` and the range object lost
 * `discharged`. Both marked dependence verdicts the range facts
 * flipped past the pair budget; the budget now counts only pairs that
 * share a byte, so the regions those facts proved disjoint never
 * exhaust it and nothing is left to flip.
 */
constexpr const char *verifySchema = "liquid-verify-v4";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *verifyToolVersion = "4.0";

struct Options
{
    unsigned width = 8;
    bool fallback = true;
    bool prove = false;
    bool ranges = false;
    bool poly = false;
    bool werror = false;
    bool suite = false;
    bool json = false;
};

const char *
widthVerdictName(WidthVerdict::Kind kind)
{
    switch (kind) {
      case WidthVerdict::Kind::Safe: return "safe";
      case WidthVerdict::Kind::Unsafe: return "unsafe";
      case WidthVerdict::Kind::Unknown: return "unknown";
    }
    return "?";
}

json::Value
regionJson(const std::string &program, const RegionReport &r)
{
    json::Value v = json::Value::object();
    v.set("program", program);
    v.set("entryLabel", r.entryLabel);
    v.set("entryIndex", r.entryIndex);
    v.set("requestedWidth", r.requestedWidth);
    v.set("widthHint", r.widthHint);
    v.set("verdict", severityName(r.verdict));
    if (r.verdict == Severity::Error) {
        v.set("reason", abortReasonName(r.reason));
        v.set("depMiscompile", r.depMiscompile);
    }
    if (r.predictedWidth) {
        json::Value p = json::Value::object();
        p.set("width", r.predictedWidth);
        p.set("ucodeInsts", r.predictedUcode);
        p.set("cvecs", r.predictedCvecs);
        v.set("predicted", std::move(p));
    }
    if (r.verdict == Severity::Ok && r.predictedSpeedup > 0) {
        json::Value c = json::Value::object();
        c.set("scalarCycles", r.predictedScalarCycles);
        c.set("simdCycles", r.predictedSimdCycles);
        c.set("speedup", r.predictedSpeedup);
        v.set("cost", std::move(c));
    }
    if (r.depAnalyzed) {
        const DepcheckResult &dep = r.dep;
        json::Value d = json::Value::object();
        d.set("analyzed", dep.analyzed);
        d.set("resolved", dep.resolved);
        if (!dep.resolved)
            d.set("unresolvedWhy", dep.unresolvedWhy);
        d.set("carriedPairs", dep.carriedPairs);
        d.set("minDistance", dep.minDistance);
        json::Value accs = json::Value::array();
        for (const MemAccess &a : dep.accesses) {
            json::Value j = json::Value::object();
            j.set("inst", a.instIndex);
            j.set("store", a.isStore);
            j.set("class", accessClassName(a.cls));
            j.set("strideBytes", a.strideBytes);
            j.set("array", a.arrayName);
            accs.push(std::move(j));
        }
        d.set("accesses", std::move(accs));
        json::Value bw = json::Value::object();
        for (std::size_t i = 0; i < DepcheckResult::widths.size(); ++i) {
            const WidthVerdict &wv = dep.byWidth[i];
            json::Value e = json::Value::object();
            e.set("verdict", widthVerdictName(wv.kind));
            if (wv.reason != DepReason::None)
                e.set("reason", depReasonName(wv.reason));
            if (!wv.why.empty())
                e.set("why", wv.why);
            bw.set(std::to_string(DepcheckResult::widths[i]),
                   std::move(e));
        }
        d.set("byWidth", std::move(bw));
        if (r.verdict == Severity::Ok && r.predictedWidth)
            d.set("proof", dep.proofSummary(r.predictedWidth));
        v.set("dep", std::move(d));
    }
    if (!r.proofVerdict.empty()) {
        json::Value p = json::Value::object();
        p.set("verdict", r.proofVerdict);
        p.set("summary", r.proofSummary);
        v.set("translationProof", std::move(p));
    }
    if (r.polyAnalyzed) {
        json::Value p = json::Value::object();
        p.set("summary", r.polySummary);
        p.set("structuralUnbounded", r.polyUnbounded);
        p.set("okWidths", cli::jsonArray(r.polyOkWidths));
        p.set("constraints", cli::jsonArray(r.polyConstraints));
        v.set("validity", std::move(p));
    }
    if (!r.rangeFacts.empty()) {
        json::Value rg = json::Value::object();
        rg.set("facts", cli::jsonArray(r.rangeFacts));
        v.set("range", std::move(rg));
    }
    json::Value diags = json::Value::array();
    for (const Diagnostic &d : r.diags) {
        json::Value j = json::Value::object();
        j.set("severity", severityName(d.severity));
        if (d.severity == Severity::Error)
            j.set("reason", abortReasonName(d.reason));
        if (d.instIndex >= 0)
            j.set("inst", d.instIndex);
        j.set("message", d.message);
        diags.push(std::move(j));
    }
    v.set("diags", std::move(diags));
    return v;
}

/** Verify one program. */
ProgramReport
verify(const Program &prog, const Options &opt)
{
    VerifyOptions vopts;
    vopts.config.simdWidth = opt.width;
    vopts.widthFallback = opt.fallback;
    vopts.prove = opt.prove;
    vopts.poly = opt.poly;

    std::optional<ProgramRanges> pr;
    if (opt.ranges) {
        pr.emplace(solveProgramRanges(prog));
        vopts.ranges = &*pr;
    }

    return verifyProgram(prog, vopts);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const cli::Tool tool{
        "liquid-verify",
        {{"", "[options] program.s\n[options] --suite", "", {}, 1}},
        {
            cli::width({"-w", "--width"}, opt.width,
                       "SIMD lanes to verify against (default 8)"),
            cli::flag({"--no-fallback"}, opt.fallback,
                      "do not retry failed regions at half width", false),
            cli::flag({"--prove"}, opt.prove,
                      "settle depcheck-unknown widths (and audit commits) "
                      "with the translation-validation prover"),
            cli::flag({"--ranges"}, opt.ranges,
                      "seed the verifier with the interprocedural "
                      "value-range analysis (liquid-range facts)"),
            cli::flag({"--poly"}, opt.poly,
                      "attach the width-polymorphic validity set "
                      "(liquid-poly): for which N does the region verify?"),
            cli::flag({"--werror"}, opt.werror,
                      "treat warn verdicts as errors"),
            cli::flag({"--json"}, opt.json,
                      "machine-readable per-region verdicts on stdout"),
            cli::flag({"--suite"}, opt.suite,
                      "verify every workload-suite kernel instead of a "
                      "file"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        const cli::Analysis run(p, {{"--suite", opt.suite}}, verifySchema,
                                verifyToolVersion, opt.json);
        cli::Results<ProgramReport> reports;
        run.analyze(opt.suite, opt.width, true, reports,
                    [&](const Program &prog) { return verify(prog, opt); });

        unsigned ok = 0, warn = 0, error = 0;
        for (const auto &[name, rep] : reports) {
            for (const RegionReport &r : rep.regions) {
                ok += r.verdict == Severity::Ok;
                warn += r.verdict == Severity::Warn;
                error += r.verdict == Severity::Error;
            }
        }
        if (run.noHintedRegions(ok + warn + error))
            return 0;

        if (opt.json) {
            json::Value root = run.report();
            json::Value arr = json::Value::array();
            for (const auto &[name, rep] : reports) {
                for (const RegionReport &r : rep.regions)
                    arr.push(regionJson(name, r));
            }
            root.set("regions", std::move(arr));
            json::Value summary = json::Value::object();
            summary.set("ok", ok);
            summary.set("warn", warn);
            summary.set("error", error);
            root.set("summary", std::move(summary));
            cli::printReport(root);
        } else {
            for (const auto &[name, rep] : reports) {
                run.header(name);
                for (const RegionReport &r : rep.regions)
                    std::cout << formatRegionReport(r);
            }
            std::cout << ok + warn + error << " region(s): " << ok
                      << " ok, " << warn << " warn, " << error
                      << " error\n";
        }
        return error || (opt.werror && warn) ? 1 : 0;
    });
}
