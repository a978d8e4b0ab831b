/**
 * @file
 * liquid-poly: width-polymorphic static verification front-end.
 *
 * One recording walk per region, a verdict that is a predicate on N:
 * the validity set (interval × congruence constraints over the
 * symbolic width) plus its exact instantiation at any concrete width.
 * Every run is backed by the differential gate — instantiating the
 * symbolic verdict at each ladder width (2/4/8/16) must reproduce the
 * concrete verifier's verdict bit-for-bit, including DepReason codes
 * and the full dependence pair.
 *
 *   liquid-poly prog.s             # validity set per hinted region
 *   liquid-poly --suite            # workload suite + mini-kernels,
 *                                  # differential gate enforced
 *   liquid-poly --random N         # N random kernels through the gate
 *   liquid-poly --sabotage        # seeded evaluator bugs must diverge
 *   liquid-poly --json             # machine-readable report
 *
 * Exit status: 0 on success, 1 when a gate fails (any differential
 * mismatch, an uncaught sabotage mutation, no unbounded-N verdict in
 * --suite, or --werror with a Warn summary), 2 on usage errors,
 * unreadable or unassemblable input, and internal errors.
 */

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis.hh"
#include "asm/assembler.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "report.hh"
#include "verifier/poly.hh"
#include "workloads/kernel_corpus.hh"

using namespace liquid;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *polySchema = "liquid-poly-v1";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *polyToolVersion = "1.0";

struct Options
{
    bool suite = false;
    bool sabotage = false;
    bool json = false;
    bool werror = false;
    unsigned random = 0;
    std::uint64_t seed = 0x9E3779B97F4A7C15ull;
};

/**
 * Dependence mini-kernels with width-sensitive carried behaviour.
 * Random elementwise kernels have disjoint in/out arrays, so only
 * these exercise the group/order-flip scan — each sabotage mutation
 * is guaranteed to diverge on at least one of them.
 *
 * kern_mixed: ldh reads c+10+2j (element size 2) while stw writes
 * c+4i, giving overlapping pairs at non-uniform distances — the
 * group-collide and flip-ignore mutations pick a different first pair
 * than the honest scan at some ladder width.
 */
struct MiniKernel
{
    const char *name;
    const char *src;
};

const MiniKernel miniKernels[] = {
    {"kern_mixed",
     "        .data c 128\n"
     "kern_mixed:\n"
     "        mov r0, #0\n"
     "        mov r5, #5\n"
     "top:\n"
     "        ldh r1, [c + r5]\n"
     "        add r2, r1, #1\n"
     "        stw [c + r0], r2\n"
     "        add r5, r5, #1\n"
     "        add r0, r0, #1\n"
     "        cmp r0, #16\n"
     "        blt top\n"
     "        ret\n"
     "main:\n"
     "        bl.simd kern_mixed\n"
     "        halt\n"},
    {"kern_trip24",
     "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18"
     " 19 20 21 22 23 24\n"
     "        .data a 96\n"
     "kern_trip24:\n"
     "        mov r0, #0\n"
     "top:\n"
     "        ldw r1, [x + r0]\n"
     "        add r2, r1, #1\n"
     "        stw [a + r0], r2\n"
     "        add r0, r0, #1\n"
     "        cmp r0, #24\n"
     "        blt top\n"
     "        ret\n"
     "main:\n"
     "        bl.simd kern_trip24\n"
     "        halt\n"},
    {"kern_stream",
     "        .rowords kco 5 7 5 7 5 7 5 7 5 7 5 7 5 7 5 7\n"
     "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n"
     "        .data a 64\n"
     "kern_stream:\n"
     "        mov r0, #0\n"
     "top:\n"
     "        ldw r1, [kco + r0]\n"
     "        ldw r2, [x + r0]\n"
     "        add r3, r2, r1\n"
     "        stw [a + r0], r3\n"
     "        add r0, r0, #1\n"
     "        cmp r0, #16\n"
     "        blt top\n"
     "        ret\n"
     "main:\n"
     "        bl.simd kern_stream\n"
     "        halt\n"},
};

/** Everything the tool learned about one program. */
struct ProgramOutcome
{
    std::vector<PolyRegion> regions;
    std::vector<PolyDiff> diffs;
    unsigned mismatches = 0;
    unsigned unbounded = 0;  ///< regions with a safe-for-all-N verdict
    unsigned warns = 0;      ///< regions whose best verdict is Warn
};

ProgramOutcome
analyzeProgram(const Program &prog, unsigned sabotage = 0)
{
    ProgramOutcome out;
    const TranslatorConfig config;
    for (const HintedCall &call : prog.hintedCalls())
        out.regions.push_back(analyzePoly(prog, call.target, config));
    out.diffs = diffProgram(prog, config, sabotage);
    for (const PolyDiff &d : out.diffs)
        out.mismatches += static_cast<unsigned>(d.mismatches.size());
    for (const PolyRegion &r : out.regions) {
        if (r.validity.structuralUnbounded)
            ++out.unbounded;
        if (r.terminal.verdict == Severity::Warn &&
            r.validity.okWidths.empty())
            ++out.warns;
    }
    return out;
}

json::Value
regionJson(const PolyRegion &r)
{
    json::Value v = json::Value::object();
    v.set("region", r.entryLabel);
    v.set("entryIndex", r.entryIndex);
    const PolyValidity &pv = r.validity;
    v.set("summary", pv.summary);
    v.set("horizon", pv.horizon);
    v.set("tailExact", pv.tailExact);
    v.set("structuralUnbounded", pv.structuralUnbounded);
    v.set("okWidths", cli::jsonArray(pv.okWidths));
    v.set("tailVerdict", severityName(pv.tail.verdict));
    v.set("constraints",
          cli::jsonArray(pv.constraints,
                         [](const NConstraint &c) { return c.render(); }));
    json::Value ladder = json::Value::array();
    for (const unsigned n : DepcheckResult::widths) {
        const PolyWidthOutcome o = r.instantiate(n);
        json::Value w = json::Value::object();
        w.set("width", n);
        w.set("verdict", severityName(o.verdict));
        if (o.verdict == Severity::Error) {
            w.set("reason", abortReasonName(o.reason));
            w.set("depMiscompile", o.depMiscompile);
        }
        if (o.depRan && o.depKind == WidthVerdict::Kind::Unsafe)
            w.set("distance", o.pair.distance);
        ladder.push(std::move(w));
    }
    v.set("ladder", std::move(ladder));
    return v;
}

json::Value
outcomeJson(const std::string &name, const ProgramOutcome &out)
{
    json::Value v = json::Value::object();
    v.set("program", name);
    v.set("regions", cli::jsonArray(out.regions, regionJson));
    json::Value diffs = json::Value::array();
    for (const PolyDiff &d : out.diffs) {
        for (const PolyMismatch &m : d.mismatches) {
            json::Value j = json::Value::object();
            j.set("region", d.entryLabel);
            j.set("width", m.width);
            j.set("field", m.field);
            j.set("expect", m.expect);
            j.set("got", m.got);
            diffs.push(std::move(j));
        }
    }
    v.set("mismatches", std::move(diffs));
    v.set("differentialClean", out.mismatches == 0);
    v.set("unboundedRegions", out.unbounded);
    return v;
}

void
printOutcome(const std::string &name, const ProgramOutcome &out)
{
    std::cout << "== " << name << ": "
              << (out.mismatches == 0 ? "differential clean"
                                      : "DIFFERENTIAL MISMATCH")
              << '\n';
    for (const PolyRegion &r : out.regions) {
        std::cout << "  " << (r.entryLabel.empty() ? "?" : r.entryLabel)
                  << ": " << r.validity.summary << '\n';
    }
    for (const PolyDiff &d : out.diffs) {
        for (const PolyMismatch &m : d.mismatches) {
            std::cout << "  MISMATCH " << d.entryLabel << " w"
                      << m.width << " " << m.field << ": concrete="
                      << m.expect << " poly=" << m.got << '\n';
        }
    }
}

/** The dependence mini-kernels, analyzed with @p sabotage seeded. */
cli::Results<ProgramOutcome>
analyzeMinis(unsigned sabotage)
{
    cli::Results<ProgramOutcome> out;
    for (const MiniKernel &mk : miniKernels)
        out.emplace_back(mk.name, analyzeProgram(assemble(mk.src), sabotage));
    return out;
}

/**
 * Analyze --random N kernels into @p out. A kernel the scalarizer
 * rejects (FatalError) is left out; returns how many were. A
 * PanicError is a bug and ends the run.
 */
unsigned
analyzeRandom(const Options &opt, cli::Results<ProgramOutcome> &out)
{
    KernelCorpus corpus(opt.seed);
    Rng dataRng(opt.seed ^ 0xD1B54A32D192ED03ull);
    for (unsigned i = 0; i < opt.random; ++i) {
        corpus.next();
        const std::optional<Program> prog =
            corpus.build(dataRng, EmitOptions::Mode::Scalarized, 8);
        if (prog)
            out.emplace_back("random" + std::to_string(i),
                             analyzeProgram(*prog));
    }
    return corpus.skipped();
}

/** The --sabotage self-test: every mutation must diverge somewhere. */
std::vector<cli::SabotageRun>
runSabotage()
{
    std::vector<cli::SabotageRun> runs;
    for (unsigned bit = 0; bit < polySabotageCount; ++bit) {
        const auto sab = static_cast<PolySabotage>(1u << bit);
        runs.push_back({polySabotageName(sab), 1u << bit, false, ""});
    }
    for (cli::SabotageRun &run : runs) {
        for (const auto &[name, out] : analyzeMinis(run.mode)) {
            for (const PolyDiff &d : out.diffs) {
                if (!d.mismatches.empty()) {
                    const PolyMismatch &m = d.mismatches.front();
                    run.caught = true;
                    run.detail = name + " w" +
                                 std::to_string(m.width) + " " +
                                 m.field;
                    break;
                }
            }
            if (run.caught)
                break;
        }
    }
    return runs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const cli::Tool tool{
        "liquid-poly",
        {{"",
          "[options] program.s\n[options] --suite\n[options] --random N\n"
          "[options] --sabotage",
          "", {}, 1}},
        {
            cli::flag({"--suite"}, opt.suite,
                      "analyze the workload suite and the dependence "
                      "mini-kernels; every region must pass the "
                      "symbolic-vs-concrete differential and elementwise "
                      "regions must verify with an unbounded-N verdict"),
            cli::number({"--random"}, "N", opt.random,
                        "run N random kernels through the differential "
                        "gate"),
            cli::flag({"--sabotage"}, opt.sabotage,
                      "seed each evaluator bug in turn; every mutation "
                      "must diverge from the concrete verifier somewhere"),
            cli::number({"--seed"}, "S", opt.seed,
                        "random-kernel seed"),
            cli::flag({"--werror"}, opt.werror,
                      "Warn-for-all-N summaries fail the run"),
            cli::flag({"--json"}, opt.json,
                      "machine-readable report on stdout"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        const cli::Analysis run(p,
                                {{"--suite", opt.suite},
                                 {"--random N", opt.random > 0},
                                 {"--sabotage", opt.sabotage}},
                                polySchema, polyToolVersion, opt.json);
        if (opt.sabotage) {
            // The honest evaluator must diff clean on the very
            // kernels the mutations are caught on.
            std::string honestFail;
            for (const auto &[name, out] : analyzeMinis(0)) {
                if (out.mismatches != 0)
                    honestFail = name;
            }
            if (!honestFail.empty())
                std::cerr << "honest evaluator mismatch on "
                          << honestFail << '\n';
            return cli::reportSabotage(run.report(), runSabotage(),
                                       opt.json, honestFail.empty());
        }

        // --suite: the mini-kernels, then the workload suite; then any
        // --random kernels.
        cli::Results<ProgramOutcome> outcomes;
        if (opt.suite)
            outcomes = analyzeMinis(0);
        run.analyze(opt.suite, 8, true, outcomes, [](const Program &prog) {
            return analyzeProgram(prog);
        });
        const unsigned skipped =
            opt.random > 0 ? analyzeRandom(opt, outcomes) : 0;

        cli::Gate gate;
        unsigned mismatches = 0;
        unsigned unbounded = 0;
        unsigned warns = 0;
        for (const auto &[name, out] : outcomes) {
            mismatches += out.mismatches;
            unbounded += out.unbounded;
            warns += out.warns;
        }
        if (mismatches > 0) {
            gate.fail("differential: " + std::to_string(mismatches) +
                      " symbolic-vs-concrete mismatch(es)");
        }
        if (opt.suite && unbounded == 0) {
            gate.fail("unbounded gate: no region earned a safe-for-all-N "
                      "verdict");
        }
        if (opt.werror && warns > 0) {
            gate.fail("werror: " + std::to_string(warns) +
                      " warn-for-all-N region(s)");
        }

        json::Value root = run.report();
        if (opt.json) {
            json::Value arr = json::Value::array();
            for (const auto &[name, out] : outcomes)
                arr.push(outcomeJson(name, out));
            root.set("programs", std::move(arr));
            root.set("skipped", skipped);
        } else {
            for (const auto &[name, out] : outcomes)
                printOutcome(name, out);
            if (skipped) {
                std::cout << skipped << " random kernel(s) skipped "
                             "(scalarizer limits)\n";
            }
        }
        return gate.finish(std::move(root), opt.json);
    });
}
