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
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "verifier/poly.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

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
    std::string name;
    std::vector<PolyRegion> regions;
    std::vector<PolyDiff> diffs;
    unsigned mismatches = 0;
    unsigned unbounded = 0;  ///< regions with a safe-for-all-N verdict
    unsigned warns = 0;      ///< regions whose best verdict is Warn
};

ProgramOutcome
analyzeProgram(const Program &prog, const std::string &name,
               unsigned sabotage = 0)
{
    ProgramOutcome out;
    out.name = name;
    const TranslatorConfig config;

    std::vector<int> seen;
    for (const HintedCall &call : prog.hintedCalls()) {
        bool dup = false;
        for (const int t : seen)
            dup = dup || t == call.target;
        if (dup)
            continue;
        seen.push_back(call.target);
        out.regions.push_back(analyzePoly(prog, call.target, config));
        out.diffs.push_back(
            diffRegion(prog, call.target, config, sabotage));
    }
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
    json::Value ok = json::Value::array();
    for (const unsigned n : pv.okWidths)
        ok.push(n);
    v.set("okWidths", std::move(ok));
    v.set("tailVerdict", severityName(pv.tail.verdict));
    json::Value cons = json::Value::array();
    for (const NConstraint &c : pv.constraints)
        cons.push(c.render());
    v.set("constraints", std::move(cons));
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
outcomeJson(const ProgramOutcome &out)
{
    json::Value v = json::Value::object();
    v.set("program", out.name);
    json::Value regions = json::Value::array();
    for (const PolyRegion &r : out.regions)
        regions.push(regionJson(r));
    v.set("regions", std::move(regions));
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
printOutcome(const ProgramOutcome &out)
{
    std::cout << "== " << out.name << ": "
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

/**
 * Analyze the selected programs. A random kernel the scalarizer
 * rejects (FatalError) is counted in @p skipped and left out; a
 * PanicError is a bug and ends the run.
 */
std::vector<ProgramOutcome>
runPrograms(const Options &opt, unsigned sabotage,
            bool withSuite, bool withMinis, unsigned &skipped)
{
    std::vector<ProgramOutcome> outcomes;
    if (withMinis) {
        for (const MiniKernel &mk : miniKernels) {
            outcomes.push_back(analyzeProgram(assemble(mk.src),
                                              mk.name, sabotage));
        }
    }
    if (withSuite) {
        for (const auto &wl : makeSuite()) {
            const Workload::Build build =
                wl->build(EmitOptions::Mode::Scalarized, 8, true);
            outcomes.push_back(
                analyzeProgram(build.prog, wl->name(), sabotage));
        }
    }
    if (opt.random > 0) {
        KernelCorpus corpus(opt.seed);
        Rng dataRng(opt.seed ^ 0xD1B54A32D192ED03ull);
        for (unsigned i = 0; i < opt.random; ++i) {
            corpus.next();
            const std::optional<Program> prog =
                corpus.build(dataRng, EmitOptions::Mode::Scalarized, 8);
            if (prog) {
                outcomes.push_back(analyzeProgram(
                    *prog, "random" + std::to_string(i), sabotage));
            }
        }
        skipped = corpus.skipped();
    }
    return outcomes;
}

/** The --sabotage self-test: every mutation must diverge somewhere. */
struct SabotageRun
{
    const char *name;
    unsigned mode;
    bool caught = false;
    std::string detail;
};

std::vector<SabotageRun>
runSabotage(const Options &opt)
{
    std::vector<SabotageRun> runs;
    for (unsigned bit = 0; bit < polySabotageCount; ++bit) {
        const auto sab = static_cast<PolySabotage>(1u << bit);
        runs.push_back({polySabotageName(sab), 1u << bit, false, ""});
    }
    for (SabotageRun &run : runs) {
        unsigned skipped = 0;
        const std::vector<ProgramOutcome> outcomes =
            runPrograms(opt, run.mode, false, true, skipped);
        for (const ProgramOutcome &out : outcomes) {
            for (const PolyDiff &d : out.diffs) {
                if (!d.mismatches.empty()) {
                    const PolyMismatch &m = d.mismatches.front();
                    run.caught = true;
                    run.detail = out.name + " w" +
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
        if (p.positional.empty() && !opt.suite && !opt.sabotage &&
            opt.random == 0)
            throw cli::UsageError("expected program.s, --suite, "
                                  "--random N or --sabotage");
        if (opt.sabotage) {
            // The honest evaluator must diff clean on the very
            // kernels the mutations are caught on.
            bool all = true;
            std::string honestFail;
            unsigned skipped = 0;
            for (const ProgramOutcome &out :
                 runPrograms(opt, 0, false, true, skipped)) {
                if (out.mismatches != 0) {
                    all = false;
                    honestFail = out.name;
                }
            }
            const std::vector<SabotageRun> runs = runSabotage(opt);
            json::Value arr = json::Value::array();
            for (const SabotageRun &r : runs) {
                all = all && r.caught;
                if (opt.json) {
                    json::Value j = json::Value::object();
                    j.set("mutation", r.name);
                    j.set("caught", r.caught);
                    j.set("detail", r.detail);
                    arr.push(std::move(j));
                } else {
                    std::cout << r.name << ": "
                              << (r.caught ? "caught" : "NOT CAUGHT");
                    if (r.caught)
                        std::cout << " (" << r.detail << ")";
                    std::cout << '\n';
                }
            }
            if (!honestFail.empty())
                std::cerr << "honest evaluator mismatch on "
                          << honestFail << '\n';
            if (opt.json) {
                json::Value root =
                    json::toolReport(polySchema, polyToolVersion);
                root.set("sabotage", std::move(arr));
                root.set("allCaught", all);
                std::cout << root.toString() << '\n';
            } else {
                std::cout << (all ? "all mutations caught\n"
                                  : "SELF-TEST FAILED\n");
            }
            return all ? 0 : 1;
        }

        std::vector<ProgramOutcome> outcomes;
        unsigned skipped = 0;
        if (opt.suite || opt.random > 0) {
            outcomes = runPrograms(opt, 0, opt.suite, opt.suite, skipped);
        } else {
            const std::string &file = p.positional.front();
            outcomes.push_back(
                analyzeProgram(cli::readProgram(file), file));
        }

        bool gateFailed = false;
        std::vector<std::string> gateFailures;
        unsigned mismatches = 0;
        unsigned unbounded = 0;
        unsigned warns = 0;
        for (const ProgramOutcome &out : outcomes) {
            mismatches += out.mismatches;
            unbounded += out.unbounded;
            warns += out.warns;
        }
        if (mismatches > 0) {
            gateFailed = true;
            gateFailures.push_back(
                "differential: " + std::to_string(mismatches) +
                " symbolic-vs-concrete mismatch(es)");
        }
        if (opt.suite && unbounded == 0) {
            gateFailed = true;
            gateFailures.push_back(
                "unbounded gate: no region earned a safe-for-all-N "
                "verdict");
        }
        if (opt.werror && warns > 0) {
            gateFailed = true;
            gateFailures.push_back("werror: " + std::to_string(warns) +
                                   " warn-for-all-N region(s)");
        }

        if (opt.json) {
            json::Value root =
                json::toolReport(polySchema, polyToolVersion);
            json::Value arr = json::Value::array();
            for (const ProgramOutcome &out : outcomes)
                arr.push(outcomeJson(out));
            root.set("programs", std::move(arr));
            root.set("skipped", skipped);
            json::Value gate = json::Value::object();
            gate.set("passed", !gateFailed);
            json::Value fails = json::Value::array();
            for (const std::string &s : gateFailures)
                fails.push(s);
            gate.set("failures", std::move(fails));
            root.set("gate", std::move(gate));
            std::cout << root.toString() << '\n';
        } else {
            for (const ProgramOutcome &out : outcomes)
                printOutcome(out);
            if (skipped) {
                std::cout << skipped << " random kernel(s) skipped "
                             "(scalarizer limits)\n";
            }
            for (const std::string &s : gateFailures)
                std::cout << "GATE: " << s << '\n';
            std::cout << (gateFailed ? "FAILED\n" : "passed\n");
        }
        return gateFailed ? 1 : 0;
    });
}
