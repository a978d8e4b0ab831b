/**
 * @file
 * liquid-range: interprocedural value-range, alignment and trip-count
 * analysis front-end.
 *
 * Solves whole-program ranges for a binary, then runs the static
 * verifier twice — facts-off and facts-on — and reports what the
 * analysis bought: runtime-dependent Warn regions upgraded to concrete
 * verdicts. Every run is backed by the
 * differential soundness oracle: a scalar-baseline execution with a
 * retire-bus recorder asserting each static fact contains every
 * dynamically observed value.
 *
 *   liquid-range prog.s            # analyze + verify one binary
 *   liquid-range --suite           # stress set + workload-suite gate
 *   liquid-range --widths 4,16     # accelerator widths to verify
 *   liquid-range --json            # machine-readable report
 *   liquid-range --sabotage        # seeded-unsoundness self-test
 *
 * --suite enforces the acceptance gate: every expected stress upgrade
 * happens and the oracle observes zero violations. --sabotage seeds each
 * unsound-transfer mutation in turn and requires the oracle to catch
 * every one.
 *
 * Exit status: 0 on success, 1 when a gate fails (oracle violation,
 * missed upgrade, uncaught sabotage, or --werror with a
 * facts-on Warn), 2 on usage errors, unreadable or unassemblable
 * input, and internal errors.
 */

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis.hh"
#include "asm/assembler.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "report.hh"
#include "sim/system.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"
#include "workloads/range_stress.hh"

using namespace liquid;

namespace
{

/**
 * JSON output format identifier; bump on breaking layout changes.
 * v2: the per-program and per-region `discharged` counts are gone.
 * They counted pair-budget-exhausted dependence verdicts the range
 * facts flipped to Safe; the budget now counts only pairs that share a
 * byte, so the regions those facts proved disjoint never exhaust it.
 */
constexpr const char *rangeSchema = "liquid-range-v2";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *rangeToolVersion = "2.0";

struct Options
{
    std::vector<unsigned> widths{2, 4, 8, 16};
    bool suite = false;
    bool json = false;
    bool werror = false;
    bool sabotage = false;
    bool oracle = true;
    bool prove = false;
};

/** One region verified at one width, facts-off vs facts-on. */
struct RegionRow
{
    std::string label;
    int entryIndex = -1;
    unsigned width = 0;
    Severity before = Severity::Ok;
    Severity after = Severity::Ok;
    std::vector<std::string> facts;
    std::string proofAfter;
};

/** Everything the tool learned about one program. */
struct ProgramOutcome
{
    bool sound = false;
    unsigned rounds = 0;
    std::vector<RegionRow> rows;
    unsigned upgrades = 0;         ///< rows where Warn turned Ok
    std::string tripBound;         ///< first region's proven bound
    unsigned oracleChecked = 0;
    std::vector<std::string> oracleViolations;
    bool oracleRan = false;
};

/** Run the differential oracle: scalar execution vs static facts. */
void
runOracle(const Program &prog, const ProgramRanges &pr,
          ProgramOutcome &out)
{
    const SystemConfig sc =
        SystemConfig::make(ExecMode::ScalarBaseline);
    System sys(sc, prog);
    RangeObserver obs(prog, pr);
    sys.core().setRetireSink(&obs);
    sys.run();
    out.oracleRan = true;
    out.oracleChecked = obs.checkedRetires();
    out.oracleViolations = obs.violations();
}

ProgramOutcome
analyzeProgram(const Program &prog, const Options &opt,
               unsigned sabotage = SabNone)
{
    ProgramOutcome out;

    RangeSolveOptions ropt;
    ropt.sabotage = sabotage;
    const ProgramRanges pr = solveProgramRanges(prog, ropt);
    out.sound = pr.sound;
    out.rounds = pr.rounds;

    for (const unsigned w : opt.widths) {
        VerifyOptions off;
        off.config.simdWidth = w;
        off.prove = opt.prove;
        VerifyOptions on = off;
        on.ranges = &pr;

        const ProgramReport before = verifyProgram(prog, off);
        const ProgramReport after = verifyProgram(prog, on);
        for (std::size_t i = 0;
             i < before.regions.size() && i < after.regions.size();
             ++i) {
            const RegionReport &b = before.regions[i];
            const RegionReport &a = after.regions[i];
            RegionRow row;
            row.label = a.entryLabel;
            row.entryIndex = a.entryIndex;
            row.width = w;
            row.before = b.verdict;
            row.after = a.verdict;
            row.facts = a.rangeFacts;
            row.proofAfter = a.proofVerdict;
            if (b.verdict == Severity::Warn &&
                a.verdict == Severity::Ok)
                ++out.upgrades;
            if (out.tripBound.empty()) {
                const Interval t = pr.tripBound(a.entryIndex);
                if (!t.isTop() && !t.empty())
                    out.tripBound = t.str();
            }
            out.rows.push_back(std::move(row));
        }
    }

    if (opt.oracle)
        runOracle(prog, pr, out);
    return out;
}

json::Value
outcomeJson(const std::string &name, const ProgramOutcome &out)
{
    json::Value v = json::Value::object();
    v.set("program", name);
    v.set("sound", out.sound);
    v.set("rounds", out.rounds);
    if (!out.tripBound.empty())
        v.set("tripCountBound", out.tripBound);
    json::Value rows = json::Value::array();
    for (const RegionRow &r : out.rows) {
        json::Value j = json::Value::object();
        j.set("region", r.label);
        j.set("entryIndex", r.entryIndex);
        j.set("width", r.width);
        j.set("verdictFactsOff", severityName(r.before));
        j.set("verdictFactsOn", severityName(r.after));
        if (!r.proofAfter.empty())
            j.set("proof", r.proofAfter);
        j.set("facts", cli::jsonArray(r.facts));
        rows.push(std::move(j));
    }
    v.set("regions", std::move(rows));
    v.set("upgrades", out.upgrades);
    json::Value oracle = json::Value::object();
    oracle.set("ran", out.oracleRan);
    oracle.set("checkedRetires", out.oracleChecked);
    oracle.set("violations", cli::jsonArray(out.oracleViolations));
    v.set("oracle", std::move(oracle));
    return v;
}

void
printOutcome(const std::string &name, const ProgramOutcome &out)
{
    std::cout << "== " << name << ": "
              << (out.sound ? "sound" : "NOT CONVERGED (facts dropped)")
              << ", " << out.rounds << " round(s)";
    if (!out.tripBound.empty())
        std::cout << ", trip bound " << out.tripBound;
    std::cout << '\n';
    for (const RegionRow &r : out.rows) {
        std::cout << "  " << (r.label.empty() ? "?" : r.label) << " w"
                  << r.width << ": " << severityName(r.before)
                  << " -> " << severityName(r.after) << '\n';
        for (const std::string &f : r.facts)
            std::cout << "    fact: " << f << '\n';
    }
    if (out.oracleRan) {
        std::cout << "  oracle: " << out.oracleChecked
                  << " retires checked, " << out.oracleViolations.size()
                  << " violation(s)\n";
        for (const std::string &s : out.oracleViolations)
            std::cout << "    VIOLATION: " << s << '\n';
    }
}

/** The --sabotage self-test: every mutation must be caught. */
std::vector<cli::SabotageRun>
runSabotage(const Options &opt)
{
    std::vector<cli::SabotageRun> runs = {
        {"unsoundJoin", SabUnsoundJoin, false, ""},
        {"wrapClamp", SabWrapClamp, false, ""},
        {"storeNoHavoc", SabStoreNoHavoc, false, ""},
        {"edgeTighten", SabEdgeTighten, false, ""},
    };
    Options sopt = opt;
    sopt.oracle = true;
    for (cli::SabotageRun &run : runs) {
        for (const RangeStressCase &c : rangeStressCases()) {
            const Program prog = assemble(c.src);
            const ProgramOutcome out =
                analyzeProgram(prog, sopt, run.mode);
            if (!out.oracleViolations.empty()) {
                run.caught = true;
                run.detail = std::string(c.name) + ": " +
                             out.oracleViolations.front();
                break;
            }
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
        "liquid-range",
        {{"", "[options] program.s\n[options] --suite\n[options] --sabotage",
          "", {}, 1}},
        {
            cli::widths({"--widths"}, opt.widths,
                        "accelerator widths to verify (2,4,8,16)"),
            cli::flag({"--suite"}, opt.suite,
                      "analyze the stress set and the workload suite, "
                      "enforcing the upgrade and oracle gates"),
            cli::flag({"--sabotage"}, opt.sabotage,
                      "seed each unsound-transfer mutation and require "
                      "the differential oracle to catch it"),
            cli::flag({"--prove"}, opt.prove,
                      "also run the translation-validation prover (range "
                      "facts shrink its enumeration)"),
            cli::flag({"--no-oracle"}, opt.oracle,
                      "skip the dynamic differential oracle", false),
            cli::flag({"--werror"}, opt.werror,
                      "facts-on Warn verdicts fail the run"),
            cli::flag({"--json"}, opt.json,
                      "machine-readable report on stdout"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        const cli::Analysis run(
            p, {{"--suite", opt.suite}, {"--sabotage", opt.sabotage}},
            rangeSchema, rangeToolVersion, opt.json);
        if (opt.sabotage) {
            return cli::reportSabotage(run.report(), runSabotage(opt),
                                       opt.json);
        }

        // The stress set, then the workload suite: the analysis must
        // stay sound and oracle-clean on the fifteen-benchmark programs
        // too.
        cli::Results<ProgramOutcome> outcomes;
        cli::Gate gate;
        if (opt.suite) {
            for (const RangeStressCase &c : rangeStressCases()) {
                ProgramOutcome out = analyzeProgram(assemble(c.src), opt);
                if (c.expectUpgrade && out.upgrades == 0) {
                    gate.fail(std::string(c.name) +
                              ": expected an upgrade (" + c.blocker + ")");
                }
                if (!c.expectUpgrade && out.upgrades > 0) {
                    gate.fail(std::string(c.name) +
                              ": negative control was upgraded");
                }
                outcomes.emplace_back(c.name, std::move(out));
            }
        }
        run.analyze(opt.suite, 8, true, outcomes, [&](const Program &prog) {
            return analyzeProgram(prog, opt);
        });

        unsigned violations = 0;
        unsigned warnAfter = 0;
        for (const auto &[name, out] : outcomes) {
            violations +=
                static_cast<unsigned>(out.oracleViolations.size());
            for (const RegionRow &r : out.rows)
                warnAfter += r.after == Severity::Warn ? 1 : 0;
        }
        if (violations > 0) {
            gate.fail("oracle: " + std::to_string(violations) +
                      " soundness violation(s)");
        }
        if (opt.werror && warnAfter > 0) {
            gate.fail("werror: " + std::to_string(warnAfter) +
                      " facts-on warn verdict(s)");
        }

        json::Value root = run.report();
        if (opt.json) {
            json::Value arr = json::Value::array();
            for (const auto &[name, out] : outcomes)
                arr.push(outcomeJson(name, out));
            root.set("programs", std::move(arr));
        } else {
            for (const auto &[name, out] : outcomes)
                printOutcome(name, out);
        }
        return gate.finish(std::move(root), opt.json);
    });
}
