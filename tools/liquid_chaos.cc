/**
 * @file
 * liquid-chaos: deterministic fault-schedule injection with an
 * architectural-state equivalence oracle.
 *
 * The paper's transparency claim is that Liquid SIMD execution
 * survives any external event — interrupts, microcode-cache flushes
 * and evictions, self-modifying code — with architectural results
 * bit-identical to the scalar loop. This tool checks that claim on the
 * 15-benchmark suite: every run executes a (workload, width, schedule)
 * triple twice, scalar reference vs Liquid-with-faults, and compares
 * final memory, scalar registers and call-log shape.
 *
 *   liquid-chaos smoke                      # suite x curated schedules
 *   liquid-chaos explore --window 16 --trials 8
 *                                           # exhaustive + randomized
 *   liquid-chaos run --schedule flush@80 --workload fir
 *                                           # replay one schedule key
 *
 * Common options: --width W (default 8), --workloads a,b,c, --json,
 * --seed S. Failing schedules print their canonical key, which feeds
 * straight back into `run --schedule`.
 *
 * The scalar reference side runs on the functional execution tier
 * (src/fast/) by default — it produces the identical architectural
 * snapshot at a fraction of the cost, which is what makes large
 * --trials sweeps affordable. --reference cycle restores the cycle
 * core as the ground-truth generator.
 *
 * Exit status: 0 when every schedule preserves architectural state;
 * 1 on any oracle mismatch; 2 on usage errors, a bad schedule key and
 * internal errors.
 */

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/oracle.hh"
#include "cli_args.hh"
#include "common/json.hh"
#include "fast/reference.hh"
#include "fast/tier.hh"
#include "report.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *chaosSchema = "liquid-chaos-v1";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *chaosToolVersion = "1.0";

/**
 * Curated smoke schedules: at least one of every fault kind, at
 * retire indices that land inside every suite workload. Keep in sync
 * with the lab chaos campaign (src/lab/experiments.cc).
 */
const std::vector<std::string> smokeSchedules = {
    "p700",   "int@40",  "flush@80",
    "evict@60", "smc@100", "dcache@50",
    "int@40+flush@80+smc@100",  // kinds compose within one run
};

struct Options
{
    unsigned width = 8;
    std::vector<std::string> workloads;  ///< empty = whole suite
    std::string schedule;                ///< run: schedule key
    std::uint64_t window = 16;           ///< explore: exhaustive part
    unsigned trials = 8;                 ///< explore: randomized part
    std::uint64_t seed = 1;
    bool json = false;
    /** Tier computing the scalar ground truth (functional = cheap). */
    fast::ExecTier reference = fast::ExecTier::Functional;
};

using RefMaker = ChaosReference (*)(const Program &, unsigned);

/** The reference maker matching --reference. */
RefMaker
referenceMaker(const Options &opts)
{
    return opts.reference == fast::ExecTier::Functional
               ? fast::makeFunctionalReference
               : makeReference;
}

/** The selected workloads, built Scalarized at the oracle width. */
std::vector<std::pair<std::string, Workload::Build>>
buildWorkloads(const Options &opts)
{
    std::vector<std::pair<std::string, Workload::Build>> builds;
    for (const auto &wl : selectWorkloads(opts.workloads)) {
        builds.emplace_back(
            wl->name(),
            wl->build(EmitOptions::Mode::Scalarized, opts.width));
    }
    return builds;
}

/** One (workload, schedule) oracle verdict for the report. */
struct CheckRecord
{
    std::string workload;
    std::string scheduleKey;
    ChaosReport report;
};

json::Value
recordJson(const CheckRecord &rec)
{
    json::Value v = json::Value::object();
    v.set("workload", rec.workload);
    v.set("schedule", rec.scheduleKey);
    v.set("equal", rec.report.equal);
    v.set("cycles", rec.report.cycles);
    v.set("faultsFired", rec.report.faultsFired);
    v.set("translations", rec.report.translations);
    v.set("retranslations", rec.report.retranslations);
    if (!rec.report.equal)
        v.set("mismatches", cli::jsonArray(rec.report.mismatches));
    return v;
}

void
printRecord(const CheckRecord &rec)
{
    std::cout << "  " << rec.workload << " x " << rec.scheduleKey
              << ": "
              << (rec.report.equal ? "equal" : "STATE MISMATCH")
              << " (faults " << rec.report.faultsFired
              << ", retranslations " << rec.report.retranslations
              << ")\n";
    for (const auto &m : rec.report.mismatches)
        std::cout << "      " << m << '\n';
}

int
emitReport(const Options &opts, const std::string &command,
           const std::vector<CheckRecord> &records)
{
    unsigned failures = 0;
    for (const auto &rec : records)
        failures += rec.report.equal ? 0 : 1;

    if (opts.json) {
        json::Value v = json::toolReport(chaosSchema, chaosToolVersion);
        v.set("command", command);
        v.set("width", opts.width);
        v.set("reference", fast::tierName(opts.reference));
        v.set("checks", static_cast<std::uint64_t>(records.size()));
        v.set("failures", failures);
        v.set("results", cli::jsonArray(records, recordJson));
        cli::printReport(v);
    } else {
        std::cout << records.size() << " checks, " << failures
                  << " mismatches\n";
        if (failures) {
            std::cout << "replay any failure with: liquid-chaos run "
                         "--schedule KEY --workloads NAME\n";
        }
    }
    return failures ? 1 : 0;
}

int
runCurated(const Options &opts, const std::vector<std::string> &keys,
           const std::string &command)
{
    std::vector<CheckRecord> records;
    for (const auto &[name, build] : buildWorkloads(opts)) {
        const ChaosReference ref =
            referenceMaker(opts)(build.prog, opts.width);
        for (const auto &key : keys) {
            const FaultSchedule sched = FaultSchedule::parse(key);
            CheckRecord rec{name, key,
                            checkSchedule(ref, build.prog, opts.width,
                                          sched)};
            if (!opts.json && !rec.report.equal)
                printRecord(rec);
            records.push_back(std::move(rec));
        }
        if (!opts.json)
            std::cout << name << ": " << keys.size()
                      << " schedules checked\n";
    }
    return emitReport(opts, command, records);
}

int
runExplore(const Options &opts)
{
    std::vector<CheckRecord> records;
    std::map<std::string, unsigned> coverage;
    for (const auto &[name, build] : buildWorkloads(opts)) {
        ExploreOptions eopts;
        eopts.window = opts.window;
        eopts.trials = opts.trials;
        eopts.seed = opts.seed;
        eopts.refMaker = referenceMaker(opts);
        const ExploreSummary summary =
            exploreSchedules(build.prog, opts.width, eopts);
        for (const auto &[kind, count] : summary.kindCoverage)
            coverage[kind] += count;
        if (!opts.json) {
            std::cout << name << ": " << summary.schedulesRun
                      << " schedules, " << summary.faultsFired
                      << " faults, " << summary.retranslations
                      << " retranslations, "
                      << summary.failures.size() << " failures\n";
        }
        for (const auto &f : summary.failures) {
            CheckRecord rec{name, f.scheduleKey, ChaosReport{}};
            rec.report.equal = false;
            rec.report.mismatches = f.mismatches;
            if (!opts.json)
                printRecord(rec);
            records.push_back(std::move(rec));
        }
        // Successful explorations are summarized, not itemized: one
        // record keeps the JSON bounded while failures stay complete.
        CheckRecord ok{name,
                       "explored:" + std::to_string(summary.schedulesRun),
                       ChaosReport{}};
        ok.report.equal = summary.ok();
        ok.report.faultsFired = summary.faultsFired;
        ok.report.retranslations = summary.retranslations;
        if (summary.ok())
            records.push_back(std::move(ok));
    }
    if (!opts.json) {
        std::cout << "kind coverage:";
        for (const auto &[kind, count] : coverage)
            std::cout << ' ' << kind << '=' << count;
        std::cout << '\n';
    }
    return emitReport(opts, "explore", records);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const cli::Tool tool{
        "liquid-chaos",
        {
            {"smoke", "[options]",
             "every workload against the curated fault schedules", {}, 0},
            {"explore", "[options]",
             "exhaustive single-event plus random multi-event schedules",
             {}, 0},
            {"run", "--schedule KEY [options]",
             "replay one schedule key", {}, 0},
        },
        {
            cli::width({"--width"}, opts.width, "SIMD width (default 8)"),
            cli::list({"--workloads"}, "LIST", opts.workloads,
                      "comma-separated suite names (default: all)"),
            cli::text({"--schedule"}, "KEY", opts.schedule,
                      "fault schedule to replay, e.g. 'int@40+flush@80'"),
            cli::number({"--window"}, "N", opts.window,
                        "explore: exhaustive single-event schedules for "
                        "each kind at retire 1..N (default 16)"),
            cli::number({"--trials"}, "N", opts.trials,
                        "explore: random multi-event schedules (default "
                        "8)"),
            cli::number({"--seed"}, "S", opts.seed,
                        "explore: RNG seed (default 1)"),
            cli::choice({"--reference"}, opts.reference,
                        cli::tierChoices(),
                        "scalar ground-truth generator: the timing core "
                        "or the fast interpreter (default: functional)"),
            cli::flag({"--json"}, opts.json,
                      "machine-readable report on stdout"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        if (p.command == "smoke")
            return runCurated(opts, smokeSchedules, "smoke");
        if (p.command == "explore")
            return runExplore(opts);
        if (opts.schedule.empty())
            throw cli::UsageError("run: --schedule KEY is required");
        return runCurated(opts, {opts.schedule}, "run");
    });
}
