/**
 * @file
 * liquid-fast: lockstep differential harness and throughput bench for
 * the functional execution tier (src/fast/).
 *
 * The functional interpreter must retire the exact architectural state
 * the cycle core retires, instruction for instruction. This tool is
 * that contract's gate:
 *
 *   liquid-fast                            # lockstep the whole suite
 *   liquid-fast --random 200               # + randomized kernels
 *   liquid-fast --sabotage                 # self-test: seeded handler
 *                                          # bugs must be CAUGHT
 *   liquid-fast --bench --out BENCH_fast.json
 *                                          # retired-instructions/sec
 *                                          # per tier, each gated by a
 *                                          # loose floor; the ratio is
 *                                          # reported, not gated
 *
 * Per-retire lockstep covers ScalarBaseline and NativeSimd execution;
 * Liquid mode interleaves translated microcode into the retire stream
 * and is covered by the chaos oracle's end-state contract instead.
 *
 * Exit status: 0 when every lockstep run is equal (and every sabotage
 * mutation is caught, and the bench gate holds); 1 otherwise; 2 on
 * usage errors and internal errors.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fast/fast.hh"
#include "fast/lockstep.hh"
#include "lab/experiments.hh"
#include "lab/runner.hh"
#include "report.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

using namespace liquid;
using fast::Sabotage;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *fastSchema = "liquid-fast-v2";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *fastToolVersion = "1.0";
/** Bench floors, retired instructions/sec: loose, one per tier. */
constexpr double minCycleRate = 2e6;
constexpr double minFunctionalRate = 2e7;

struct Options
{
    std::vector<std::string> workloads;  ///< empty = whole suite
    std::vector<ExecMode> modes{ExecMode::ScalarBaseline,
                                ExecMode::NativeSimd};
    std::vector<unsigned> widths{8};     ///< native widths
    unsigned random = 0;                 ///< extra random kernels
    std::uint64_t seed = 1;
    std::string faults;                  ///< schedule key for both tiers
    bool sabotage = false;
    bool bench = false;
    std::string out = "BENCH_fast.json";
    std::string dumpDir;
    bool json = false;
};

const char *
lockstepModeName(ExecMode mode)
{
    return mode == ExecMode::ScalarBaseline ? "scalar" : "native";
}

/** One lockstep verdict for the report. */
struct LockstepRecord
{
    std::string name;   ///< workload or generated-kernel name
    ExecMode mode = ExecMode::ScalarBaseline;
    unsigned width = 0;
    fast::LockstepResult result;
};

std::string
recordKey(const LockstepRecord &rec)
{
    std::string key = rec.name;
    key += '/';
    key += lockstepModeName(rec.mode);
    if (rec.mode != ExecMode::ScalarBaseline)
        key += "/w" + std::to_string(rec.width);
    return key;
}

void
dumpDivergence(const std::string &dir, const LockstepRecord &rec)
{
    if (dir.empty())
        return;
    std::filesystem::create_directories(dir);
    std::string file = recordKey(rec);
    for (char &c : file) {
        if (c == '/' || c == '.')
            c = '_';
    }
    std::ofstream os(dir + "/" + file + ".txt");
    os << recordKey(rec) << ": " << rec.result.retires
       << " retires compared\n";
    for (const auto &d : rec.result.divergences)
        os << d << '\n';
}

/**
 * Lockstep one program and record the verdict. Returns equal-ness so
 * callers can tally failures.
 */
bool
checkOne(const Options &opts, std::vector<LockstepRecord> &records,
         const std::string &name, const Program &prog, ExecMode mode,
         unsigned width, Sabotage sabotage = Sabotage::None)
{
    fast::LockstepOptions lopts;
    lopts.sabotage = sabotage;
    if (!opts.faults.empty())
        lopts.faults = FaultSchedule::parse(opts.faults);
    // The stale-decode mutation only bites when an SMC event exercises
    // the invalidation path it corrupts.
    if (sabotage == Sabotage::StaleDecodeAfterSmc && opts.faults.empty())
        lopts.faults = FaultSchedule::parse("smc@40");

    LockstepRecord rec{name, mode, width,
                       fast::runLockstep(prog, mode, width, lopts)};
    const bool equal = rec.result.equal;
    if (!equal)
        dumpDivergence(opts.dumpDir, rec);
    if (!opts.json && !equal && sabotage == Sabotage::None) {
        std::cout << "  " << recordKey(rec) << ": DIVERGED after "
                  << rec.result.retires << " retire(s)\n";
        for (const auto &d : rec.result.divergences)
            std::cout << "      " << d << '\n';
    }
    records.push_back(std::move(rec));
    return equal;
}

/**
 * The lockstep sweep proper: the 15-workload suite (scalar runs the
 * Scalarized build so bl/ret and the call log are exercised; native
 * runs the Native build per width), plus --random generated kernels.
 */
int
runLockstepSweep(const Options &opts)
{
    std::vector<LockstepRecord> records;
    unsigned failures = 0;

    for (const auto &wl : selectWorkloads(opts.workloads)) {
        for (ExecMode mode : opts.modes) {
            if (mode == ExecMode::ScalarBaseline) {
                const auto build =
                    wl->build(EmitOptions::Mode::Scalarized, 8);
                if (!checkOne(opts, records, wl->name(), build.prog,
                              mode, 0))
                    ++failures;
            } else {
                for (unsigned width : opts.widths) {
                    const auto build =
                        wl->build(EmitOptions::Mode::Native, width);
                    if (!checkOne(opts, records, wl->name(),
                                  build.prog, mode, width))
                        ++failures;
                }
            }
        }
    }

    // A kernel the scalarizer rejects runs on neither tier.
    KernelCorpus corpus(opts.seed);
    for (unsigned i = 0; i < opts.random; ++i) {
        corpus.next();
        const std::string name = "rand" + std::to_string(i);
        Rng rs(opts.seed ^ (0x9e3779b97f4a7c15ull + i));
        const auto scalarProg =
            corpus.build(rs, EmitOptions::Mode::Scalarized, 8);
        Rng rn(opts.seed ^ (0x9e3779b97f4a7c15ull + i));
        const auto nativeProg =
            corpus.build(rn, EmitOptions::Mode::Native, 8);
        if (!scalarProg || !nativeProg)
            continue;
        if (!checkOne(opts, records, name, *scalarProg,
                      ExecMode::ScalarBaseline, 0))
            ++failures;
        if (!checkOne(opts, records, name, *nativeProg,
                      ExecMode::NativeSimd, 8))
            ++failures;
    }
    const unsigned skipped = corpus.skipped();
    if (skipped && !opts.json) {
        std::cout << skipped << " random kernel(s) skipped "
                     "(scalarizer limits)\n";
    }

    // Sabotage self-test: each seeded handler mutation must surface as
    // a lockstep divergence — a compare that misses a known-wrong
    // functional tier would also miss a real bug.
    std::vector<std::pair<std::string, bool>> sabotageCaught;
    if (opts.sabotage) {
        const auto victim = makeWorkload("fir");
        const auto scalarBuild =
            victim->build(EmitOptions::Mode::Scalarized, 8);
        const auto nativeBuild =
            victim->build(EmitOptions::Mode::Native, 8);
        for (Sabotage s :
             {Sabotage::WrongFlagUpdate, Sabotage::SkippedStore,
              Sabotage::StaleDecodeAfterSmc, Sabotage::OffByOneBlock}) {
            std::vector<LockstepRecord> scratch;
            const bool scalarEqual = checkOne(
                opts, scratch, "sabotage", scalarBuild.prog,
                ExecMode::ScalarBaseline, 0, s);
            const bool nativeEqual = checkOne(
                opts, scratch, "sabotage", nativeBuild.prog,
                ExecMode::NativeSimd, 8, s);
            // Caught = at least one lockstep run diverged.
            const bool caught = !scalarEqual || !nativeEqual;
            const char *sname =
                s == Sabotage::WrongFlagUpdate ? "wrongFlagUpdate"
                : s == Sabotage::SkippedStore  ? "skippedStore"
                : s == Sabotage::StaleDecodeAfterSmc
                    ? "staleDecodeAfterSmc"
                    : "offByOneBlock";
            sabotageCaught.emplace_back(sname, caught);
            if (!caught)
                ++failures;
            if (!opts.json) {
                std::cout << "sabotage " << sname << ": "
                          << (caught ? "caught" : "MISSED") << '\n';
            }
        }
    }

    if (opts.json) {
        json::Value v = json::toolReport(fastSchema, fastToolVersion);
        v.set("checks", static_cast<std::uint64_t>(records.size()));
        v.set("failures", failures);
        v.set("skipped", skipped);
        json::Value arr = json::Value::array();
        for (const auto &rec : records) {
            json::Value r = json::Value::object();
            r.set("key", recordKey(rec));
            r.set("retires", rec.result.retires);
            r.set("equal", rec.result.equal);
            if (!rec.result.equal)
                r.set("divergences", cli::jsonArray(rec.result.divergences));
            arr.push(std::move(r));
        }
        v.set("results", std::move(arr));
        if (!sabotageCaught.empty()) {
            json::Value sab = json::Value::object();
            for (const auto &[name, caught] : sabotageCaught)
                sab.set(name, caught);
            v.set("sabotageCaught", std::move(sab));
        }
        cli::printReport(v);
    } else {
        std::uint64_t retires = 0;
        for (const auto &rec : records)
            retires += rec.result.retires;
        std::cout << records.size() << " lockstep runs, " << retires
                  << " retires compared, " << failures
                  << " failure(s)\n";
    }
    return failures ? 1 : 0;
}

// ---- throughput bench -----------------------------------------------------

/** Wall-clock per tier over repeated runs of one build. */
struct TierTiming
{
    std::uint64_t insts = 0;
    double seconds = 0;
};

/**
 * Run @p body once for each of @p pairs (workload, mode) pairs, then
 * keep cycling over the pairs until ~budgetSeconds of wall clock have
 * accumulated: one budget per tier, however many pairs there are.
 */
template <typename Body>
TierTiming
timeTier(double budgetSeconds, std::size_t pairs, Body body)
{
    TierTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t run = 0; run < pairs || t.seconds < budgetSeconds;
         ++run) {
        t.insts += body(run % pairs);
        t.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }
    return t;
}

/**
 * Bench: run the "fast" lab campaign for the committed parity results,
 * then measure retired-instructions/sec on both tiers across the suite
 * and attach the throughput block. Each tier must clear its own loose
 * floor; the functional/cycle ratio is reported only, so a faster
 * cycle tier can never fail the gate.
 */
int
runBench(const Options &opts)
{
    // Parity results via the lab, smoke-sized as the committed
    // bench/baseline/BENCH_fast.json was recorded.
    lab::Runner runner(0);
    lab::ResultSet results = runner.run(
        lab::campaignByName("fast", true).matrix.expand(), nullptr,
        nullptr, nullptr);

    // Throughput: full-sized workloads, both modes, both tiers.
    struct Pair
    {
        Workload::Build build;
        SystemConfig config;
        fast::FastConfig fc;
    };
    std::vector<Pair> pairs;
    for (const auto &wl : selectWorkloads(opts.workloads)) {
        for (ExecMode mode : opts.modes) {
            Pair p{wl->build(mode == ExecMode::ScalarBaseline
                                 ? EmitOptions::Mode::Scalarized
                                 : EmitOptions::Mode::Native,
                             8),
                   SystemConfig::make(mode, 8), {}};
            p.fc.simdWidth =
                mode == ExecMode::ScalarBaseline ? 0 : p.config.simdWidth;
            pairs.push_back(std::move(p));
        }
    }

    constexpr double budgetSeconds = 0.3;
    const TierTiming cycle =
        timeTier(budgetSeconds, pairs.size(),
                 [&](std::size_t i) -> std::uint64_t {
                     System sys(pairs[i].config, pairs[i].build.prog);
                     sys.run();
                     return sys.core().stats().get("insts");
                 });
    const TierTiming functional =
        timeTier(budgetSeconds, pairs.size(),
                 [&](std::size_t i) -> std::uint64_t {
                     const Program &prog = pairs[i].build.prog;
                     MainMemory mem = MainMemory::forProgram(prog);
                     fast::FastInterp interp(pairs[i].fc, prog, mem);
                     interp.run();
                     return interp.retired();
                 });

    const double cycleRate =
        static_cast<double>(cycle.insts) / cycle.seconds;
    const double functionalRate =
        static_cast<double>(functional.insts) / functional.seconds;
    const double speedup = functionalRate / cycleRate;

    json::Value v = results.toJson();
    json::Value thr = json::Value::object();
    thr.set("schema", fastSchema);
    json::Value cyc = json::Value::object();
    cyc.set("insts", cycle.insts);
    cyc.set("retiredPerSec", cycleRate);
    thr.set("cycle", std::move(cyc));
    json::Value fun = json::Value::object();
    fun.set("insts", functional.insts);
    fun.set("retiredPerSec", functionalRate);
    thr.set("functional", std::move(fun));
    thr.set("speedup", speedup);
    v.set("throughput", std::move(thr));

    std::ofstream os(opts.out, std::ios::binary);
    if (!os)
        fatal("cannot write '", opts.out, "'");
    os << v.toString();

    std::cout << "cycle tier:      " << static_cast<std::uint64_t>(
                     cycleRate) << " retired insts/sec (floor "
              << static_cast<std::uint64_t>(minCycleRate) << ")\n"
              << "functional tier: " << static_cast<std::uint64_t>(
                     functionalRate) << " retired insts/sec (floor "
              << static_cast<std::uint64_t>(minFunctionalRate)
              << ")\n"
              << "speedup:         " << speedup
              << "x functional over cycle (reported, not gated)\n"
              << "results + throughput -> " << opts.out << '\n';
    bool ok = true;
    if (cycleRate < minCycleRate) {
        std::cout << "FAIL: cycle tier below its throughput floor\n";
        ok = false;
    }
    if (functionalRate < minFunctionalRate) {
        std::cout << "FAIL: functional tier below its throughput "
                     "floor\n";
        ok = false;
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const cli::Tool tool{
        "liquid-fast",
        {{"", "[options]", "", {}, 0}},
        {
            cli::list({"--workloads"}, "LIST", opts.workloads,
                      "comma-separated suite names (default: all)"),
            cli::choiceList({"--modes"}, opts.modes,
                            {{"scalar", ExecMode::ScalarBaseline},
                             {"native", ExecMode::NativeSimd}},
                            "lockstep modes (default: both; liquid is "
                            "covered by liquid-chaos)"),
            cli::widths({"--widths"}, opts.widths,
                        "native SIMD widths (default: 8)"),
            cli::number({"--random"}, "N", opts.random,
                        "also lockstep N random kernels"),
            cli::number({"--seed"}, "S", opts.seed,
                        "random-kernel RNG seed (default 1)"),
            cli::text({"--faults"}, "KEY", opts.faults,
                      "retire-keyed schedule for both tiers, e.g. "
                      "'int@40+smc@100'"),
            cli::flag({"--sabotage"}, opts.sabotage,
                      "self-test: seed each handler mutation and require "
                      "the lockstep compare to catch it"),
            cli::flag({"--bench"}, opts.bench,
                      "measure retired-instructions/sec on both tiers and "
                      "write a results file"),
            cli::text({"--out"}, "FILE", opts.out,
                      "bench output path (default BENCH_fast.json)"),
            cli::text({"--dump-dir"}, "DIR", opts.dumpDir,
                      "write one divergence dump file per failing "
                      "lockstep run"),
            cli::flag({"--json"}, opts.json,
                      "machine-readable report on stdout"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &) {
        return opts.bench ? runBench(opts) : runLockstepSweep(opts);
    });
}
