/**
 * @file
 * liquid-lab: sharded experiment orchestration for the paper's
 * evaluation matrix.
 *
 *   liquid-lab list                        # campaigns and job counts
 *   liquid-lab run --all --jobs 8          # whole matrix -> BENCH_*.json
 *   liquid-lab run --experiment fig6 --render
 *   liquid-lab run --all --smoke           # 2-rep matrix
 *   liquid-lab render BENCH_fig6.json      # paper tables from JSON
 *   liquid-lab diff BENCH_fig6.json bench/baseline/BENCH_fig6.json
 *
 * `run` shards jobs across worker threads (default: all cores) and
 * serves unchanged configurations from a content-addressed on-disk
 * cache. `diff` exits nonzero when a metric regressed past tolerance,
 * making it a CI gate.
 *
 * Exit status: 0 on success; 1 when `diff` finds a regression, `run
 * --render` a table whose shape is off, or `render` a file it cannot
 * render; 2 on usage errors, unreadable input and internal errors.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <regex>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hh"
#include "cli_args.hh"
#include "fast/tier.hh"
#include "lab/diff.hh"
#include "lab/experiments.hh"
#include "lab/predict.hh"
#include "lab/runner.hh"
#include "workloads/workload.hh"

using namespace liquid;
using namespace liquid::lab;

namespace
{

int
cmdList(bool smoke)
{
    std::cout << "campaigns (" << (smoke ? "smoke" : "full")
              << " matrix):\n";
    std::size_t total = 0;
    for (const auto &campaign : standardCampaigns(smoke)) {
        const std::size_t n = campaign.matrix.expand().size();
        total += n;
        std::cout << "  " << campaign.name << "  -> "
                  << campaign.outputFile << "  (" << n << " jobs)\n";
    }
    std::cout << "total: " << total << " jobs\n\nworkloads:\n";
    for (const auto &name : workloadNames())
        std::cout << "  " << name << '\n';
    return 0;
}

struct RunOptions
{
    std::vector<std::string> experiments;
    unsigned jobs = 0;
    std::string out = ".";
    std::string cacheDir;
    bool noCache = false;
    bool smoke = false;
    std::string filter;
    bool render = false;
    bool progress = false;
    bool predict = false;
    bool prove = false;
    fast::ExecTier tier = fast::ExecTier::Cycle;
};

/**
 * Re-point every job at the functional tier, dropping the ones only
 * the cycle tier can run: liquid mode (no translator), warm-start (no
 * microcode cache) and cycle-periodic fault schedules (no cycle
 * clock). Dropped jobs are reported, never silently skipped.
 */
std::vector<Job>
toFunctionalTier(std::vector<Job> jobs)
{
    std::vector<Job> converted;
    std::size_t dropped = 0;
    for (Job &job : jobs) {
        const bool periodic =
            job.over.faults &&
            FaultSchedule::parse(*job.over.faults).interruptPeriod != 0;
        if (job.mode == ExecMode::Liquid || job.warmStart || periodic) {
            ++dropped;
            continue;
        }
        job.tier = fast::ExecTier::Functional;
        converted.push_back(std::move(job));
    }
    if (dropped) {
        std::cerr << "  --tier functional: dropped " << dropped
                  << " job(s) that need the cycle tier (liquid mode, "
                     "warm-start or cycle-periodic faults)\n";
    }
    return converted;
}

int
cmdRun(const RunOptions &opt)
{
    std::vector<Campaign> campaigns;
    if (opt.experiments.empty()) {
        campaigns = standardCampaigns(opt.smoke);
    } else {
        for (const auto &name : opt.experiments)
            campaigns.push_back(campaignByName(name, opt.smoke));
    }

    std::filesystem::create_directories(opt.out);
    const std::string cacheDir =
        opt.noCache ? ""
                    : (opt.cacheDir.empty()
                           ? opt.out + "/.liquid-lab-cache"
                           : opt.cacheDir);
    const ResultCache cache(cacheDir);
    Runner runner(opt.jobs);

    // One scan of the unhinted suite covers every campaign's jobs.
    std::vector<WorkloadPrediction> predictions;
    if (opt.predict) {
        ScanOptions sopts;
        sopts.prove = opt.prove;
        predictions = predictSuite(sopts);
    }

    bool shapesOk = true;
    for (const auto &campaign : campaigns) {
        std::vector<Job> jobs = campaign.matrix.expand();
        if (opt.tier == fast::ExecTier::Functional)
            jobs = toFunctionalTier(std::move(jobs));
        if (!opt.filter.empty()) {
            const std::regex re(opt.filter);
            std::erase_if(jobs, [&](const Job &job) {
                return !std::regex_search(job.key(), re);
            });
        }
        const auto t0 = std::chrono::steady_clock::now();
        RunnerStats stats;
        std::function<void(const JobResult &)> progress;
        std::size_t done = 0;
        if (opt.progress) {
            const std::size_t n = jobs.size();
            progress = [&done, n](const JobResult &r) {
                std::cerr << "  [" << ++done << '/' << n << "] "
                          << r.job.key()
                          << (r.fromCache ? " (cached)" : "") << '\n';
            };
        }
        ResultSet results =
            runner.run(jobs, cache.enabled() ? &cache : nullptr,
                       &stats, std::move(progress));
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        unsigned tagged = 0;
        if (opt.predict)
            tagged = tagPredictions(results, predictions);

        const std::string path = opt.out + "/" + campaign.outputFile;
        results.writeFile(path);
        std::cout << campaign.name << ": " << stats.jobs << " jobs ("
                  << stats.simulations << " simulated, "
                  << stats.cacheHits << " cached, " << stats.steals
                  << " stolen) on " << runner.workers()
                  << " workers in " << std::fixed
                  << std::setprecision(2) << secs << "s -> " << path
                  << '\n';
        if (opt.predict)
            std::cout << "  tagged " << tagged
                      << " result(s) with scan predictions\n";

        if (opt.render && campaign.render) {
            std::cout << '\n';
            if (!campaign.render(std::cout, results))
                shapesOk = false;
            std::cout << '\n';
        }
    }
    return shapesOk ? 0 : 1;
}

int
cmdRender(const std::vector<std::string> &files)
{
    bool ok = true;
    for (const auto &file : files) {
        const ResultSet results = ResultSet::readFile(file);
        bool rendered = false;
        for (const auto &campaign : standardCampaigns(false)) {
            const bool present = std::any_of(
                results.results().begin(), results.results().end(),
                [&](const JobResult &r) {
                    return r.job.experiment == campaign.name;
                });
            if (!present)
                continue;
            rendered = true;
            if (!campaign.render(std::cout, results))
                ok = false;
            std::cout << '\n';
        }
        if (!rendered) {
            std::cerr << file
                      << ": no known experiment in result set\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

int
cmdDiff(const std::string &currentFile, const std::string &baselineFile,
        double tolPct,
        const std::map<std::string, double> &counterTols)
{
    const ResultSet current = ResultSet::readFile(currentFile);
    const ResultSet baseline = ResultSet::readFile(baselineFile);
    DiffOptions options;
    options.cycleTolerance = tolPct / 100.0;
    options.counterTolerances = counterTols;
    const DiffReport report = diffResults(baseline, current, options);

    std::cout << "compared " << report.jobsCompared
              << " jobs against " << baselineFile << " (tolerance "
              << tolPct << "%)\n";
    for (const auto &e : report.notes)
        std::cout << "  note: " << e.describe() << '\n';
    for (const auto &e : report.improvements)
        std::cout << "  improvement: " << e.describe() << '\n';
    for (const auto &e : report.regressions)
        std::cout << "  REGRESSION: " << e.describe() << '\n';
    if (!report.ok()) {
        std::cout << "FAIL: " << report.regressions.size()
                  << " regression(s)\n";
        return 1;
    }
    std::cout << "OK\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    RunOptions run;
    double tolPct = 2.0;
    std::map<std::string, double> counterTols;
    const cli::Tool tool{
        "liquid-lab",
        {
            {"list", "[--smoke]", "show campaigns, jobs and workloads",
             {cli::flag({"--smoke"}, smoke, "list the reduced 2-rep matrix")},
             0},
            {"run", "[options]", "run experiments, write BENCH_*.json",
             {
                 {{"--experiment"}, "NAME",
                  "campaign to run (repeatable)",
                  [&](const std::string &v) {
                      run.experiments.push_back(v);
                      return true;
                  },
                  ""},
                 {{"--all"}, "", "every campaign (default)",
                  [&](const std::string &) {
                      run.experiments.clear();
                      return true;
                  },
                  ""},
                 cli::number({"--jobs"}, "N", run.jobs,
                             "worker threads (default: all cores)"),
                 cli::text({"--out"}, "DIR", run.out,
                           "output directory (default: .)"),
                 cli::text({"--cache"}, "DIR", run.cacheDir,
                           "result cache (default: "
                           "OUT/.liquid-lab-cache)"),
                 cli::flag({"--no-cache"}, run.noCache,
                           "always simulate"),
                 cli::flag({"--smoke"}, run.smoke,
                           "2 reps per job (too few for the fig6 "
                           "shape checks)"),
                 cli::text({"--filter"}, "REGEX", run.filter,
                           "only jobs whose key matches"),
                 cli::flag({"--render"}, run.render,
                           "also print the paper tables"),
                 cli::flag({"--progress"}, run.progress,
                           "one line per finished job"),
                 cli::flag({"--predict"}, run.predict,
                           "tag liquid results with liquid-scan's static "
                           "speedup prediction"),
                 cli::flag({"--prove"}, run.prove,
                           "with --predict: back each prediction with "
                           "the translation-validation prover and tag "
                           "its verdict"),
                 cli::choice({"--tier"}, run.tier,
                             cli::tierChoices(),
                             "run every job on this tier; functional "
                             "drops jobs that need the cycle tier "
                             "(liquid mode, warm-start, periodic faults) "
                             "with a note, and the results carry no "
                             "cycle counts (absent, not zero)"),
             },
             0},
            {"render", "FILE...", "render paper tables from results", {},
             SIZE_MAX},
            {"diff", "RESULTS BASELINE [options]",
             "regression gate: exit 1 when a metric regressed past "
             "tolerance",
             {
                 cli::real({"--tol"}, "PCT", tolPct,
                           "cycle tolerance in percent (default: 2)"),
                 {{"--counter"}, "NAME:PCT",
                  "also gate counter NAME (repeatable), e.g. --counter "
                  "fast.insts:0",
                  [&](const std::string &spec) {
                      const auto colon = spec.rfind(':');
                      double pct = 0;
                      if (colon == std::string::npos || colon == 0 ||
                          !cli::parseReal(spec.substr(colon + 1), pct))
                          return false;
                      counterTols[spec.substr(0, colon)] = pct / 100.0;
                      return true;
                  },
                  "NAME:PCT with PCT a finite non-negative number"},
             },
             2},
        },
        {}};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        if (p.command == "list")
            return cmdList(smoke);
        if (p.command == "run")
            return cmdRun(run);
        if (p.command == "render") {
            if (p.positional.empty())
                throw cli::UsageError("render: no input files");
            return cmdRender(p.positional);
        }
        if (p.positional.size() != 2)
            throw cli::UsageError("diff: expected <results> <baseline>");
        return cmdDiff(p.positional[0], p.positional[1], tolPct,
                       counterTols);
    });
}
