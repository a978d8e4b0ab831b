/**
 * @file
 * The `campaign` workload: the full six-campaign lab matrix (fig6,
 * ucache, latency, cache, chaos, fast — 552 jobs, no result cache)
 * through lab::Runner on a fixed worker count, then the jobs of the
 * same matrix the functional tier can run.
 *
 * Phase 1 is the cycle-tier matrix (campaign_s), phase 2 the
 * functional pass (functional_insts_per_s); an operation is one job.
 * The inputs are the fixed paper suite, so the seed selects nothing
 * here; it is recorded with the result.
 */

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "chaos/fault_schedule.hh"
#include "fast/fast.hh"
#include "lab/experiments.hh"
#include "lab/lab.hh"
#include "lab/runner.hh"
#include "memory/main_memory.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace liquid;

/** Fixed worker count: at most nproc on the 4-core reference host. */
unsigned
campaignWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Matrix
{
    std::vector<lab::Job> cycle;
    std::vector<lab::Job> functional;
};

/**
 * Expand every standard campaign at full size, and select the jobs
 * `liquid-lab run --all --tier functional` keeps: liquid mode,
 * warm-start and cycle-periodic fault schedules need the cycle tier.
 */
Matrix
expandMatrix()
{
    Matrix m;
    for (const lab::Campaign &c : lab::standardCampaigns(false)) {
        std::vector<lab::Job> jobs = c.matrix.expand();
        m.cycle.insert(m.cycle.end(), jobs.begin(), jobs.end());
    }
    for (lab::Job job : m.cycle) {
        const bool periodic =
            job.over.faults &&
            FaultSchedule::parse(*job.over.faults).interruptPeriod != 0;
        if (job.mode == ExecMode::Liquid || job.warmStart || periodic)
            continue;
        job.tier = fast::ExecTier::Functional;
        m.functional.push_back(std::move(job));
    }
    return m;
}

/** One measured pass over a job list. */
struct Pass
{
    double wall = 0.0;
    /** Per-job host seconds. */
    std::vector<double> jobSeconds;
    lab::ResultSet results;
    /** Scheduler counters; runnerPass only. */
    lab::RunnerStats stats;
};

Pass
runnerPass(const std::vector<lab::Job> &jobs)
{
    lab::Runner runner(campaignWorkers());
    Pass pass;
    // The Runner calls progress serially, on the worker that finished
    // the job; a worker's previous completion is when the job started.
    std::map<std::thread::id, Clock::time_point> lastDone;
    const Clock::time_point t0 = Clock::now();
    auto progress = [&](const lab::JobResult &) {
        const Clock::time_point now = Clock::now();
        auto [it, fresh] =
            lastDone.try_emplace(std::this_thread::get_id(), t0);
        pass.jobSeconds.push_back(secondsBetween(it->second, now));
        it->second = now;
    };
    pass.results = runner.run(jobs, nullptr, &pass.stats, progress);
    pass.wall = secondsSince(t0);
    return pass;
}

/** Span name of the layer runBuilt exercises for @p job. */
const char *
runLayer(const lab::Job &job)
{
    if (job.tier == fast::ExecTier::Functional)
        return "fast.runBuilt";
    return job.experiment == "chaos" ? "chaos.runBuilt" : "sim.runBuilt";
}

/**
 * Pass outside the Runner, with spans around buildJob and runBuilt,
 * which the Runner does not expose: each worker takes the next job
 * index until none is left. Run with a disabled recorder, it is the
 * untraced reference for the tracing overhead.
 */
Pass
loopPass(const std::vector<lab::Job> &jobs, Trace &trace,
         const std::string &name)
{
    std::atomic<std::size_t> nextJob{0};
    std::mutex mutex;
    Pass pass;
    std::vector<lab::JobResult> slots(jobs.size());
    std::vector<double> seconds(jobs.size(), 0.0);
    std::exception_ptr error;
    const Clock::time_point t0 = Clock::now();
    const Span root(trace, name);
    auto worker = [&] {
        try {
            for (std::size_t i = nextJob++; i < jobs.size(); i = nextJob++) {
                const Clock::time_point start = Clock::now();
                const Span job(trace, "lab.job", root.id());
                Workload::Build build;
                {
                    const Span s(trace, "lab.buildJob", job.id());
                    build = lab::buildJob(jobs[i]);
                }
                {
                    const Span s(trace, runLayer(jobs[i]), job.id());
                    slots[i].outcome = lab::runBuilt(jobs[i], build);
                }
                slots[i].job = jobs[i];
                seconds[i] = secondsSince(start);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < campaignWorkers(); ++w)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
    pass.wall = secondsSince(t0);
    pass.jobSeconds = std::move(seconds);
    for (lab::JobResult &r : slots)
        pass.results.add(std::move(r));
    pass.results.sortByKey();
    return pass;
}

/** Exact simulated outputs: model counts, never host speed. */
struct ModelCounts
{
    std::map<std::string, std::uint64_t> sums;

    void
    addCycle(const lab::RunOutcome &o)
    {
        sums["cycles"] += o.cycles;
        sums["retranslations"] += o.retranslations;
        for (const char *c :
             {"core.insts", "dcache.hits", "dcache.accesses",
              "icache.hits", "icache.accesses", "ucodeCache.hits",
              "ucodeCache.lookups", "translator.translations",
              "translator.capturesStarted"}) {
            if (auto it = o.counters.find(c); it != o.counters.end())
                sums[c] += it->second;
        }
    }

    void
    addFunctional(const lab::RunOutcome &o)
    {
        sums["fast.insts"] += o.counters.at("fast.insts");
    }

    double
    ratio(const std::string &num, const std::string &den) const
    {
        const std::uint64_t d = sums.count(den) ? sums.at(den) : 0;
        return d ? static_cast<double>(sums.at(num)) /
                       static_cast<double>(d)
                 : 0.0;
    }
};

ModelCounts
modelCounts(const lab::ResultSet &cycle, const lab::ResultSet &functional)
{
    ModelCounts m;
    for (const lab::JobResult &r : cycle.results()) {
        if (r.outcome.hasCycles)
            m.addCycle(r.outcome);
    }
    for (const lab::JobResult &r : functional.results())
        m.addFunctional(r.outcome);
    return m;
}

/** Check every job's result digest and the model counts. */
void
checkPass(const lab::ResultSet &results, Recorded &recorded, Outcome &out)
{
    for (const lab::JobResult &r : results.results())
        recorded.checkDigest(r.job.key(), r.digest(), out);
}

void
checkCounts(const ModelCounts &m, Recorded &recorded, Outcome &out)
{
    for (const auto &[name, value] : m.sums)
        recorded.checkCount(name, value, out);
}

/**
 * Output arrays against Workload::goldenRun: every suite workload on
 * the cycle tier (Liquid, width 8) and on the functional tier (native
 * SIMD, width 8), at two outer reps.
 */
void
checkGolden(const std::vector<std::unique_ptr<Workload>> &suite,
            Outcome &out)
{
    for (const auto &wl : suite) {
        for (const bool functional : {false, true}) {
            const Workload::Build build =
                wl->build(functional ? EmitOptions::Mode::Native
                                     : EmitOptions::Mode::Scalarized,
                          8);
            MainMemory golden = MainMemory::forProgram(build.prog);
            wl->goldenRun(build, golden);

            std::unique_ptr<System> sys;
            MainMemory fmem = MainMemory::forProgram(build.prog);
            if (functional) {
                fast::FastConfig fc;
                fc.simdWidth = 8;
                fast::FastInterp interp(fc, build.prog, fmem);
                interp.run();
            } else {
                sys = std::make_unique<System>(
                    SystemConfig::make(ExecMode::Liquid, 8), build.prog);
                sys->run();
            }
            const MainMemory &mem = functional ? fmem : sys->memory();
            bool same = true;
            for (const auto &[name, words] : wl->allOutputs()) {
                same = same &&
                       Workload::readArray(build.prog, mem, name, words) ==
                           Workload::readArray(build.prog, golden, name,
                                               words);
            }
            out.check(same, "campaign: " + wl->name() +
                                (functional ? " functional" : " cycle") +
                                " outputs differ from goldenRun");
        }
    }
}

} // namespace

void
runCampaign(const RunArgs &args, Trace &trace, Outcome &out)
{
    // --- set-up: matrix expansion + suite build, setupRuns times. An
    // untraced run sets up again before every pass, so setup_s, the
    // median, samples the host over the whole run, not at one instant
    // (a few milliseconds moved by 20% between runs otherwise). ---
    Matrix matrix;
    std::vector<std::unique_ptr<Workload>> suite;
    std::vector<double> setups;
    auto setUp = [&] {
        const Clock::time_point t0 = Clock::now();
        matrix = expandMatrix();
        suite = makeSuite();
        for (const auto &wl : suite) {
            wl->setReps(2);
            wl->build(EmitOptions::Mode::Scalarized, 8);
            wl->build(EmitOptions::Mode::Native, 8);
        }
        setups.push_back(secondsSince(t0));
    };
    for (int i = 0; i < setupRuns; ++i)
        setUp();

    Recorded recorded(args);

    if (!args.trace) {
        // --- phase 1: cycle-tier matrix; phase 2: functional pass ---
        std::vector<Pass> cycle, functional;
        const Clock::time_point t0 = Clock::now();
        do {
            setUp();
            cycle.push_back(runnerPass(matrix.cycle));
        } while (secondsSince(t0) + cycle.back().wall <=
                 0.85 * args.seconds);
        const Clock::time_point t1 = Clock::now();
        do {
            setUp();
            functional.push_back(runnerPass(matrix.functional));
        } while (secondsSince(t1) + functional.back().wall <=
                 0.15 * args.seconds);

        std::vector<double> walls1, walls2, ops1, ops2;
        for (const Pass &p : cycle) {
            walls1.push_back(p.wall);
            ops1.insert(ops1.end(), p.jobSeconds.begin(),
                        p.jobSeconds.end());
            checkPass(p.results, recorded, out);
        }
        for (const Pass &p : functional) {
            walls2.push_back(p.wall);
            ops2.insert(ops2.end(), p.jobSeconds.begin(),
                        p.jobSeconds.end());
            checkPass(p.results, recorded, out);
        }
        const ModelCounts m =
            modelCounts(cycle.front().results, functional.front().results);
        checkCounts(m, recorded, out);
        checkGolden(suite, out);

        for (double &s : ops1)
            s *= 1e3;
        for (double &s : ops2)
            s *= 1e3;
        out.endToEnd["phase1_s"] = {median(walls1), "s"};
        out.endToEnd["phase2_s"] = {median(walls2), "s"};
        out.endToEnd["phase1_p50_ms"] = {percentile(ops1, 50), "ms"};
        out.endToEnd["phase1_p95_ms"] = {percentile(ops1, 95), "ms"};
        out.endToEnd["phase2_p50_ms"] = {percentile(ops2, 50), "ms"};
        out.endToEnd["phase2_p95_ms"] = {percentile(ops2, 95), "ms"};
        out.named.push_back({"campaign_s", {median(walls1), "s"}});
        out.named.push_back(
            {"functional_insts_per_s",
             {static_cast<double>(m.sums.at("fast.insts")) /
                  median(walls2),
              "1/s"}});
        out.named.push_back(
            {"campaign.passes", {static_cast<double>(cycle.size()), "count"}});
        out.named.push_back({"campaign.jobs",
                             {static_cast<double>(matrix.cycle.size()),
                              "count"}});
        out.named.push_back({"functional.jobs",
                             {static_cast<double>(matrix.functional.size()),
                              "count"}});
        out.named.push_back(
            {"phase1.samples", {static_cast<double>(ops1.size()), "count"}});
        out.named.push_back(
            {"phase2.samples", {static_cast<double>(ops2.size()), "count"}});
    } else {
        // --- traced run: one Runner pass for the scheduler's view
        // (steals, utilisation), then each phase through loopPass, first
        // untraced (the overhead reference) and then traced ---
        const Pass runner = runnerPass(matrix.cycle);
        Trace off(false);
        const Pass plain1 = loopPass(matrix.cycle, off, "campaign.cycle");
        const Pass plain2 =
            loopPass(matrix.functional, off, "campaign.functional");
        const Pass traced1 = loopPass(matrix.cycle, trace, "campaign.cycle");
        const Pass traced2 =
            loopPass(matrix.functional, trace, "campaign.functional");
        for (const Pass *p : {&runner, &plain1, &plain2, &traced1, &traced2})
            checkPass(p->results, recorded, out);
        const ModelCounts m = modelCounts(plain1.results, plain2.results);
        const ModelCounts mt = modelCounts(traced1.results, traced2.results);
        checkCounts(m, recorded, out);
        checkCounts(mt, recorded, out);
        checkGolden(suite, out);

        std::uint64_t simInsts = 0, fastInsts = 0;
        for (const Pass *p : {&traced1, &traced2}) {
            for (const lab::JobResult &r : p->results.results()) {
                const std::string layer = runLayer(r.job);
                if (layer == "sim.runBuilt")
                    simInsts += r.outcome.counters.at("core.insts");
                else if (layer == "fast.runBuilt")
                    fastInsts += r.outcome.counters.at("fast.insts");
            }
        }
        double jobTotal = 0.0;
        for (double s : runner.jobSeconds)
            jobTotal += s;
        const double simRun = trace.totalSeconds("sim.runBuilt");
        const double fastRun = trace.totalSeconds("fast.runBuilt");
        auto &L = out.perLayer;
        L["lab.build_s"] = {trace.totalSeconds("lab.buildJob"), "s"};
        L["sim.run_s"] = {simRun, "s"};
        L["sim.insts_per_s"] = {simRun > 0 ? simInsts / simRun : 0.0, "1/s"};
        L["sim.straggler_s"] = {
            *std::max_element(traced1.jobSeconds.begin(),
                              traced1.jobSeconds.end()),
            "s"};
        L["chaos.run_s"] = {trace.totalSeconds("chaos.runBuilt"), "s"};
        L["lab.runner_util"] = {
            jobTotal / (campaignWorkers() * runner.wall), "ratio"};
        L["lab.steals"] = {static_cast<double>(runner.stats.steals),
                           "count"};
        L["fast.run_s"] = {fastRun, "s"};
        L["fast.insts_per_s"] = {fastRun > 0 ? fastInsts / fastRun : 0.0,
                                 "1/s"};
        auto count = [&](const char *name) {
            return static_cast<double>(m.sums.at(name));
        };
        L["model.cycles"] = {count("cycles"), "cycles"};
        L["model.core.insts"] = {count("core.insts"), "count"};
        L["model.dcache.hit_ratio"] = {
            m.ratio("dcache.hits", "dcache.accesses"), "ratio"};
        L["model.icache.hit_ratio"] = {
            m.ratio("icache.hits", "icache.accesses"), "ratio"};
        L["model.ucodeCache.hit_ratio"] = {
            m.ratio("ucodeCache.hits", "ucodeCache.lookups"), "ratio"};
        L["model.translator.commit_ratio"] = {
            m.ratio("translator.translations",
                    "translator.capturesStarted"),
            "ratio"};
        L["model.retranslations"] = {count("retranslations"), "count"};
        L["model.fast.insts"] = {count("fast.insts"), "count"};
        L["trace.overhead_ratio"] = {traced1.wall / plain1.wall - 1.0,
                                     "ratio"};
        out.named.push_back({"campaign_s (untraced)", {plain1.wall, "s"}});
        out.named.push_back({"campaign_s (traced)", {traced1.wall, "s"}});
    }
    out.endToEnd["setup_s"] = {median(setups), "s"};

    recorded.finish(out);
}

} // namespace perfbench
