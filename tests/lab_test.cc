/**
 * @file
 * Lab orchestration subsystem tests: matrix expansion, parallel
 * determinism (byte-identical JSON at 1 vs 8 workers), the on-disk
 * result cache (second run performs zero simulations, damaged entries
 * are misses), the regression gate, the StatGroup single-owner
 * contract and the flat CounterMap snapshot.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "common/stats.hh"
#include "lab/counter_map.hh"
#include "lab/diff.hh"
#include "lab/experiments.hh"
#include "lab/result_cache.hh"
#include "lab/runner.hh"
#include "lab/spec.hh"

namespace liquid::lab
{
namespace
{

// StatGroups are owned by exactly one component of one System; the
// move-only type is what lets the runner simulate Systems on many
// threads without aliased counters.
static_assert(!std::is_copy_constructible_v<StatGroup>,
              "StatGroup must not be copyable (single-System-owned)");
static_assert(!std::is_copy_assignable_v<StatGroup>,
              "StatGroup must not be copy-assignable");
static_assert(std::is_move_constructible_v<StatGroup>,
              "StatGroup ownership must be transferable");

/** A small, fast matrix exercising every job axis. */
std::vector<Job>
smallMatrix()
{
    ExperimentSpec spec;
    spec.name = "labtest";
    spec.workloads = {"fir", "lu", "fft"};
    spec.modes = {ExecMode::ScalarBaseline, ExecMode::Liquid};
    spec.widths = {2, 8};
    spec.repsList = {2};
    spec.includeIdeal = true;
    spec.idealWidth = 8;
    return spec.expand();
}

struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string &name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(LabSpec, SuiteExpansionAndKeys)
{
    ExperimentSpec spec;
    spec.name = "x";
    spec.modes = {ExecMode::ScalarBaseline, ExecMode::Liquid};
    spec.widths = {2, 4, 8, 16};
    const auto jobs = spec.expand();

    // Empty workload list means the whole 15-benchmark suite; the
    // scalar baseline has no width axis, so each workload yields one
    // scalar job plus four Liquid jobs.
    ASSERT_EQ(suiteWorkloadNames().size(), 15u);
    EXPECT_EQ(jobs.size(), 15u * (1 + 4));

    std::set<std::string> keys;
    unsigned scalar = 0;
    for (const auto &job : jobs) {
        EXPECT_TRUE(keys.insert(job.key()).second)
            << "duplicate key " << job.key();
        if (job.mode == ExecMode::ScalarBaseline) {
            ++scalar;
            EXPECT_EQ(job.width, 0u) << job.key();
        }
    }
    EXPECT_EQ(scalar, 15u);
}

TEST(LabSpec, KeyFormatAndSeeds)
{
    Job job;
    job.experiment = "fig6";
    job.workload = "fir";
    job.mode = ExecMode::Liquid;
    job.width = 8;
    EXPECT_EQ(job.key(), "fig6/fir/liquid/w8");

    job.warmStart = true;
    EXPECT_EQ(job.key(), "fig6/fir/liquid/w8/ideal");

    job.warmStart = false;
    job.over.ucodeEntries = 4;
    job.repsOverride = 128;
    EXPECT_EQ(job.key(), "fig6/fir/liquid/w8/e4/reps128");

    // Distinct keys must give distinct deterministic seeds.
    Job other = job;
    other.width = 16;
    EXPECT_NE(job.rngSeed(), other.rngSeed());
    EXPECT_EQ(job.rngSeed(), fnv1a(job.key()));
}

TEST(LabSpec, OverridesApplyAndDedup)
{
    Job job;
    job.experiment = "x";
    job.workload = "fir";
    job.mode = ExecMode::Liquid;
    job.width = 8;
    job.over.ucodeEntries = 2;
    job.over.dcacheSizeBytes = 4096;
    job.over.dcacheAssoc = 64;
    const SystemConfig config = job.config();
    EXPECT_EQ(config.ucodeCache.entries, 2u);
    EXPECT_EQ(config.core.dcache.sizeBytes, 4096u);
    EXPECT_EQ(config.core.dcache.assoc, 64u);

    // Two specs covering the same point collapse to one job.
    ExperimentSpec a, b;
    a.name = b.name = "x";
    a.workloads = b.workloads = {"fir"};
    a.modes = b.modes = {ExecMode::Liquid};
    a.widths = b.widths = {8};
    ExperimentMatrix matrix;
    matrix.specs = {a, b};
    EXPECT_EQ(matrix.expand().size(), 1u);
}

TEST(LabSpec, ModeNamesRoundTrip)
{
    for (ExecMode mode : {ExecMode::ScalarBaseline, ExecMode::Liquid,
                          ExecMode::NativeSimd})
        EXPECT_EQ(modeFromName(modeName(mode)), mode);
}

TEST(LabRunner, ParallelRunsAreByteIdentical)
{
    const auto jobs = smallMatrix();
    RunnerStats serialStats, parallelStats;
    const ResultSet serial = Runner(1).run(jobs, nullptr, &serialStats);
    const ResultSet parallel =
        Runner(8).run(jobs, nullptr, &parallelStats);

    EXPECT_EQ(serialStats.jobs, jobs.size());
    EXPECT_EQ(parallelStats.jobs, jobs.size());
    EXPECT_EQ(serialStats.simulations, jobs.size());
    EXPECT_EQ(parallelStats.simulations, jobs.size());

    // The headline requirement: the serialized results are
    // byte-identical no matter how many workers ran the matrix.
    EXPECT_EQ(serial.writeString(), parallel.writeString());
}

TEST(LabRunner, ResultCacheSecondRunSimulatesNothing)
{
    const auto jobs = smallMatrix();
    TempDir dir("liquid-lab-test-cache");
    const ResultCache cache(dir.path.string());

    RunnerStats cold;
    const ResultSet first = Runner(2).run(jobs, &cache, &cold);
    EXPECT_EQ(cold.simulations, jobs.size());
    EXPECT_EQ(cold.cacheHits, 0u);

    RunnerStats warm;
    const ResultSet second = Runner(2).run(jobs, &cache, &warm);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.cacheHits, jobs.size());

    // Cached results serialize identically to fresh ones.
    EXPECT_EQ(first.writeString(), second.writeString());
}

TEST(LabRunner, DamagedCacheEntryIsACountedMiss)
{
    Job job;
    job.experiment = "x";
    job.workload = "fir";
    job.mode = ExecMode::Liquid;
    job.width = 4;
    job.repsOverride = 2;
    const std::vector<Job> jobs{job};
    TempDir dir("liquid-lab-test-damaged");
    const ResultCache cache(dir.path.string());
    const std::string fresh = Runner(1).run(jobs, &cache).writeString();

    const std::string hash =
        contentHash(job, buildJob(job), job.config());
    const std::filesystem::path entry = dir.path / (hash + ".json");
    ASSERT_TRUE(std::filesystem::exists(entry));
    const auto size = std::filesystem::file_size(entry);

    // A torn write: the entry stops halfway through.
    std::filesystem::resize_file(entry, size / 2);
    EXPECT_FALSE(cache.load(hash).has_value());
    EXPECT_EQ(cache.discarded(), 1u);

    // The runner simulates again and rewrites the entry.
    RunnerStats again;
    EXPECT_EQ(Runner(1).run(jobs, &cache, &again).writeString(), fresh);
    EXPECT_EQ(again.simulations, 1u);
    EXPECT_EQ(again.cacheHits, 0u);
    EXPECT_EQ(cache.discarded(), 2u);
    EXPECT_EQ(std::filesystem::file_size(entry), size);
    EXPECT_TRUE(cache.load(hash).has_value());

    // A well-formed entry filed under the wrong hash is a miss too.
    const std::string other(hash.size(), '0');
    std::filesystem::copy_file(entry, dir.path / (other + ".json"));
    EXPECT_FALSE(cache.load(other).has_value());
    EXPECT_EQ(cache.discarded(), 3u);

    // No writer leaves a temp file behind.
    for (const auto &f : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(f.path().extension(), ".json") << f.path();
}

TEST(LabRunner, CacheKeySeparatesConfigurations)
{
    Job job;
    job.experiment = "x";
    job.workload = "fir";
    job.mode = ExecMode::Liquid;
    job.width = 8;
    job.repsOverride = 2;
    const auto build = buildJob(job);
    const std::string base = contentHash(job, build, job.config());

    SystemConfig tweaked = job.config();
    tweaked.translator.latencyPerInst += 1;
    EXPECT_NE(contentHash(job, build, tweaked), base);

    Job ideal = job;
    ideal.warmStart = true;
    EXPECT_NE(contentHash(ideal, build, ideal.config()), base);
}

TEST(LabResults, JsonRoundTrip)
{
    ExperimentSpec spec;
    spec.name = "rt";
    spec.workloads = {"fir"};
    spec.modes = {ExecMode::ScalarBaseline, ExecMode::Liquid};
    spec.widths = {4};
    spec.repsList = {2};
    const ResultSet results = Runner(1).run(spec.expand());
    ASSERT_EQ(results.size(), 2u);

    const std::string text = results.writeString();
    const ResultSet back = ResultSet::fromJson(json::parse(text));
    EXPECT_EQ(back.writeString(), text);

    const JobResult &liquid = back.at("rt/fir/liquid/w4/reps2");
    EXPECT_GT(liquid.outcome.cycles, 0u);
    EXPECT_GT(liquid.outcome.translations, 0u);
    EXPECT_GT(liquid.outcome.counters.at("core.insts"), 0u);
    EXPECT_FALSE(liquid.outcome.callLog.empty());
    EXPECT_LT(liquid.outcome.cycles,
              back.cycles("rt/fir/scalar/reps2"));
}

TEST(LabDiff, GateCatchesInjectedRegression)
{
    ExperimentSpec spec;
    spec.name = "gate";
    spec.workloads = {"fir", "lu"};
    spec.modes = {ExecMode::Liquid};
    spec.widths = {8};
    spec.repsList = {2};
    const ResultSet baseline = Runner(1).run(spec.expand());

    // Identical results pass.
    EXPECT_TRUE(diffResults(baseline, baseline).ok());

    auto inflate = [&](double factor) {
        ResultSet tampered;
        for (JobResult r : baseline.results()) {
            if (r.job.workload == "fir")
                r.outcome.cycles = static_cast<Cycles>(
                    static_cast<double>(r.outcome.cycles) * factor);
            tampered.add(std::move(r));
        }
        tampered.sortByKey();
        return tampered;
    };

    // A 5% cycle regression trips the default 2% gate...
    const DiffReport bad = diffResults(baseline, inflate(1.05));
    EXPECT_FALSE(bad.ok());
    ASSERT_EQ(bad.regressions.size(), 1u);
    EXPECT_EQ(bad.regressions[0].metric, "cycles");
    EXPECT_NEAR(bad.regressions[0].relative, 0.05, 0.01);

    // ...a 1% wobble does not...
    EXPECT_TRUE(diffResults(baseline, inflate(1.01)).ok());

    // ...and a beyond-tolerance improvement is reported, not failed.
    const DiffReport better = diffResults(baseline, inflate(0.90));
    EXPECT_TRUE(better.ok());
    EXPECT_EQ(better.improvements.size(), 1u);

    // A job missing from the new results is always a failure.
    ResultSet partial;
    for (JobResult r : baseline.results())
        if (r.job.workload != "fir")
            partial.add(std::move(r));
    const DiffReport missing = diffResults(baseline, partial);
    EXPECT_FALSE(missing.ok());
    ASSERT_EQ(missing.regressions.size(), 1u);
    EXPECT_EQ(missing.regressions[0].metric, "missing");
}

TEST(LabCampaigns, SmokeMatrixShrinksButCoversTheSuite)
{
    for (const auto &campaign : standardCampaigns(/*smoke=*/true)) {
        const auto jobs = campaign.matrix.expand();
        EXPECT_FALSE(jobs.empty()) << campaign.name;
        std::set<std::string> workloads;
        for (const auto &job : jobs) {
            workloads.insert(job.workload);
            EXPECT_EQ(job.repsOverride, 2u) << job.key();
        }
        EXPECT_EQ(workloads.size(), 15u) << campaign.name;

        const auto full =
            campaignByName(campaign.name, /*smoke=*/false)
                .matrix.expand();
        EXPECT_GE(full.size(), jobs.size()) << campaign.name;
    }
}

TEST(LabChaos, FaultOverrideTagsTheJobKey)
{
    Job job;
    job.experiment = "chaos";
    job.workload = "fir";
    job.mode = ExecMode::Liquid;
    job.width = 8;
    job.over.faults = "int@40+flush@80";
    EXPECT_EQ(job.key(), "chaos/fir/liquid/w8/fint@40+flush@80");

    // The override reaches the core's fault schedule.
    const SystemConfig config = job.config();
    EXPECT_EQ(config.core.faults.key(), "int@40+flush@80");

    // Distinct schedules are distinct cache/config points.
    Job other = job;
    other.over.faults = "flush@80";
    EXPECT_NE(job.key(), other.key());
    EXPECT_NE(job.rngSeed(), other.rngSeed());
}

TEST(LabChaos, CampaignCoversEveryFaultKindPlusControl)
{
    const Campaign campaign = campaignByName("chaos", /*smoke=*/true);
    const std::vector<Job> jobs = campaign.matrix.expand();
    ASSERT_FALSE(jobs.empty());

    std::set<std::string> schedules;
    bool control = false;
    for (const Job &job : jobs) {
        EXPECT_EQ(job.mode, ExecMode::Liquid) << job.key();
        if (job.over.faults)
            schedules.insert(*job.over.faults);
        else
            control = true;
    }
    EXPECT_TRUE(control) << "chaos campaign lacks a fault-free control";
    // Every fault kind appears in at least one scheduled override.
    for (const char *tag : {"p", "int@", "flush@", "evict@", "smc@",
                            "dcache@"}) {
        bool found = false;
        for (const auto &key : schedules)
            found = found || key.rfind(tag, 0) == 0;
        EXPECT_TRUE(found) << "no schedule starts with " << tag;
    }
}

TEST(LabChaos, RetranslationsFlowIntoResultsJson)
{
    // An SMC store at retire 100 lands inside fir's first region
    // capture, aborts it, and forces a fresh translation on the next
    // call — a deterministic loss/re-translate cycle even at the
    // smoke trip counts.
    ExperimentSpec spec;
    spec.name = "chaosrt";
    spec.workloads = {"fir"};
    spec.modes = {ExecMode::Liquid};
    spec.widths = {8};
    spec.repsList = {2};
    ConfigOverrides over;
    over.faults = "smc@100";
    spec.overrides = {ConfigOverrides{}, over};
    const ResultSet results = Runner(1).run(spec.expand());
    ASSERT_EQ(results.size(), 2u);

    const std::string text = results.writeString();
    const ResultSet back = ResultSet::fromJson(json::parse(text));
    EXPECT_EQ(back.writeString(), text);

    const JobResult &faulted =
        back.at("chaosrt/fir/liquid/w8/fsmc@100/reps2");
    EXPECT_GE(faulted.outcome.retranslations, 1u);
    EXPECT_GE(faulted.outcome.counters.at("translator.retranslations"),
              1u);
    // Per-AbortReason attribution survives the JSON round trip.
    EXPECT_GE(faulted.outcome.counters.at(
                  "translator.retranslate.smcInvalidated"),
              1u);
    EXPECT_GE(faulted.outcome.counters.at("core.faults.smc"), 1u);

    const JobResult &control = back.at("chaosrt/fir/liquid/w8/reps2");
    EXPECT_EQ(control.outcome.retranslations, 0u);
    EXPECT_FALSE(control.job.over.faults.has_value());
}

TEST(LabChaos, LegacyInterruptPeriodOverrideStillParses)
{
    // Result files written before the chaos subsystem spelled a
    // periodic interrupt as a bare number, untagged in the job key.
    const char *legacy = R"({
      "schema": "liquid-lab-results-v1",
      "modelVersion": "liquid-sim-2026.08-1",
      "jobs": [{
        "key": "old/fir/liquid/w8",
        "experiment": "old", "workload": "fir",
        "mode": "liquid", "width": 8,
        "overrides": {"interruptPeriod": 700},
        "cycles": 123, "translations": 1, "aborts": 0,
        "ucodeDispatches": 1,
        "counters": {}, "callLog": {}
      }]
    })";
    const ResultSet back = ResultSet::fromJson(json::parse(legacy));
    const JobResult &r = back.results().front();
    ASSERT_TRUE(r.job.over.faults.has_value());
    EXPECT_EQ(*r.job.over.faults, "p700");
    EXPECT_EQ(r.job.config().core.faults.interruptPeriod, 700u);
    // Re-serializing writes the modern spelling and the modern key.
    EXPECT_NE(back.writeString().find("\"faults\": \"p700\""),
              std::string::npos);
}

TEST(LabCounterMap, JsonRoundTripIsByteIdenticalPerTier)
{
    Job cycle;
    cycle.experiment = "cm";
    cycle.workload = "fir";
    cycle.mode = ExecMode::Liquid;
    cycle.width = 4;
    cycle.repsOverride = 2;
    Job functional = cycle;
    functional.mode = ExecMode::ScalarBaseline;
    functional.width = 0;
    functional.tier = fast::ExecTier::Functional;

    for (const Job &job : {cycle, functional}) {
        SCOPED_TRACE(job.key());
        JobResult r;
        r.job = job;
        r.outcome = runJob(job);
        ASSERT_FALSE(r.outcome.counters.empty());
        const std::string text = r.toJson().toString();
        const JobResult back = JobResult::fromJson(json::parse(text));
        EXPECT_EQ(back.toJson().toString(), text);
        EXPECT_EQ(back.outcome.counters, r.outcome.counters);
        EXPECT_EQ(back.digest(), r.digest());
    }
}

TEST(LabCounterMap, IteratesInStdMapOrder)
{
    const std::vector<std::string> names = {
        "icache.hits", "core.insts", "core.faults.int", "a", "A",
        "core.faults", "core.faultsX", "core-x", "\xc3\xa9", "~", "aa",
        "a.b", "dcache.accesses", "translator.abort.tripCount", "b"};
    CounterMap flat;
    std::map<std::string, std::uint64_t> tree;
    std::uint64_t v = 1;
    for (const auto &name : names) {
        flat[name] = v;
        tree[name] = v;
        ++v;
    }
    flat["a"] += 100;
    tree["a"] += 100;

    ASSERT_EQ(flat.size(), tree.size());
    auto it = tree.begin();
    for (const auto &[name, value] : flat) {
        EXPECT_EQ(name, it->first);
        EXPECT_EQ(value, it->second);
        ++it;
    }
}

TEST(LabCounterMap, MissingNamesAreAbsent)
{
    CounterMap m;
    EXPECT_EQ(m.find("core.insts"), m.end());
    EXPECT_EQ(m.count("core.insts"), 0u);
    EXPECT_THROW((void)m.at("core.insts"), std::out_of_range);

    m["core.insts"] = 5;
    EXPECT_EQ(m.count("core.insts"), 1u);
    EXPECT_EQ(m.at("core.insts"), 5u);
    EXPECT_EQ(m.find("core.inst"), m.end());
    EXPECT_EQ(m.find("core.instsX"), m.end());
    EXPECT_EQ(m.count(""), 0u);
    EXPECT_THROW((void)m.at("core"), std::out_of_range);
}

TEST(LabCounterMap, ConcurrentInterningYieldsOneViewPerName)
{
    static constexpr unsigned threads = 8;
    static constexpr unsigned lists = 50;
    static constexpr unsigned names = 4;
    auto nameOf = [](unsigned list, unsigned n) {
        return "lab_test.intern." + std::to_string(list) + "." +
               std::to_string(n);
    };
    // seen[t][list][n]: storage of name n in thread t's snapshot.
    std::vector<std::vector<std::vector<const char *>>> seen(
        threads, std::vector<std::vector<const char *>>(
                     lists, std::vector<const char *>(names)));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&seen, &nameOf, t] {
            // Each thread walks the lists, and each list's names, in
            // its own order.
            for (unsigned i = 0; i < lists; ++i) {
                const unsigned list = (i * 7 + t * 31) % lists;
                std::vector<std::pair<std::string, std::uint64_t>> in;
                for (unsigned k = 0; k < names; ++k) {
                    const unsigned n = (k + t) % names;
                    in.emplace_back(nameOf(list, n), n);
                }
                CounterMap m;
                m.assign(std::move(in));
                unsigned n = 0;
                for (const auto &[name, value] : m) {
                    EXPECT_EQ(name, nameOf(list, n));
                    EXPECT_EQ(value, n);
                    seen[t][list][n++] = name.data();
                }
                EXPECT_EQ(n, names);
            }
        });
    }
    for (auto &th : pool)
        th.join();

    std::set<const char *> distinct;
    for (unsigned list = 0; list < lists; ++list) {
        // Stable: the same names again yield the same storage.
        std::vector<std::pair<std::string, std::uint64_t>> in;
        for (unsigned n = 0; n < names; ++n)
            in.emplace_back(nameOf(list, n), 0);
        CounterMap again;
        again.assign(std::move(in));
        unsigned n = 0;
        for (const auto &entry : again) {
            for (unsigned t = 0; t < threads; ++t)
                EXPECT_EQ(seen[t][list][n], seen[0][list][n]) << list;
            EXPECT_EQ(entry.first.data(), seen[0][list][n]) << list;
            distinct.insert(seen[0][list][n]);
            ++n;
        }
    }
    EXPECT_EQ(distinct.size(), lists * names);
}

TEST(LabStats, MergeAccumulatesCounters)
{
    StatGroup a("a"), b("b");
    a.inc("cycles", 10);
    a.inc("insts", 3);
    b.inc("cycles", 5);
    b.inc("misses", 7);
    a.merge(b);
    EXPECT_EQ(a.get("cycles"), 15u);
    EXPECT_EQ(a.get("insts"), 3u);
    EXPECT_EQ(a.get("misses"), 7u);
    EXPECT_EQ(b.get("cycles"), 5u);

    // Const-correct range iteration.
    const StatGroup &view = a;
    std::uint64_t total = 0;
    for (const auto &[stat, value] : view)
        total += value;
    EXPECT_EQ(total, 25u);
}

} // namespace
} // namespace liquid::lab
