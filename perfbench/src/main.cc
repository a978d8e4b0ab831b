/**
 * @file
 * perfbench driver: runs one workload, checks its outputs and prints
 * every metric by name with its unit. The last stdout line is the
 * machine-readable result:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * holding the end-to-end metrics (--trace 0) or the per-layer ones
 * (--trace 1). The workloads are the ones BENCHMARK.json lists (see
 * NOTES.md). Usage:
 *
 *   liquid-perfbench --workload campaign|serve-closed
 *       --seed N --seconds S --trace 0|1 --digests DIR [--out DIR]
 *       [--record] [--corrupt-digest]
 *
 * --record rewrites the recorded digests from this run; --corrupt-
 * digest flips one expected digest, so the run must report failure
 * (the output checks' self-test). Exit status: 0 correct, 1 incorrect
 * or crashed, 2 usage.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"

namespace
{

using namespace perfbench;

/** Must match BENCHMARK.json end_to_end. */
const char *const endToEndMetrics[] = {
    "setup_s",       "phase1_s",      "phase2_s",      "phase1_p50_ms",
    "phase1_p95_ms", "phase2_p50_ms", "phase2_p95_ms", "peak_rss_mb",
};

/** Must match BENCHMARK.json per_layer. A layer the workload does not
 *  call reports 0. */
const std::pair<const char *, const char *> perLayerMetrics[] = {
    {"lab.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.insts_per_s", "1/s"},
    {"sim.straggler_s", "s"},
    {"chaos.run_s", "s"},
    {"lab.runner_util", "ratio"},
    {"lab.steals", "count"},
    {"fast.run_s", "s"},
    {"fast.insts_per_s", "1/s"},
    {"model.cycles", "cycles"},
    {"model.core.insts", "count"},
    {"model.dcache.hit_ratio", "ratio"},
    {"model.icache.hit_ratio", "ratio"},
    {"model.ucodeCache.hit_ratio", "ratio"},
    {"model.translator.commit_ratio", "ratio"},
    {"model.retranslations", "count"},
    {"model.fast.insts", "count"},
    {"verifier.ranges_s", "s"},
    {"range.rounds", "count"},
    {"verifier.verify_s", "s"},
    {"verifier.poly_s", "s"},
    {"poly.dep_events", "count"},
    {"verifier.scan_s", "s"},
    {"scan.candidates", "count"},
    {"verifier.proof_s", "s"},
    {"proof.obligations", "count"},
    {"proof.enum_points", "count"},
    {"serve.submit_us", "us"},
    {"serve.backend_simulate_ms", "ms"},
    {"serve.backend_verify_ms", "ms"},
    {"serve.backend_scan_ms", "ms"},
    {"serve.backend_chaos_ms", "ms"},
    {"serve.backend_proof_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.hot_hit_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.max_queue_depth", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"error_rate", "ratio"},
};

/** Names a later claim can be re-checked on, never used for tuning. */
constexpr std::uint64_t heldOutServeSeed = 424242;

int
usage(const std::string &why)
{
    std::cerr << "liquid-perfbench: " << why
              << "\nusage: liquid-perfbench --workload "
                 "campaign|serve-closed --seed N --seconds S "
                 "--trace 0|1 --digests DIR [--out DIR] [--record] "
                 "[--corrupt-digest]\n";
    return 2;
}

json::Value
metricsJson(const std::map<std::string, Metric> &metrics)
{
    json::Value m = json::Value::object();
    for (const auto &[name, metric] : metrics) {
        json::Value v = json::Value::object();
        v.set("value", metric.value);
        v.set("unit", metric.unit);
        m.set(name, std::move(v));
    }
    return m;
}

void
printMetric(const std::string &name, const Metric &m)
{
    std::cout << "  " << name << " = " << m.value << ' ' << m.unit << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string outDir;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                return {};
            return argv[++i];
        };
        try {
            if (a == "--workload")
                args.workload = value();
            else if (a == "--seed")
                args.seed = std::stoull(value());
            else if (a == "--seconds")
                args.seconds = std::stod(value());
            else if (a == "--trace") {
                args.trace = std::stoi(value()) != 0;
                haveTrace = true;
            } else if (a == "--digests")
                args.digestDir = value();
            else if (a == "--out")
                outDir = value();
            else if (a == "--record")
                args.record = true;
            else if (a == "--corrupt-digest")
                args.corruptDigest = true;
            else
                return usage("unknown argument '" + a + "'");
        } catch (const std::exception &) {
            return usage("bad value for " + a);
        }
    }
    void (*run)(const RunArgs &, Trace &, Outcome &) = nullptr;
    if (args.workload == "campaign")
        run = runCampaign;
    else if (args.workload == "serve-closed")
        run = runServeClosed;
    else
        return usage("unknown workload '" + args.workload + "'");
    if (!haveTrace || args.digestDir.empty() || !(args.seconds > 0))
        return usage("--trace, --digests and a positive --seconds are "
                     "required");

    const json::Value host = hostFingerprint();
    std::cout << "# perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << '\n'
              << "# host " << host.toString(0) << '\n'
              << "# held-out serve seed " << heldOutServeSeed << '\n';

    Outcome out;
    Trace trace(args.trace);
    const Clock::time_point origin = Clock::now();
    try {
        run(args, trace, out);
    } catch (const std::exception &e) {
        std::cerr << "liquid-perfbench: " << args.workload
                  << " failed: " << e.what() << '\n';
        return 1;
    }
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB"};
    const double errorRate =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    if (out.attempted == 0 && !args.record)
        out.fail("no operation was checked");

    std::map<std::string, Metric> reported;
    if (args.trace) {
        out.perLayer["error_rate"] = {errorRate, "ratio"};
        for (const auto &[name, unit] : perLayerMetrics) {
            auto it = out.perLayer.find(name);
            reported[name] =
                it != out.perLayer.end() ? it->second : Metric{0.0, unit};
        }
    } else {
        for (const char *name : endToEndMetrics)
            reported[name] = out.endToEnd.at(name);
    }

    std::cout << "# named metrics\n";
    for (const auto &[name, m] : out.named)
        printMetric(name, m);
    printMetric("setup_s", out.endToEnd.at("setup_s"));
    printMetric("peak_rss_mb", out.endToEnd.at("peak_rss_mb"));
    printMetric("error_rate",
                {errorRate, "ratio (" + std::to_string(out.failed) + "/" +
                                std::to_string(out.attempted) + ")"});
    std::cout << (args.trace ? "# per-layer metrics\n"
                             : "# end-to-end metrics\n");
    for (const auto &[name, m] : reported)
        printMetric(name, m);

    json::Value self = json::Value::object();
    if (args.trace) {
        std::cout << "# self time by span, s\n";
        for (const auto &[name, secs] : trace.selfSeconds()) {
            if (name.rfind("program.", 0) != 0 &&
                name != "serve.request" && name != "serve.submit")
                std::cout << "  " << name << " = " << secs << " s\n";
            self.set(name, secs);
        }
    }
    for (const std::string &p : out.problems)
        std::cout << "# FAIL " << p << '\n';

    if (!outDir.empty()) {
        std::filesystem::create_directories(outDir);
        const std::string stem = outDir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed);
        json::Value result = json::Value::object();
        result.set("workload", args.workload);
        result.set("seed", args.seed);
        result.set("heldOutServeSeed", heldOutServeSeed);
        result.set("seconds", args.seconds);
        result.set("trace", args.trace);
        result.set("host", host);
        result.set("correct", out.correct);
        result.set("attempted", out.attempted);
        result.set("failed", out.failed);
        result.set("metrics", metricsJson(reported));
        std::map<std::string, Metric> named(out.named.begin(),
                                            out.named.end());
        result.set("named", metricsJson(named));
        if (args.trace)
            result.set("selfSeconds", self);
        std::ofstream(stem + (args.trace ? "-traced" : "") +
                      "-result.json")
            << result.toString() << '\n';
        if (args.trace) {
            json::Value other = json::Value::object();
            other.set("workload", args.workload);
            other.set("seed", args.seed);
            other.set("host", host);
            other.set("selfSeconds", self);
            other.set("overheadRatio",
                      out.perLayer["trace.overhead_ratio"].value);
            std::ofstream(stem + "-trace.json")
                << trace.toChromeJson(origin, std::move(other)).toString(0)
                << '\n';
        }
    }

    json::Value last = json::Value::object();
    last.set("correct", out.correct);
    last.set("attempted", out.attempted);
    last.set("failed", out.failed);
    last.set("metrics", metricsJson(reported));
    std::cout << last.toString(0) << std::endl;
    return out.correct ? 0 : 1;
}
