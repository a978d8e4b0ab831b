/**
 * @file
 * Shared plumbing of the perfbench driver: timing, percentiles, the
 * per-run Outcome every workload fills in, and the in-memory span
 * recorder behind the traced run.
 *
 * Every workload reports the same phase-generic end-to-end metrics
 * (see NOTES.md for what each phase is on each workload) plus the
 * named aliases it defines (campaign_s, serve_p95_ms, ...), which are
 * printed with their units but kept out of the gated metric set.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

namespace json = liquid::json;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** Set-ups per run; setup_s is their median. */
constexpr int setupRuns = 7;

/** Run arguments shared by every workload. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 24.0;
    bool trace = false;
    /** Directory holding the recorded digests (campaign, static-suite). */
    std::string digestDir;
    /** Write the digests this run computes instead of checking them. */
    bool record = false;
    /** Self-check: flip one expected digest so the run must fail. */
    bool corruptDigest = false;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run measured and checked. */
struct Outcome
{
    /** Operations (jobs, regions, requests) checked / failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    /** The gated, phase-generic metrics (BENCHMARK.json end_to_end). */
    std::map<std::string, Metric> endToEnd;
    /** Named aliases and extra context, printed only. */
    std::vector<std::pair<std::string, Metric>> named;
    /** BENCHMARK.json per_layer metrics; traced runs only. */
    std::map<std::string, Metric> perLayer;

    void
    fail(const std::string &why)
    {
        correct = false;
        if (problems.size() < 20)
            problems.push_back(why);
    }

    /** Count one checked operation; a false @p ok also fails the run. */
    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            fail(why);
        }
    }
};

/**
 * In-memory span recorder. Spans carry name, start, end, the id of the
 * span that caused them and an optional request id shared by every
 * span of one serve request. Disabled recorders cost one branch.
 * Thread-safe.
 */
class Trace
{
  public:
    struct Record
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;  ///< 0 = not a serve request
        unsigned thread = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Reserve a span id (children need it before the span ends). */
    std::uint64_t newId() { return nextId_.fetch_add(1); }

    void add(Record record);

    /** Sum of durations of spans named @p name, seconds. */
    double totalSeconds(const std::string &name) const;

    /**
     * Self time per span name: each span's duration minus the part of
     * its interval its child spans cover, summed by name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    json::Value toChromeJson(Clock::time_point origin,
                             json::Value otherData) const;

  private:
    bool enabled_;
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/** RAII span: records [construction, destruction) when enabled. */
class Span
{
  public:
    Span(Trace &trace, std::string name, std::uint64_t parent = 0,
         std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return record_.id; }

  private:
    Trace &trace_;
    Trace::Record record_;
};

/**
 * The recorded expectations of one workload (digests/<workload>.json):
 * a digest per operation key and exact work counts. Checking a value
 * counts one operation; with --record the values are collected and
 * saved instead, and with --corrupt-digest the first recorded digest
 * is flipped so that the run must fail.
 */
class Recorded
{
  public:
    explicit Recorded(const RunArgs &args);

    /** Check (or record) the digest of operation @p key. */
    void checkDigest(const std::string &key, std::uint64_t digest,
                     Outcome &out);
    /** Check (or record) an exact count as one operation. */
    void checkCount(const std::string &name, std::uint64_t value,
                    Outcome &out);
    /** Fail on recorded keys no check saw; save when recording. */
    void finish(Outcome &out);

  private:
    const RunArgs &args_;
    json::Value digests_;
    json::Value counts_;
    std::set<std::string> seen_;
};

/** Small stable per-thread index for trace output. */
unsigned threadIndex();

/** Host fingerprint: CPU model, nproc, compiler, build type. */
json::Value hostFingerprint();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// Workload entry points. Each fills @p out; a traced run also records
// spans into @p trace and fills out.perLayer.
void runCampaign(const RunArgs &args, Trace &trace, Outcome &out);
void runServeClosed(const RunArgs &args, Trace &trace, Outcome &out);

/**
 * One traced static-suite pass, checked against the static-suite
 * digests, filling the verifier per-layer metrics. The serve-closed
 * traced run calls it: the pass is not a workload of its own (see
 * NOTES.md), and serve's verify/scan/proof requests run the same
 * analyses.
 */
void profileStaticLayers(const RunArgs &args, Trace &trace, Outcome &out);

/** Hex rendering used for every recorded digest. */
std::string hex(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
