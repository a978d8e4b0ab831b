/**
 * @file
 * Deterministic open-loop load generation and the virtual-time service
 * model behind the serve subsystem's tail-latency reports.
 *
 * Wall-clock latency measurements can never be byte-identical across
 * runs, machines or thread counts, so regression-gating a p99 on them
 * means either huge tolerances or flaky CI. This harness takes the
 * TailBench idea — an integrated load generator measuring per-class
 * latency distributions — and makes it reproducible by splitting time
 * in two:
 *
 *  1. A seeded generator emits a request trace with integer *virtual*
 *     arrival times (open loop: arrivals never wait on completions).
 *     Same seed + spec => byte-identical trace, on any machine.
 *  2. Every distinct request key is executed once, in parallel, via
 *     the memoizing backend. Responses are pure functions of the key,
 *     so the thread count cannot change any payload — only how fast
 *     the wall clock gets there.
 *  3. A single-threaded discrete-event simulation replays the trace
 *     through the live Server's own Dispatcher (serve/dispatch.hh:
 *     hot cache at the door, coalescing onto in-flight leaders, FIFO
 *     queue with capacity rejection, deadline cancellation at service
 *     start) on virtualServers slots. Service time is derived from
 *     the response's deterministic work units, not from the wall
 *     clock.
 *
 * The resulting p50/p95/p99 per request class are exact functions of
 * (seed, spec) — identical bytes at --jobs 1 and --jobs 32 — which is
 * what lets BENCH_serve.json sit in CI next to BENCH_fig6.json.
 */

#ifndef LIQUID_SERVE_LOADGEN_HH
#define LIQUID_SERVE_LOADGEN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "lab/results.hh"
#include "serve/dispatch.hh"
#include "serve/quantile.hh"
#include "serve/request.hh"

namespace liquid::serve
{

/** Report schema identifier (see docs/SERVE.md for the layout). */
inline constexpr const char *serveSchema = "liquid-serve-v1";

/** Tool/model version stamped into reports. */
inline constexpr const char *serveVersion = "liquid-serve-2026.08-1";

/** Everything that determines a load run. Part of the report. */
struct LoadSpec
{
    std::uint64_t seed = 1;
    /** Offered load in requests per virtual second. */
    double qps = 200.0;
    /** Trace length in requests. */
    std::uint64_t requests = 64;
    /** Request classes the generator draws from; empty = all five. */
    std::vector<RequestClass> mix;
    /** Workloads drawn from; empty = {"fir", "lu", "fft"}. */
    std::vector<std::string> workloads;
    /** SIMD widths drawn from; empty = {4, 8}. */
    std::vector<unsigned> widths;
    /** Per-request latency budget in virtual us; 0 = none. */
    std::uint64_t deadlineUs = 0;
    /** Virtual service slots (the modelled worker pool). */
    unsigned virtualServers = 4;
    /** Queued-leader limit; arrivals beyond it are rejected. */
    std::size_t queueCapacity = 64;
    /** Hot-cache capacity in responses. */
    std::size_t hotCacheEntries = 256;
    /** Service time of a hot-cache hit (virtual us). */
    std::uint64_t hitCostUs = 5;
    /** Fixed per-execution overhead (dispatch, queueing machinery). */
    std::uint64_t overheadUs = 20;
    /** Backend work units consumed per virtual microsecond. */
    std::uint64_t unitsPerUs = 1000;

    json::Value toJson() const;
};

/** Fill the empty draw axes (all five classes; fir, lu, fft; widths
 *  4 and 8) and clamp degenerate knobs; pure. */
LoadSpec withDefaults(LoadSpec spec);

/**
 * Generate the request trace: integer inter-arrival gaps drawn
 * uniformly from [0, 2*mean] (mean = 1e6/qps us, zero gaps give
 * bursts), request fields drawn from the spec's mix/workload/width
 * axes. Pure function of the spec — see traceHash().
 */
std::vector<Request> generateTrace(const LoadSpec &spec);

/** FNV-1a over the canonical trace rendering; the determinism tests
 *  compare this across runs and thread counts. */
std::uint64_t traceHash(const std::vector<Request> &trace);

/** Per-class (and overall) outcome tallies from one load run. */
struct ClassStats
{
    /** Latency distribution over Ok responses, virtual us. */
    LatencyHistogram latency;
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;
    std::uint64_t executed = 0;  ///< leaders that ran the backend
    std::uint64_t hotHits = 0;
    std::uint64_t coalesced = 0;

    void merge(const ClassStats &o);
    json::Value toJson(bool distribution) const;
};

/** Everything one load run produced. */
struct LoadReport
{
    LoadSpec spec;
    std::uint64_t traceHash = 0;
    /** className() -> stats; only classes present in the mix. */
    std::map<std::string, ClassStats> classes;
    /** All classes merged. */
    ClassStats all;
    /** Virtual time of the last completion (or last arrival). */
    std::uint64_t makespanUs = 0;
    /** Distinct request keys in the trace (memoized executions). */
    std::uint64_t distinctKeys = 0;
    HotCacheStats cache;

    double offeredQps() const { return spec.qps; }
    double achievedQps() const;

    /**
     * Full liquid-serve-v1 report document. @p distribution adds the
     * per-class [bucket-midpoint, count] latency histograms (the
     * nightly sweep uploads these as artifacts).
     */
    json::Value toJson(bool distribution = false) const;
};

/**
 * Run the virtual-time model over the spec's trace. @p jobs bounds the
 * parallel pre-execution of distinct keys (0 = hardware concurrency);
 * it cannot affect any reported byte.
 */
LoadReport runLoad(const LoadSpec &spec, unsigned jobs = 0);

/** One sweep operating point. */
struct SweepPoint
{
    double qps = 0.0;
    std::uint64_t p99Us = 0;
    std::uint64_t ok = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    /** p99 within target and nothing rejected. */
    bool pass = false;
};

/** Sentinel us-per-op when no sweep point meets the target. */
inline constexpr std::uint64_t usPerOpFailSentinel = 1000000000;

/** A qps sweep against a p99 target: the saturation story. */
struct SweepReport
{
    std::uint64_t p99TargetUs = 0;
    std::vector<SweepPoint> points;
    std::vector<LoadReport> runs;  ///< same order as points
    /** Highest offered qps whose point passed; 0 = none. */
    double qpsAtTarget = 0.0;
    /**
     * Inverse throughput at the target, rounded virtual us per
     * request; usPerOpFailSentinel when nothing passed. Inverted so
     * the lab diff gate's increase=regression rule applies.
     */
    std::uint64_t usPerOpAtTarget = usPerOpFailSentinel;

    bool anyPass() const { return qpsAtTarget > 0.0; }

    json::Value toJson(bool distribution = false) const;
};

/** Run the spec at each qps in @p qpsList against @p p99TargetUs. */
SweepReport runSweep(const LoadSpec &spec,
                     const std::vector<double> &qpsList,
                     std::uint64_t p99TargetUs, unsigned jobs = 0);

/**
 * Render a load report (and optionally the sweep it came from) as a
 * liquid-lab-results-v2 ResultSet of synthetic functional-tier jobs
 * (experiment "serve", workload = class name / "all" / "sweep", every
 * metric a flattened integer counter, no cycle-shaped fields) so
 * BENCH_serve.json is gated by the existing `liquid-lab diff`
 * machinery exactly like BENCH_fig6.json.
 */
lab::ResultSet toLabResults(const LoadReport &report,
                            const SweepReport *sweep = nullptr);

} // namespace liquid::serve

#endif // LIQUID_SERVE_LOADGEN_HH
