/**
 * @file
 * The `serve-closed` workload: the loadgen's default traffic (fir, lu
 * and fft at widths 4 and 8, all five request classes, 30 distinct
 * keys) against a live serve::Server, closed-loop. Phase 1 (`light`)
 * keeps 1 request outstanding and phase 2 (`heavy`) keeps 3; each
 * request is timed from its submission. One client thread both submits
 * and collects responses.
 *
 * An open-loop replay at fixed rates was tried and dropped: on a busy
 * shared host its queues, and with them its percentiles, swing far
 * more than the host slows down (see NOTES.md).
 */

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>

#include "bench.hh"
#include "common/random.hh"
#include "serve/backend.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using namespace liquid;
using serve::Request;
using serve::Response;

/** Requests outstanding in each phase. */
constexpr unsigned window[2] = {1, 3};
const char *const phaseName[2] = {"light", "heavy"};

/**
 * The default traffic and the server shape, carried by the LoadSpec
 * like the loadgen's model: two workers (with the client thread, one
 * vCPU stays free for the rest of the system), a hot tier smaller than
 * the 30-key space so most requests execute, and the default queue
 * capacity (never reached: coalescing bounds the queue by the number
 * of distinct keys).
 */
serve::LoadSpec
trafficSpec(std::uint64_t seed)
{
    serve::LoadSpec spec;
    spec.seed = seed;
    spec.requests = 4096;
    spec.virtualServers = 2;
    spec.hotCacheEntries = 6;
    return spec;
}

serve::ServerConfig
serverConfig(const serve::LoadSpec &spec)
{
    serve::ServerConfig cfg;
    cfg.workers = spec.virtualServers;
    cfg.queueCapacity = spec.queueCapacity;
    cfg.hotCacheEntries = spec.hotCacheEntries;
    return cfg;
}

/** Rounds per block, the unit each phase's time is the median of. */
constexpr std::size_t blockRounds = 3;

/** Both phases as one schedule: request, its phase and its block. */
struct Schedule
{
    std::vector<Request> requests;
    std::vector<int> phase;
    std::vector<std::size_t> block;  ///< numbered across both phases
};

/** The distinct keys of the spec's traffic (30 by default), sorted. */
std::vector<Request>
trafficKeys(const serve::LoadSpec &spec)
{
    std::map<std::string, Request> keys;
    for (Request &r : serve::generateTrace(spec))
        keys.emplace(r.key(), std::move(r));
    std::vector<Request> out;
    for (auto &[key, r] : keys)
        out.push_back(std::move(r));
    return out;
}

/**
 * @p rounds[ph] rounds in phase ph. A round sends every key once: the keys
 * at even and at odd positions each in their own order drawn from the
 * seed, the even half first, so two sends of one key have at least 15
 * other keys between them and always miss the 6-entry hot tier. A
 * rotating sixth of the keys is sent again right after the first send:
 * in the light phase that repeat hits the hot tier, in the heavy phase
 * it hits or coalesces. So every key executes once per round whatever
 * the seed and the timing. (Drawn key by key, which requests executed
 * was left to chance, and with backend costs from 0.4 ms to 0.65 s
 * that alone moved p50 and p95 by 20% or more.) With 30 executed
 * requests and 5 hits per round, p50 and p95 each fall in the middle
 * of one key's samples, never on the edge between two keys.
 */
Schedule
makeSchedule(std::uint64_t seed, const std::size_t (&rounds)[2])
{
    const std::vector<Request> keys = trafficKeys(trafficSpec(seed));
    Schedule s;
    std::size_t firstBlock = 0;
    for (int ph = 0; ph < 2; ++ph) {
        Rng rng((2 * seed + ph) ^ 0x9e3779b97f4a7c15ull);
        for (std::size_t round = 0; round < rounds[ph]; ++round) {
            const std::size_t block = firstBlock + round / blockRounds;
            for (std::size_t half = 0; half < 2; ++half) {
                std::vector<std::size_t> order;
                for (std::size_t k = half; k < keys.size(); k += 2)
                    order.push_back(k);
                for (std::size_t i = order.size(); i > 1; --i)
                    std::swap(order[i - 1], order[rng.next64() % i]);
                for (std::size_t k : order) {
                    const int sends = (k + round) % 6 == 0 ? 2 : 1;
                    for (int i = 0; i < sends; ++i) {
                        s.requests.push_back(keys[k]);
                        s.phase.push_back(ph);
                        s.block.push_back(block);
                    }
                }
            }
        }
        firstBlock = s.block.back() + 1;
    }
    return s;
}

struct Sample
{
    Clock::time_point issued;  ///< submit call began
    double latency = 0.0;      ///< issued -> response observed, seconds
    double submit = 0.0;       ///< inside Server::submit, seconds
    Clock::time_point done;
    Response response;
};

struct Replay
{
    std::vector<Sample> samples;
    serve::ServerStats stats;
};

/**
 * Replay on the calling thread, keeping each phase's window of
 * requests outstanding; a phase starts when the previous one has
 * drained. Outstanding futures are polled and each response is stamped
 * when it is first seen ready. Between polls the thread blocks on one
 * outstanding future for at most 100us: a client spinning on them
 * slowed the workers' requests by about 30% against a direct execute
 * on the reference host, and by a different share on every run.
 */
Replay
replay(const Schedule &sched, serve::Server &server, Trace &trace)
{
    using namespace std::chrono_literals;
    const std::size_t n = sched.requests.size();
    Replay out;
    out.samples.resize(n);
    std::vector<std::uint64_t> spanId(n, 0);
    std::vector<std::pair<std::size_t, std::future<Response>>> waiting;

    auto finish = [&](std::size_t i, Response resp, Clock::time_point t) {
        Sample &s = out.samples[i];
        s.done = t;
        s.latency = secondsBetween(s.issued, t);
        s.response = std::move(resp);
        if (trace.enabled()) {
            Trace::Record r;
            r.name = "serve.request";
            r.id = spanId[i];
            r.request = i + 1;
            r.thread = threadIndex();
            r.start = s.issued;
            r.end = t;
            trace.add(std::move(r));
        }
    };

    std::size_t next = 0;
    while (next < n || !waiting.empty()) {
        for (std::size_t k = 0; k < waiting.size();) {
            if (waiting[k].second.wait_for(0s) ==
                std::future_status::ready) {
                finish(waiting[k].first, waiting[k].second.get(),
                       Clock::now());
                waiting[k] = std::move(waiting.back());
                waiting.pop_back();
            } else {
                ++k;
            }
        }
        const bool newPhase = next < n && next > 0 &&
                              sched.phase[next] != sched.phase[next - 1];
        if (next == n ||
            waiting.size() >= (newPhase ? 1 : window[sched.phase[next]])) {
            if (!waiting.empty())
                waiting.front().second.wait_for(100us);
            continue;
        }
        const std::size_t i = next++;
        Sample &s = out.samples[i];
        spanId[i] = trace.enabled() ? trace.newId() : 0;
        s.issued = Clock::now();
        std::future<Response> fut = server.submit(sched.requests[i]);
        const Clock::time_point s1 = Clock::now();
        s.submit = secondsBetween(s.issued, s1);
        if (trace.enabled()) {
            Trace::Record r;
            r.name = "serve.submit";
            r.id = trace.newId();
            r.parent = spanId[i];
            r.request = i + 1;
            r.thread = threadIndex();
            r.start = s.issued;
            r.end = s1;
            trace.add(std::move(r));
        }
        if (fut.wait_for(0s) == std::future_status::ready)
            finish(i, fut.get(), s1);
        else
            waiting.emplace_back(i, std::move(fut));
    }
    server.drain();
    out.stats = server.stats();
    return out;
}

/** A request that did not succeed lies beyond every percentile. */
double
latencyMs(const Sample &s)
{
    return s.response.ok() ? s.latency * 1e3
                           : std::numeric_limits<double>::infinity();
}

struct PhaseStats
{
    std::vector<double> latencyMs;
    /** Median over the phase's blocks of a block's first submission ->
     *  last response, seconds: unlike the whole phase's makespan, it
     *  does not take in every burst of a busy host. */
    double blockSeconds = 0.0;
    double makespan = 0.0;  ///< first submission -> last response
};

PhaseStats
phaseStats(const Schedule &sched, const Replay &rep, int phase)
{
    PhaseStats ps;
    std::map<std::size_t, std::pair<Clock::time_point, Clock::time_point>>
        blocks;
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    for (std::size_t i = 0; i < sched.requests.size(); ++i) {
        if (sched.phase[i] != phase)
            continue;
        const Sample &s = rep.samples[i];
        ps.latencyMs.push_back(latencyMs(s));
        auto [it, fresh] =
            blocks.try_emplace(sched.block[i], s.issued, s.done);
        it->second.first = std::min(it->second.first, s.issued);
        it->second.second = std::max(it->second.second, s.done);
        first = std::min(first, s.issued);
        last = std::max(last, s.done);
    }
    std::vector<double> seconds;
    for (const auto &[block, span] : blocks)
        seconds.push_back(secondsBetween(span.first, span.second));
    ps.blockSeconds = median(seconds);
    ps.makespan = secondsBetween(first, last);
    return ps;
}

/** Reference response per distinct key, from a direct execute. */
struct Reference
{
    std::uint64_t digest = 0;
    double ms = 0.0;
    std::string cls;
};

std::map<std::string, Reference>
referenceResponses(const Schedule &sched, Trace &trace, Outcome &out)
{
    std::map<std::string, Reference> refs;
    const serve::Backend backend;
    for (const Request &r : sched.requests) {
        const std::string key = r.key();
        if (refs.count(key))
            continue;
        const Clock::time_point t0 = Clock::now();
        Response resp;
        {
            const Span s(trace, std::string("serve.backend.") +
                                    serve::className(r.cls));
            resp = backend.execute(r);
        }
        if (!resp.ok())
            out.fail("serve-closed: direct execute of " + key +
                     " failed: " + resp.error);
        refs[key] = {resp.digest, secondsSince(t0) * 1e3,
                     serve::className(r.cls)};
    }
    return refs;
}

void
checkResponses(const Schedule &sched, const Replay &rep,
               const std::map<std::string, Reference> &refs,
               bool corrupt, Outcome &out)
{
    for (std::size_t i = 0; i < rep.samples.size(); ++i) {
        const Response &resp = rep.samples[i].response;
        const std::string key = sched.requests[i].key();
        std::uint64_t want = refs.at(key).digest;
        if (corrupt && i == 0)
            want = ~want;
        out.check(resp.ok() && resp.digest == want,
                  "serve-closed: request " + std::to_string(i) + " (" +
                      key + ") " + serve::statusName(resp.status) +
                      (resp.ok() ? " digest differs from direct execute"
                                 : ": " + resp.error));
    }
}

} // namespace

void
runServeClosed(const RunArgs &args, Trace &trace, Outcome &out)
{
    // Per 15 s of --seconds, six rounds of 35 requests in the light
    // phase and twelve in the heavy one (18 and 36 rounds at 45 s): a
    // multiple of six, so every key is repeated equally often. A traced
    // run replays twice and then profiles the static suite, so it takes
    // that per 45 s instead (6 and 12 rounds at 45 s) to stay well
    // inside its time limit.
    const std::size_t unit =
        6 * static_cast<std::size_t>(std::max<long long>(
                1, std::llround(args.seconds / (args.trace ? 45.0 : 15.0))));
    const std::size_t rounds[2] = {unit, 2 * unit};

    // --- set-up: schedule generation + server start, median of setupRuns ---
    Schedule sched;
    std::unique_ptr<serve::Server> server;
    const serve::ServerConfig cfg = serverConfig(trafficSpec(args.seed));
    std::vector<double> setups;
    for (int i = 0; i < setupRuns; ++i) {
        server.reset();
        const Clock::time_point t0 = Clock::now();
        sched = makeSchedule(args.seed, rounds);
        server = std::make_unique<serve::Server>(cfg);
        setups.push_back(secondsSince(t0));
    }
    out.endToEnd["setup_s"] = {median(setups), "s"};

    Trace off(false);
    const Replay plain = replay(sched, *server, off);
    server.reset();

    const PhaseStats light = phaseStats(sched, plain, 0);
    const PhaseStats heavy = phaseStats(sched, plain, 1);
    auto pct = [](const std::vector<double> &v, double p) {
        const double x = percentile(v, p);
        return std::isfinite(x) ? x : 1e9;  // a failure sentinel
    };

    if (!args.trace) {
        const auto refs = referenceResponses(sched, off, out);
        checkResponses(sched, plain, refs, args.corruptDigest, out);
        out.endToEnd["phase1_s"] = {light.blockSeconds, "s"};
        out.endToEnd["phase2_s"] = {heavy.blockSeconds, "s"};
        out.endToEnd["phase1_p50_ms"] = {pct(light.latencyMs, 50), "ms"};
        out.endToEnd["phase1_p95_ms"] = {pct(light.latencyMs, 95), "ms"};
        out.endToEnd["phase2_p50_ms"] = {pct(heavy.latencyMs, 50), "ms"};
        out.endToEnd["phase2_p95_ms"] = {pct(heavy.latencyMs, 95), "ms"};
        auto named = [&](const std::string &name, double value,
                         const char *unit) {
            out.named.push_back({name, {value, unit}});
        };
        const std::string n1 = phaseName[0], n2 = phaseName[1];
        named("serve_p50_ms (" + n1 + ")", pct(light.latencyMs, 50), "ms");
        named("serve_p95_ms (" + n1 + ")", pct(light.latencyMs, 95), "ms");
        named("serve_p50_ms (" + n2 + ")", pct(heavy.latencyMs, 50), "ms");
        named("serve_p95_ms (" + n2 + ")", pct(heavy.latencyMs, 95), "ms");
        named(n1 + ".samples", static_cast<double>(light.latencyMs.size()),
              "count");
        named(n2 + ".samples", static_cast<double>(heavy.latencyMs.size()),
              "count");
        const double submitted = static_cast<double>(sched.requests.size());
        named(n1 + ".makespan_s", light.makespan, "s");
        named(n2 + ".makespan_s", heavy.makespan, "s");
        named("serve.hot_hit_ratio", plain.stats.hotHits / submitted,
              "ratio");
        named("serve.executed_ratio", plain.stats.executed / submitted,
              "ratio");
        return;
    }

    // --- traced run: the untraced replay above is the reference; a
    // fresh server replays the same schedule with spans ---
    serve::Server tracedServer(cfg);
    const Replay traced = replay(sched, tracedServer, trace);
    const auto refs = referenceResponses(sched, trace, out);
    checkResponses(sched, plain, refs, args.corruptDigest, out);
    checkResponses(sched, traced, refs, args.corruptDigest, out);

    auto &L = out.perLayer;
    std::vector<double> submitUs, waitMs;
    for (std::size_t i = 0; i < traced.samples.size(); ++i) {
        const Sample &s = traced.samples[i];
        submitUs.push_back(s.submit * 1e6);
        if (s.response.source == serve::ResponseSource::Executed)
            waitMs.push_back(s.latency * 1e3 -
                             refs.at(sched.requests[i].key()).ms);
    }
    L["serve.submit_us"] = {median(submitUs), "us"};
    // Mean, not median: most executed requests never queue, and the
    // tail behind the long requests is the signal.
    double wait = 0.0;
    for (double w : waitMs)
        wait += w / static_cast<double>(waitMs.size());
    L["serve.queue_wait_ms"] = {wait, "ms"};
    for (serve::RequestClass cls : serve::allRequestClasses) {
        std::vector<double> ms;
        for (const auto &[key, ref] : refs)
            if (ref.cls == serve::className(cls))
                ms.push_back(ref.ms);
        double mean = 0.0;
        for (double x : ms)
            mean += x / static_cast<double>(ms.size());
        L[std::string("serve.backend_") + serve::className(cls) + "_ms"] = {
            mean, "ms"};
    }
    const double submitted = static_cast<double>(sched.requests.size());
    L["serve.hot_hit_ratio"] = {traced.stats.hotHits / submitted, "ratio"};
    L["serve.coalesced_ratio"] = {traced.stats.coalesced / submitted,
                                  "ratio"};
    L["serve.max_queue_depth"] = {
        static_cast<double>(traced.stats.maxQueueDepth), "count"};
    const PhaseStats tracedLight = phaseStats(sched, traced, 0);
    L["trace.overhead_ratio"] = {percentile(tracedLight.latencyMs, 50) /
                                         percentile(light.latencyMs, 50) -
                                     1.0,
                                 "ratio"};
    profileStaticLayers(args, trace, out);
    out.named.push_back({"serve_p50_ms (untraced)",
                         {pct(light.latencyMs, 50), "ms"}});
    out.named.push_back({"serve_p50_ms (traced)",
                         {pct(tracedLight.latencyMs, 50), "ms"}});
}

} // namespace perfbench
