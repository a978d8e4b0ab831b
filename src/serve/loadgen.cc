#include "serve/loadgen.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "common/random.hh"
#include "serve/backend.hh"

namespace liquid::serve
{

LoadSpec
withDefaults(LoadSpec spec)
{
    LIQUID_ASSERT(spec.qps > 0.0, "loadgen: qps must be positive");
    if (spec.mix.empty())
        spec.mix.assign(std::begin(allRequestClasses),
                        std::end(allRequestClasses));
    if (spec.workloads.empty())
        spec.workloads = {"fir", "lu", "fft"};
    if (spec.widths.empty())
        spec.widths = {4, 8};
    if (spec.virtualServers == 0)
        spec.virtualServers = 1;
    if (spec.unitsPerUs == 0)
        spec.unitsPerUs = 1;
    return spec;
}

std::vector<Request>
generateTrace(const LoadSpec &rawSpec)
{
    const LoadSpec spec = withDefaults(rawSpec);
    Rng rng(spec.seed);
    const std::uint64_t meanUs = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(1e6 / spec.qps)));

    std::vector<Request> trace;
    trace.reserve(spec.requests);
    std::uint64_t now = 0;
    for (std::uint64_t i = 0; i < spec.requests; ++i) {
        // Fixed draw order (class, workload, width, gap) — part of the
        // trace-format contract the determinism test hashes.
        Request r;
        r.cls = spec.mix[rng.next64() % spec.mix.size()];
        r.job.experiment = "serve";
        r.job.workload =
            spec.workloads[rng.next64() % spec.workloads.size()];
        r.job.mode = ExecMode::Liquid;
        r.job.width = static_cast<unsigned>(
            spec.widths[rng.next64() % spec.widths.size()]);
        r.arrivalUs = now;
        r.deadlineUs = spec.deadlineUs;
        r.id = i;
        trace.push_back(std::move(r));
        // Integer-only arrivals: uniform gap on [0, 2*mean] keeps the
        // offered rate while the zeros provide bursts. No libm in the
        // hot path, so the trace is identical on every platform.
        now += static_cast<std::uint64_t>(
            rng.range(0, static_cast<std::int64_t>(2 * meanUs)));
    }
    return trace;
}

std::uint64_t
traceHash(const std::vector<Request> &trace)
{
    std::ostringstream os;
    for (const Request &r : trace)
        os << r.id << '|' << className(r.cls) << '|' << r.job.key()
           << '|' << r.arrivalUs << '|' << r.deadlineUs << '\n';
    return lab::fnv1a(os.str());
}

void
ClassStats::merge(const ClassStats &o)
{
    latency.merge(o.latency);
    submitted += o.submitted;
    ok += o.ok;
    cancelled += o.cancelled;
    rejected += o.rejected;
    failed += o.failed;
    executed += o.executed;
    hotHits += o.hotHits;
    coalesced += o.coalesced;
}

json::Value
ClassStats::toJson(bool distribution) const
{
    json::Value v = json::Value::object();
    v.set("count", submitted);
    v.set("ok", ok);
    v.set("cancelled", cancelled);
    v.set("rejected", rejected);
    v.set("failed", failed);
    v.set("executed", executed);
    v.set("hotHits", hotHits);
    v.set("coalesced", coalesced);
    if (latency.count() > 0) {
        v.set("p50us", latency.quantile(0.50));
        v.set("p95us", latency.quantile(0.95));
        v.set("p99us", latency.quantile(0.99));
        v.set("minUs", latency.min());
        v.set("maxUs", latency.max());
    }
    if (distribution)
        v.set("distribution", latency.distributionJson());
    return v;
}

json::Value
LoadSpec::toJson() const
{
    json::Value v = json::Value::object();
    v.set("seed", seed);
    v.set("qps", qps);
    v.set("requests", requests);
    json::Value mixArr = json::Value::array();
    for (RequestClass c : mix)
        mixArr.push(json::Value(className(c)));
    v.set("mix", std::move(mixArr));
    json::Value wls = json::Value::array();
    for (const std::string &w : workloads)
        wls.push(json::Value(w));
    v.set("workloads", std::move(wls));
    json::Value ws = json::Value::array();
    for (unsigned w : widths)
        ws.push(json::Value(w));
    v.set("widths", std::move(ws));
    v.set("deadlineUs", deadlineUs);
    v.set("virtualServers", virtualServers);
    v.set("queueCapacity", static_cast<std::uint64_t>(queueCapacity));
    v.set("hotCacheEntries",
          static_cast<std::uint64_t>(hotCacheEntries));
    v.set("hitCostUs", hitCostUs);
    v.set("overheadUs", overheadUs);
    v.set("unitsPerUs", unitsPerUs);
    return v;
}

double
LoadReport::achievedQps() const
{
    if (makespanUs == 0)
        return 0.0;
    return static_cast<double>(all.ok) * 1e6 /
           static_cast<double>(makespanUs);
}

json::Value
LoadReport::toJson(bool distribution) const
{
    json::Value v = json::toolReport(serveSchema, serveVersion);
    v.set("kind", "loadgen");
    v.set("spec", spec.toJson());
    v.set("traceHash", traceHash);
    v.set("makespanUs", makespanUs);
    v.set("offeredQps", offeredQps());
    v.set("achievedQps", achievedQps());
    v.set("distinctKeys", distinctKeys);
    json::Value cacheV = json::Value::object();
    cacheV.set("hits", cache.hits);
    cacheV.set("misses", cache.misses);
    cacheV.set("insertions", cache.insertions);
    cacheV.set("evictions", cache.evictions);
    v.set("cache", std::move(cacheV));
    json::Value cls = json::Value::object();
    cls.set("all", all.toJson(distribution));
    for (const auto &[name, stats] : classes)
        cls.set(name, stats.toJson(distribution));
    v.set("classes", std::move(cls));
    return v;
}

LoadReport
runLoad(const LoadSpec &rawSpec, unsigned jobs)
{
    const LoadSpec spec = withDefaults(rawSpec);
    const std::vector<Request> trace = generateTrace(spec);

    // Memoized parallel pre-execution: every distinct key runs the
    // backend exactly once, slot-indexed, so the thread count cannot
    // change a single payload byte. The virtual-time replay below then
    // decides which of those executions "happened" and when.
    std::unordered_map<std::string, std::size_t> keySlot;
    std::vector<Request> unique;
    for (const Request &r : trace) {
        if (keySlot.emplace(r.key(), unique.size()).second)
            unique.push_back(r);
    }
    const Backend backend;
    const std::vector<Response> responses =
        backend.executeAll(unique, jobs);

    LoadReport report;
    report.spec = spec;
    report.traceHash = serve::traceHash(trace);
    report.distinctKeys = unique.size();

    // --- single-threaded virtual-time replay: the live Server's
    // dispatcher, driven by arrival and completion times, with one
    // trace index per waiter ---
    struct Event
    {
        std::uint64_t timeUs;
        std::uint64_t seq;
        std::string key;
    };
    auto later = [](const Event &a, const Event &b) {
        return a.timeUs != b.timeUs ? a.timeUs > b.timeUs
                                    : a.seq > b.seq;
    };
    std::priority_queue<Event, std::vector<Event>, decltype(later)>
        events(later);
    std::uint64_t eventSeq = 0;
    Dispatcher<std::size_t> dispatcher(spec.virtualServers,
                                       spec.queueCapacity,
                                       spec.hotCacheEntries);
    std::uint64_t lastCompletionUs = 0;

    auto classOf = [&](std::size_t i) -> ClassStats & {
        return report.classes[className(trace[i].cls)];
    };
    // Book one answer for every waiter, leader first; followers share
    // the leader's fate and count as coalesced.
    auto settle = [&](const Response &resp,
                      const std::vector<std::size_t> &waiters,
                      std::uint64_t now) {
        for (std::size_t w = 0; w < waiters.size(); ++w) {
            ClassStats &cs = classOf(waiters[w]);
            if (w > 0)
                cs.coalesced += 1;
            if (resp.ok()) {
                cs.ok += 1;
                cs.latency.record(now - trace[waiters[w]].arrivalUs);
            } else if (resp.status == ResponseStatus::Cancelled) {
                cs.cancelled += 1;
            } else {
                cs.failed += 1;
            }
        }
    };
    auto serviceUs = [&](const std::string &key) {
        const Response &resp = responses[keySlot.at(key)];
        return spec.overheadUs +
               (resp.workUnits + spec.unitsPerUs - 1) / spec.unitsPerUs;
    };
    // Start queued leaders while slots are free; the dispatcher
    // cancels those whose budget lapsed in the queue.
    auto fillSlots = [&](std::uint64_t now) {
        auto cancel = [&](const Response &resp,
                          std::vector<std::size_t> &&waiters) {
            settle(resp, waiters, now);
        };
        while (auto job = dispatcher.next(now, cancel)) {
            const std::uint64_t doneUs = now + serviceUs(job->key);
            events.push(Event{doneUs, eventSeq++, std::move(job->key)});
        }
    };
    auto complete = [&](const Event &ev) {
        lastCompletionUs = std::max(lastCompletionUs, ev.timeUs);
        const Response &resp = responses[keySlot.at(ev.key)];
        const std::vector<std::size_t> waiters =
            dispatcher.complete(ev.key, resp);
        classOf(waiters.front()).executed += 1;
        settle(resp, waiters, ev.timeUs);
        fillSlots(ev.timeUs);
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Request &req = trace[i];
        // Completions never see later arrivals: at a tie the finisher
        // runs first, so its freed slot and hot-cache insert are
        // visible to the request arriving at the same microsecond.
        while (!events.empty() &&
               events.top().timeUs <= req.arrivalUs) {
            const Event ev = events.top();
            events.pop();
            complete(ev);
        }
        ClassStats &cs = classOf(i);
        cs.submitted += 1;
        std::size_t waiter = i;
        switch (dispatcher.submit(req, waiter, req.arrivalUs).how) {
          case Admit::HotHit:
            cs.ok += 1;
            cs.hotHits += 1;
            cs.latency.record(spec.hitCostUs);
            lastCompletionUs = std::max(lastCompletionUs,
                                        req.arrivalUs + spec.hitCostUs);
            break;
          case Admit::Rejected:
            cs.rejected += 1;
            break;
          case Admit::Queued:
            fillSlots(req.arrivalUs);
            break;
          case Admit::Coalesced:
            break;
        }
    }
    while (!events.empty()) {
        const Event ev = events.top();
        events.pop();
        complete(ev);
    }
    LIQUID_ASSERT(dispatcher.idle(),
                  "loadgen: queued work survived the drain");

    for (const auto &[name, stats] : report.classes)
        report.all.merge(stats);
    report.cache = dispatcher.hotCacheStats();
    report.makespanUs = std::max(
        lastCompletionUs, trace.empty() ? 0 : trace.back().arrivalUs);
    return report;
}

json::Value
SweepReport::toJson(bool distribution) const
{
    json::Value v = json::toolReport(serveSchema, serveVersion);
    v.set("kind", "sweep");
    v.set("p99TargetUs", p99TargetUs);
    v.set("qpsAtTarget", qpsAtTarget);
    v.set("usPerOpAtTarget", usPerOpAtTarget);
    json::Value pts = json::Value::array();
    for (const SweepPoint &p : points) {
        json::Value pv = json::Value::object();
        pv.set("qps", p.qps);
        pv.set("p99us", p.p99Us);
        pv.set("ok", p.ok);
        pv.set("cancelled", p.cancelled);
        pv.set("rejected", p.rejected);
        pv.set("pass", p.pass);
        pts.push(std::move(pv));
    }
    v.set("points", std::move(pts));
    json::Value runsArr = json::Value::array();
    for (const LoadReport &run : runs)
        runsArr.push(run.toJson(distribution));
    v.set("runs", std::move(runsArr));
    return v;
}

SweepReport
runSweep(const LoadSpec &spec, const std::vector<double> &qpsList,
         std::uint64_t p99TargetUs, unsigned jobs)
{
    LIQUID_ASSERT(!qpsList.empty(), "sweep: need at least one qps");
    SweepReport sweep;
    sweep.p99TargetUs = p99TargetUs;
    for (double qps : qpsList) {
        LoadSpec pointSpec = spec;
        pointSpec.qps = qps;
        LoadReport run = runLoad(pointSpec, jobs);
        SweepPoint pt;
        pt.qps = qps;
        pt.p99Us = run.all.latency.count() > 0
                       ? run.all.latency.quantile(0.99)
                       : 0;
        pt.ok = run.all.ok;
        pt.cancelled = run.all.cancelled;
        pt.rejected = run.all.rejected;
        // The contract: every request answered (none shed, none past
        // its budget) and the tail inside the target.
        pt.pass = run.all.ok > 0 && pt.p99Us <= p99TargetUs &&
                  run.all.rejected == 0 && run.all.cancelled == 0;
        if (pt.pass && pt.qps > sweep.qpsAtTarget)
            sweep.qpsAtTarget = pt.qps;
        sweep.points.push_back(pt);
        sweep.runs.push_back(std::move(run));
    }
    if (sweep.qpsAtTarget > 0.0)
        sweep.usPerOpAtTarget = static_cast<std::uint64_t>(
            std::llround(1e6 / sweep.qpsAtTarget));
    return sweep;
}

lab::ResultSet
toLabResults(const LoadReport &report, const SweepReport *sweep)
{
    auto makeRow = [](const std::string &workload) {
        lab::JobResult r;
        r.job.experiment = "serve";
        r.job.workload = workload;
        r.job.mode = ExecMode::ScalarBaseline;
        r.job.width = 0;
        // Functional tier: these synthetic rows carry no cycle clock,
        // only flattened serve.* counters — absent, not zero.
        r.job.tier = fast::ExecTier::Functional;
        r.outcome.hasCycles = false;
        return r;
    };
    auto statRow = [&](const std::string &workload,
                       const ClassStats &cs) {
        lab::JobResult r = makeRow(workload);
        std::vector<std::pair<std::string, std::uint64_t>> c = {
            {"serve.count", cs.submitted},
            {"serve.ok", cs.ok},
            {"serve.cancelled", cs.cancelled},
            {"serve.rejected", cs.rejected},
            {"serve.failed", cs.failed},
            {"serve.executed", cs.executed},
            {"serve.hotHits", cs.hotHits},
            {"serve.coalesced", cs.coalesced},
        };
        if (cs.latency.count() > 0) {
            c.insert(c.end(),
                     {{"serve.p50us", cs.latency.quantile(0.50)},
                      {"serve.p95us", cs.latency.quantile(0.95)},
                      {"serve.p99us", cs.latency.quantile(0.99)},
                      {"serve.maxUs", cs.latency.max()}});
        }
        r.outcome.counters.assign(std::move(c));
        return r;
    };

    lab::ResultSet set;
    set.add(statRow("all", report.all));
    for (const auto &[name, stats] : report.classes)
        set.add(statRow(name, stats));
    if (sweep) {
        lab::JobResult r = makeRow("sweep");
        r.outcome.counters.assign({
            {"serve.points",
             static_cast<std::uint64_t>(sweep->points.size())},
            {"serve.p99TargetUs", sweep->p99TargetUs},
            {"serve.qpsAtTargetX100",
             static_cast<std::uint64_t>(
                 std::llround(sweep->qpsAtTarget * 100.0))},
            {"serve.usPerOpAtTarget", sweep->usPerOpAtTarget},
        });
        set.add(r);
    }
    set.sortByKey();
    return set;
}

} // namespace liquid::serve
