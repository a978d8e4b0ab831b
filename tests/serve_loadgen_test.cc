/**
 * @file
 * Determinism contract of the serve load generator: same seed + spec
 * produce a byte-identical request trace and a byte-identical latency
 * report — across repeat runs AND across --jobs thread counts. Plus
 * the report schema, the lab-results rendering that CI diffs, and the
 * sweep's p99 gate.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "lab/results.hh"
#include "serve/loadgen.hh"

using namespace liquid;
using namespace liquid::serve;

namespace
{

/** Small but exercising every class; wall cost a few hundred ms. */
LoadSpec
smallSpec()
{
    LoadSpec spec;
    spec.seed = 42;
    spec.qps = 2000.0;
    spec.requests = 24;
    spec.workloads = {"fir"};
    spec.widths = {4};
    return spec;
}

/** The flood from DeadlinesCancelQueuedWork: one server, 50us budget. */
LoadSpec
deadlineSpec()
{
    LoadSpec spec = smallSpec();
    spec.qps = 100000.0;
    spec.virtualServers = 1;
    spec.deadlineUs = 50;
    spec.hotCacheEntries = 0;
    return spec;
}

/** One server, a two-deep queue and a one-entry hot tier: rejections
 *  and hot-tier evictions both happen. */
LoadSpec
backpressureSpec()
{
    LoadSpec spec = smallSpec();
    spec.qps = 5000.0;
    spec.virtualServers = 1;
    spec.queueCapacity = 2;
    spec.hotCacheEntries = 1;
    return spec;
}

std::uint64_t
reportHash(const LoadSpec &spec)
{
    return lab::fnv1a(runLoad(spec, 0).toJson(true).toString());
}

} // namespace

TEST(ServeLoadgen, TraceIsDeterministic)
{
    const LoadSpec spec = smallSpec();
    const std::vector<Request> a = generateTrace(spec);
    const std::vector<Request> b = generateTrace(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key()) << i;
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs) << i;
        EXPECT_EQ(a[i].deadlineUs, b[i].deadlineUs) << i;
        EXPECT_EQ(a[i].id, b[i].id) << i;
    }
    EXPECT_EQ(traceHash(a), traceHash(b));
}

TEST(ServeLoadgen, TraceRespondsToSeed)
{
    LoadSpec spec = smallSpec();
    const std::uint64_t base = traceHash(generateTrace(spec));
    spec.seed = 43;
    EXPECT_NE(traceHash(generateTrace(spec)), base);
}

TEST(ServeLoadgen, TraceIsOpenLoopAndOrdered)
{
    const std::vector<Request> trace = generateTrace(smallSpec());
    ASSERT_FALSE(trace.empty());
    std::uint64_t prev = 0;
    for (const Request &r : trace) {
        EXPECT_GE(r.arrivalUs, prev);
        prev = r.arrivalUs;
        EXPECT_EQ(r.job.experiment, "serve");
    }
}

TEST(ServeLoadgen, ReportBytesIdenticalAcrossRunsAndJobs)
{
    const LoadSpec spec = smallSpec();
    // The tentpole determinism claim, verified at the byte level: the
    // full JSON latency report — p50/p95/p99 included — is a pure
    // function of (seed, spec). The thread count only changes how fast
    // the wall clock gets there.
    const std::string serial = runLoad(spec, 1).toJson(true).toString();
    const std::string repeat = runLoad(spec, 1).toJson(true).toString();
    const std::string wide = runLoad(spec, 8).toJson(true).toString();
    EXPECT_EQ(serial, repeat);
    EXPECT_EQ(serial, wide);
}

TEST(ServeLoadgen, ReportCarriesSchemaHeader)
{
    const LoadReport report = runLoad(smallSpec(), 0);
    const json::Value v = report.toJson();
    EXPECT_EQ(v.at("schema").asString(), serveSchema);
    EXPECT_EQ(v.at("toolVersion").asString(), serveVersion);
    EXPECT_EQ(v.at("kind").asString(), "loadgen");
    // Every submitted request is accounted for, whatever its fate.
    const ClassStats &all = report.all;
    EXPECT_EQ(all.submitted, report.spec.requests);
    EXPECT_EQ(all.ok + all.cancelled + all.rejected + all.failed,
              all.submitted);
    EXPECT_GT(report.distinctKeys, 0u);
}

TEST(ServeLoadgen, LabResultsRoundTripThroughSchema)
{
    const LoadReport report = runLoad(smallSpec(), 0);
    const lab::ResultSet rendered = toLabResults(report);
    // Reparse through the strict lab fromJson (key validation, absent
    // cycle fields on the functional tier) — what CI's diff gate does.
    const lab::ResultSet reread =
        lab::ResultSet::fromJson(json::parse(rendered.writeString()));
    ASSERT_EQ(reread.size(), rendered.size());
    const lab::JobResult &all = reread.at("serve/all/scalar/fun");
    EXPECT_FALSE(all.outcome.hasCycles);
    EXPECT_EQ(all.outcome.counters.at("serve.count"),
              report.all.submitted);
    EXPECT_EQ(all.outcome.counters.at("serve.p99us"),
              report.all.latency.quantile(0.99));
}

TEST(ServeLoadgen, HotCacheAndCoalescingShapeTheRun)
{
    // 24 requests over at most 5 distinct keys (one workload, one
    // width, five classes): repeats must come from the hot tier or an
    // in-flight leader, never a second execution.
    const LoadReport report = runLoad(smallSpec(), 0);
    EXPECT_LE(report.distinctKeys, 5u);
    EXPECT_EQ(report.all.executed, report.distinctKeys);
    EXPECT_EQ(report.all.hotHits + report.all.coalesced +
                  report.all.executed,
              report.all.ok);
    EXPECT_EQ(report.cache.hits, report.all.hotHits);
}

TEST(ServeLoadgen, SweepGatesOnTheTailContract)
{
    const LoadSpec spec = smallSpec();
    // An absurdly tight 1us target: nothing can pass (every execution
    // costs at least overheadUs), so the sweep reports no operating
    // point and the fail-side sentinel.
    const SweepReport tight =
        runSweep(spec, {1000.0, 2000.0}, 1, 0);
    EXPECT_FALSE(tight.anyPass());
    EXPECT_EQ(tight.qpsAtTarget, 0.0);
    EXPECT_EQ(tight.usPerOpAtTarget, usPerOpFailSentinel);

    // A generous 10s target: every point passes and the certified
    // operating point is the fastest offered rate.
    const SweepReport loose =
        runSweep(spec, {1000.0, 2000.0}, 10000000, 0);
    EXPECT_TRUE(loose.anyPass());
    EXPECT_EQ(loose.qpsAtTarget, 2000.0);
    EXPECT_EQ(loose.usPerOpAtTarget, 500u);
    ASSERT_EQ(loose.points.size(), 2u);
    EXPECT_TRUE(loose.points[0].pass);
    EXPECT_TRUE(loose.points[1].pass);

    const json::Value v = loose.toJson();
    EXPECT_EQ(v.at("schema").asString(), serveSchema);
    EXPECT_EQ(v.at("kind").asString(), "sweep");
}

TEST(ServeLoadgen, DeadlinesCancelQueuedWork)
{
    // One virtual server, a flood, and a 50us budget: queued requests
    // must cancel rather than execute late — and the books must still
    // balance.
    const LoadSpec spec = deadlineSpec();
    const LoadReport report = runLoad(spec, 0);
    EXPECT_GT(report.all.cancelled, 0u);
    EXPECT_EQ(report.all.ok + report.all.cancelled +
                  report.all.rejected + report.all.failed,
              report.all.submitted);
    // A determinism spot-check on the stressed path too.
    const std::string once = report.toJson().toString();
    EXPECT_EQ(once, runLoad(spec, 4).toJson().toString());
}

TEST(ServeLoadgen, ReportBytesArePinned)
{
    // The tests above compare runs only with each other; these pin the
    // serving policy itself. Each hash is the FNV-1a of the full report
    // (distributions included), so a change to admission, coalescing,
    // deadlines, the hot tier or the per-waiter accounting moves it.
    // Re-pin only for an intended semantic change, and say why.
    EXPECT_EQ(reportHash(smallSpec()), 3134703707077359385ull);
    EXPECT_EQ(reportHash(deadlineSpec()), 17735510035020703664ull);

    const LoadReport bp = runLoad(backpressureSpec(), 0);
    EXPECT_GT(bp.all.rejected, 0u);
    EXPECT_GT(bp.cache.evictions, 0u);
    EXPECT_EQ(reportHash(backpressureSpec()), 7423097004869799233ull);
}
