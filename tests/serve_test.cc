/**
 * @file
 * Live async Server semantics: coalescing (N identical concurrent
 * requests -> one execution, N bit-identical responses, correct
 * counters), the hot tier, deadline cancellation that never poisons
 * the cache, queue backpressure, and graceful failure isolation; and
 * the Dispatcher's capacity and deadline boundaries in exact time.
 */

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/backend.hh"
#include "serve/dispatch.hh"
#include "serve/server.hh"

using namespace liquid;
using namespace liquid::serve;

namespace
{

Request
makeRequest(RequestClass cls, const std::string &workload,
            unsigned width)
{
    Request r;
    r.cls = cls;
    r.job.experiment = "serve";
    r.job.workload = workload;
    r.job.mode = ExecMode::Liquid;
    r.job.width = width;
    return r;
}

/** A request whose execution takes milliseconds of wall time — long
 *  enough that submissions made while it runs are ordered behind it
 *  on a single-worker server. */
Request
blockerRequest()
{
    return makeRequest(RequestClass::Simulate, "lu", 8);
}

/** Fresh servers a blocked-worker test may try before it gives up. */
constexpr int blockedAttempts = 20;

/**
 * Occupy @p server's single worker with the blocker, then run
 * @p probe. Returns true when the blocker was still running after the
 * probe returned, so every submission the probe made met a busy
 * worker. When the blocker finished first the worker was idle for
 * some of them, and an idle worker admits one more request, so the
 * run shows nothing and the caller retries on a fresh server.
 */
template <class Probe>
bool
probeWhileBlocked(Server &server, Probe &&probe)
{
    std::future<Response> blocker = server.submit(blockerRequest());
    // Wait for the worker to dequeue the blocker (it then executes
    // for milliseconds) so the probe sees an empty queue.
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    probe();
    // The worker answers the blocker in the same critical section
    // that frees its slot, so a blocker not yet answered here was
    // still running when each probe submission took the lock.
    const bool held = blocker.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready;
    EXPECT_TRUE(blocker.get().ok());
    return held;
}

} // namespace

TEST(Serve, BackendResponsesAreBitIdentical)
{
    // Two independent executions (separate Backend instances) of the
    // same key produce the same digest and work units: the referential
    // transparency that makes coalescing and caching sound.
    const Request req = makeRequest(RequestClass::Verify, "fir", 4);
    const Response a = Backend().execute(req);
    const Response b = Backend().execute(req);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(a.digest, 0u);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.workUnits, b.workUnits);
    EXPECT_EQ(a.summary, b.summary);
}

TEST(Serve, EveryClassExecutes)
{
    ServerConfig config;
    config.workers = 4;
    Server server(config);
    std::vector<std::future<Response>> futures;
    for (RequestClass cls : allRequestClasses)
        futures.push_back(
            server.submit(makeRequest(cls, "fir", 4)));
    for (auto &f : futures) {
        const Response resp = f.get();
        EXPECT_TRUE(resp.ok()) << resp.error;
        EXPECT_EQ(resp.source, ResponseSource::Executed);
        EXPECT_NE(resp.digest, 0u);
        EXPECT_GT(resp.workUnits, 0u);
    }
    server.stop();
    EXPECT_EQ(server.stats().executed, 5u);
    EXPECT_EQ(server.stats().completed, 5u);
}

TEST(Serve, IdenticalConcurrentRequestsCoalesce)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);

    // Occupy the single worker for milliseconds, then land N identical
    // requests behind it: the first becomes the queued leader, the
    // rest attach to it. Exactly one execution, N identical payloads.
    std::future<Response> blocker = server.submit(blockerRequest());
    constexpr int n = 6;
    const Request req = makeRequest(RequestClass::Scan, "fir", 4);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(server.submit(req));

    ASSERT_TRUE(blocker.get().ok());
    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    server.stop();

    for (const Response &resp : responses) {
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_EQ(resp.digest, responses.front().digest);
        EXPECT_EQ(resp.workUnits, responses.front().workUnits);
        EXPECT_EQ(resp.summary, responses.front().summary);
    }

    const ServerStats stats = server.stats();
    // Blocker + one leader: the identical set executed exactly once.
    // (A follower that arrives after the leader completes becomes a
    // hot hit instead of coalescing — either way, never a second
    // execution.)
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.coalesced + stats.hotHits,
              static_cast<std::uint64_t>(n - 1));
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(n + 1));
    int coalescedSources = 0;
    for (const Response &resp : responses)
        coalescedSources += resp.source == ResponseSource::Coalesced;
    EXPECT_EQ(static_cast<std::uint64_t>(coalescedSources),
              stats.coalesced);
}

TEST(Serve, HotTierServesRepeats)
{
    ServerConfig config;
    config.workers = 2;
    Server server(config);
    const Request req = makeRequest(RequestClass::Proof, "fir", 4);

    const Response first = server.submit(req).get();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.source, ResponseSource::Executed);

    const Response second = server.submit(req).get();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.source, ResponseSource::HotCache);
    EXPECT_EQ(second.digest, first.digest);
    server.stop();

    EXPECT_EQ(server.stats().executed, 1u);
    EXPECT_EQ(server.stats().hotHits, 1u);
    EXPECT_EQ(server.hotCacheStats().hits, 1u);
    EXPECT_EQ(server.hotCacheStats().insertions, 1u);
}

TEST(Serve, DeadlineCancelsWithoutPoisoningTheCache)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);

    // The worker is busy for milliseconds; a 1us-budget request behind
    // it must be cancelled at dequeue, not executed late.
    std::future<Response> blocker = server.submit(blockerRequest());
    Request doomed = makeRequest(RequestClass::Verify, "fft", 8);
    doomed.deadlineUs = 1;
    const Response cancelled = server.submit(doomed).get();
    EXPECT_EQ(cancelled.status, ResponseStatus::Cancelled);
    EXPECT_EQ(cancelled.source, ResponseSource::None);
    EXPECT_EQ(cancelled.digest, 0u);
    ASSERT_TRUE(blocker.get().ok());

    // The cancelled key must not have been cached: resubmitting with
    // no deadline executes fresh and succeeds.
    Request retry = doomed;
    retry.deadlineUs = 0;
    const Response after = server.submit(retry).get();
    ASSERT_TRUE(after.ok()) << after.error;
    EXPECT_EQ(after.source, ResponseSource::Executed);
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.hotHits, 0u);
    EXPECT_EQ(stats.executed, 2u);
}

TEST(Serve, QueueCapacityRejectsOverflow)
{
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    for (int attempt = 0; attempt < blockedAttempts; ++attempt) {
        Server server(config);
        std::future<Response> queued;
        std::future<Response> bounced;
        const bool held = probeWhileBlocked(server, [&]() {
            // One slot in the queue...
            queued =
                server.submit(makeRequest(RequestClass::Scan, "fir", 4));
            // ...and the next distinct key bounces at the door.
            bounced =
                server.submit(makeRequest(RequestClass::Scan, "fft", 4));
        });
        if (!held)
            continue;
        const Response rejected = bounced.get();
        EXPECT_EQ(rejected.status, ResponseStatus::Rejected);
        EXPECT_EQ(rejected.digest, 0u);
        ASSERT_TRUE(queued.get().ok());
        server.stop();
        EXPECT_EQ(server.stats().rejected, 1u);
        EXPECT_EQ(server.stats().maxQueueDepth, 1u);
        return;
    }
    FAIL() << "the blocker never outlasted the probe";
}

TEST(Serve, BackendFailureIsIsolatedAndUncached)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    // Unknown workload: the backend raises, the server answers Failed
    // and stays up; the failure is never cached.
    const Request bad =
        makeRequest(RequestClass::Simulate, "no-such-workload", 4);
    const Response first = server.submit(bad).get();
    EXPECT_EQ(first.status, ResponseStatus::Failed);
    EXPECT_FALSE(first.error.empty());
    const Response second = server.submit(bad).get();
    EXPECT_EQ(second.status, ResponseStatus::Failed);

    // And a good request still goes through afterwards.
    const Response good =
        server.submit(makeRequest(RequestClass::Scan, "fir", 4)).get();
    EXPECT_TRUE(good.ok()) << good.error;
    server.stop();
    EXPECT_EQ(server.stats().failed, 2u);
    EXPECT_EQ(server.hotCacheStats().insertions, 1u);
}

TEST(Serve, StopDrainsAcceptedWork)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    std::vector<std::future<Response>> futures;
    futures.push_back(server.submit(blockerRequest()));
    futures.push_back(
        server.submit(makeRequest(RequestClass::Verify, "fir", 4)));
    futures.push_back(
        server.submit(makeRequest(RequestClass::Scan, "lu", 8)));
    // Graceful stop: everything already accepted completes first.
    server.stop();
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok());
    // Post-stop submissions are rejected, not lost futures.
    const Response late =
        server.submit(makeRequest(RequestClass::Scan, "fir", 4)).get();
    EXPECT_EQ(late.status, ResponseStatus::Rejected);
}

TEST(Serve, ConcurrentRepeatsExecuteOnce)
{
    // Many clients hammer one cheap key. A worker that finishes the key
    // ends coalescing and fills the hot tier in one step under the
    // server lock, so every other submission either coalesces or hits:
    // the backend runs exactly once.
    ServerConfig config;
    config.workers = 2;
    Server server(config);
    const Request req = makeRequest(RequestClass::Verify, "fir", 4);
    constexpr int clients = 4;
    constexpr int perClient = 200;
    std::vector<std::thread> threads;
    std::vector<std::vector<std::future<Response>>> futures(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&server, &req, &mine = futures[c]]() {
            for (int i = 0; i < perClient; ++i)
                mine.push_back(server.submit(req));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (auto &mine : futures)
        for (auto &f : mine)
            EXPECT_TRUE(f.get().ok());
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.executed + stats.coalesced + stats.hotHits,
              static_cast<std::uint64_t>(clients * perClient));
    EXPECT_EQ(stats.completed,
              static_cast<std::uint64_t>(clients * perClient));
}

TEST(Serve, ZeroQueueCapacityStillServesIdleSlots)
{
    // Capacity bounds the requests waiting for a slot, not the slots:
    // with no queue at all, an idle worker still takes a request, and
    // only a request that would have to wait is rejected.
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 0;
    for (int attempt = 0; attempt < blockedAttempts; ++attempt) {
        Server server(config);
        const Response first =
            server.submit(makeRequest(RequestClass::Verify, "fir", 4))
                .get();
        ASSERT_TRUE(first.ok()) << first.error;
        EXPECT_EQ(first.source, ResponseSource::Executed);

        std::future<Response> probe;
        const bool held = probeWhileBlocked(server, [&]() {
            probe =
                server.submit(makeRequest(RequestClass::Scan, "fft", 4));
        });
        if (!held)
            continue;
        EXPECT_EQ(probe.get().status, ResponseStatus::Rejected);
        server.stop();
        EXPECT_EQ(server.stats().executed, 2u);
        EXPECT_EQ(server.stats().rejected, 1u);
        return;
    }
    FAIL() << "the blocker never outlasted the probe";
}

TEST(Serve, FailuresAreCountedPerWaiter)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    // Three identical bad requests behind a blocker share one failing
    // execution; each of them is a failed request, as each waiter on a
    // cancelled leader is a cancelled one.
    std::future<Response> blocker = server.submit(blockerRequest());
    const Request bad =
        makeRequest(RequestClass::Simulate, "no-such-workload", 4);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(server.submit(bad));
    ASSERT_TRUE(blocker.get().ok());
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, ResponseStatus::Failed);
    server.stop();

    EXPECT_EQ(server.stats().failed, 3u);
    EXPECT_EQ(server.stats().completed, 4u);
    EXPECT_EQ(server.hotCacheStats().insertions, 1u);
}

TEST(Dispatcher, CapacityCountsIdleSlots)
{
    // Two slots, one queue place: with both slots idle three leaders
    // fit; once two of them hold the slots, one may wait and no more.
    Dispatcher<int> d(2, 1, 0);
    auto submit = [&d](const char *workload) {
        int waiter = 0;
        return d.submit(makeRequest(RequestClass::Scan, workload, 4),
                        waiter, 0)
            .how;
    };
    auto noCancel = [](const Response &, std::vector<int> &&) {
        FAIL() << "nothing has a deadline";
    };
    EXPECT_EQ(submit("fir"), Admit::Queued);
    EXPECT_EQ(submit("lu"), Admit::Queued);
    EXPECT_EQ(submit("fft"), Admit::Queued);
    EXPECT_EQ(submit("dct"), Admit::Rejected);
    ASSERT_TRUE(d.next(0, noCancel));
    ASSERT_TRUE(d.next(0, noCancel));
    EXPECT_FALSE(d.next(0, noCancel));  // both slots busy
    EXPECT_EQ(d.queued(), 1u);
    EXPECT_EQ(submit("dct"), Admit::Rejected);
    EXPECT_EQ(submit("fir"), Admit::Coalesced);
}

TEST(Dispatcher, DeadlineLapsesOnlyPastTheBudget)
{
    // One slot held from t=0 to t=10; two leaders queued at t=0 with
    // a 10us budget. At t=10 the first has waited exactly its budget
    // and runs; at t=11 the second has waited past it and cancels.
    Dispatcher<int> d(1, 4, 0);
    auto noCancel = [](const Response &, std::vector<int> &&) {
        FAIL() << "cancelled within its budget";
    };
    int waiter = 0;
    d.submit(makeRequest(RequestClass::Scan, "fir", 4), waiter, 0);
    const auto blocker = d.next(0, noCancel);
    ASSERT_TRUE(blocker);
    Request onTime = makeRequest(RequestClass::Scan, "lu", 4);
    onTime.deadlineUs = 10;
    Request late = makeRequest(RequestClass::Scan, "fft", 4);
    late.deadlineUs = 10;
    d.submit(onTime, waiter, 0);
    d.submit(late, waiter, 0);

    d.complete(blocker->key, Response{});
    const auto ran = d.next(10, noCancel);
    ASSERT_TRUE(ran);
    EXPECT_EQ(ran->key, onTime.key());

    d.complete(ran->key, Response{});
    int cancelled = 0;
    EXPECT_FALSE(d.next(11, [&](const Response &resp,
                                std::vector<int> &&waiters) {
        EXPECT_EQ(resp.status, ResponseStatus::Cancelled);
        cancelled += static_cast<int>(waiters.size());
    }));
    EXPECT_EQ(cancelled, 1);
    EXPECT_TRUE(d.idle());
}
