/**
 * @file
 * The long-lived in-process translation server.
 *
 * A Server owns a worker pool and an async job queue: submit() hands
 * back a std::future<Response> immediately and the work proceeds in
 * the background. The serving policy itself — hot tier at the door,
 * coalescing onto queued or running leaders, the FIFO with its
 * capacity rule, deadlines checked at dequeue — is the Dispatcher's
 * (serve/dispatch.hh), which the loadgen model drives too. The Server
 * adds the threads, the wall clock and the futures: it calls the
 * dispatcher under one lock, so a key finishing on a worker and the
 * same key arriving at the door can never both miss.
 *
 * stop() is graceful: the queue drains before the workers exit, and
 * every later submission is Rejected.
 */

#ifndef LIQUID_SERVE_SERVER_HH
#define LIQUID_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/backend.hh"
#include "serve/dispatch.hh"
#include "serve/request.hh"

namespace liquid::serve
{

struct ServerConfig
{
    /** Worker threads executing requests. */
    unsigned workers = 2;
    /** Queued-leader limit beyond the idle workers; a new leader
     *  that finds it full is Rejected. */
    std::size_t queueCapacity = 64;
    /** Hot-tier capacity in responses; 0 disables the hot cache. */
    std::size_t hotCacheEntries = 256;
    /** On-disk cold tier for simulate requests; "" disables. */
    std::string coldCacheDir;
};

/** Monotonic server counters; one unit = one submitted request. */
struct ServerStats
{
    std::uint64_t accepted = 0;   ///< entered the queue as a leader
    std::uint64_t coalesced = 0;  ///< attached to an in-flight leader
    std::uint64_t hotHits = 0;    ///< completed from the hot tier
    std::uint64_t coldHits = 0;   ///< leader served from the cold tier
    std::uint64_t executed = 0;   ///< leader ran the backend
    std::uint64_t cancelled = 0;  ///< deadline lapsed while queued
    std::uint64_t rejected = 0;   ///< queue full (or server stopping)
    std::uint64_t failed = 0;     ///< answered Failed (every waiter)
    std::uint64_t completed = 0;  ///< responses delivered, any status
    std::uint64_t maxQueueDepth = 0;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Submit one request; returns a future that becomes ready when the
     * request completes (by execution, cache hit, coalescing,
     * cancellation or rejection — the future always resolves, never
     * throws). request.deadlineUs, when nonzero, is a wall-clock
     * budget measured from submission.
     */
    std::future<Response> submit(Request request);

    /** Block until every accepted request has completed. */
    void drain();

    /**
     * Graceful shutdown: stop accepting, drain the queue, join the
     * workers. Idempotent; the destructor calls it.
     */
    void stop();

    ServerStats stats() const;
    HotCacheStats hotCacheStats() const;

    /** Leaders currently waiting in the queue (excludes executing). */
    std::size_t queueDepth() const;

  private:
    using Waiters = std::vector<std::promise<Response>>;

    void workerMain();
    /** Microseconds since construction: the dispatcher's clock. */
    std::uint64_t nowUs() const;
    /** Answer every waiter with @p resp (leader first, followers get
     *  source Coalesced). Caller holds the lock. */
    void deliver(Waiters &waiters, const Response &resp);

    Backend backend_;
    const std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< workers: queue or stop
    std::condition_variable idleCv_;  ///< drain(): all quiet
    Dispatcher<std::promise<Response>> dispatcher_;
    bool stopping_ = false;
    ServerStats stats_;
    std::vector<std::thread> workers_;
};

} // namespace liquid::serve

#endif // LIQUID_SERVE_SERVER_HH
