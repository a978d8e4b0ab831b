#include "serve/server.hh"

#include <algorithm>

namespace liquid::serve
{

Server::Server(ServerConfig config)
    : backend_(config.coldCacheDir),
      epoch_(std::chrono::steady_clock::now()),
      dispatcher_(std::max(1u, config.workers), config.queueCapacity,
                  config.hotCacheEntries)
{
    const unsigned nw = std::max(1u, config.workers);
    workers_.reserve(nw);
    for (unsigned w = 0; w < nw; ++w)
        workers_.emplace_back([this]() { workerMain(); });
}

Server::~Server()
{
    stop();
}

std::uint64_t
Server::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::future<Response>
Server::submit(Request request)
{
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();

    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
        stats_.rejected += 1;
        stats_.completed += 1;
        promise.set_value(
            refusal(ResponseStatus::Rejected, "server is stopping"));
        return future;
    }

    request.id = stats_.accepted;
    auto admission =
        dispatcher_.submit(std::move(request), promise, nowUs());
    switch (admission.how) {
      case Admit::HotHit:
        stats_.hotHits += 1;
        break;
      case Admit::Rejected:
        stats_.rejected += 1;
        break;
      case Admit::Coalesced:
        stats_.coalesced += 1;
        return future;
      case Admit::Queued:
        stats_.accepted += 1;
        stats_.maxQueueDepth = std::max<std::uint64_t>(
            stats_.maxQueueDepth, dispatcher_.queued());
        workCv_.notify_one();
        return future;
    }
    stats_.completed += 1;
    promise.set_value(std::move(admission.response));
    return future;
}

void
Server::deliver(Waiters &waiters, const Response &resp)
{
    bool leader = true;
    for (std::promise<Response> &waiter : waiters) {
        Response copy = resp;
        if (!leader && copy.ok())
            copy.source = ResponseSource::Coalesced;
        waiter.set_value(std::move(copy));
        leader = false;
        stats_.completed += 1;
    }
}

void
Server::workerMain()
{
    auto cancel = [this](const Response &resp, Waiters &&waiters) {
        stats_.cancelled += waiters.size();
        deliver(waiters, resp);
    };
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock, [this]() {
            return stopping_ || dispatcher_.queued() > 0;
        });
        if (dispatcher_.queued() == 0) {
            // stopping_ and drained: graceful exit.
            return;
        }
        // This worker is idle, so a slot is free: next() either hands
        // it a leader or cancels every lapsed one it meets.
        if (auto job = dispatcher_.next(nowUs(), cancel)) {
            // Execute outside the lock; the key stays in flight, so
            // identical submissions keep coalescing meanwhile.
            lock.unlock();
            const Response resp = backend_.execute(job->request);
            lock.lock();
            Waiters waiters = dispatcher_.complete(job->key, resp);
            if (!resp.ok())
                stats_.failed += waiters.size();
            else if (resp.source == ResponseSource::ColdCache)
                stats_.coldHits += 1;
            else
                stats_.executed += 1;
            deliver(waiters, resp);
        }
        if (dispatcher_.idle())
            idleCv_.notify_all();
    }
}

void
Server::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this]() { return dispatcher_.idle(); });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

HotCacheStats
Server::hotCacheStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatcher_.hotCacheStats();
}

std::size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatcher_.queued();
}

} // namespace liquid::serve
