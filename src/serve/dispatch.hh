/**
 * @file
 * The serving policy, written once: hot tier at the door, coalescing
 * onto queued or running leaders, a FIFO with backpressure, deadlines
 * at dequeue, and completion (docs/SERVE.md states the rules). The
 * hot tier is a bounded LRU of finished Ok responses keyed by
 * Request::key(); its counters are part of every serve report.
 *
 * A Dispatcher decides what happens to a request and never runs one.
 * It is single-threaded and keeps no clock; each call takes the time
 * in integer microseconds. The live Server drives it under its lock
 * with the wall clock and a std::promise per waiter; the loadgen
 * model drives it with virtual time and a trace index per waiter.
 */

#ifndef LIQUID_SERVE_DISPATCH_HH
#define LIQUID_SERVE_DISPATCH_HH

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "serve/request.hh"

namespace liquid::serve
{

/** Monotonic hot-tier counters; snapshot-copyable. */
struct HotCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
};

/** How Dispatcher::submit() disposed of a request. */
enum class Admit : std::uint8_t
{
    HotHit,     ///< answered from the hot tier
    Coalesced,  ///< attached to a queued or running leader
    Queued,     ///< a new leader in the FIFO
    Rejected,   ///< no room to wait
};

/** A response that carries no payload, only @p status and @p why. */
inline Response
refusal(ResponseStatus status, const char *why)
{
    Response resp;
    resp.status = status;
    resp.error = why;
    return resp;
}

template <class Waiter>
class Dispatcher
{
  public:
    /** What submit() did; response is the answer on HotHit (the
     *  cached payload) and on Rejected (the refusal). */
    struct Admission
    {
        Admit how;
        Response response;
    };

    /** A leader moved from the FIFO into a slot. */
    struct Job
    {
        std::string key;
        Request request;
    };

    /** @p hotCacheEntries = 0 disables the hot tier. */
    Dispatcher(unsigned slots, std::size_t queueCapacity,
               std::size_t hotCacheEntries)
        : slots_(slots), queueCapacity_(queueCapacity),
          hotEntries_(hotCacheEntries)
    {
        LIQUID_ASSERT(slots > 0, "dispatch: need at least one slot");
    }

    /**
     * Admit @p request at @p nowUs. On Coalesced or Queued the
     * dispatcher takes @p waiter and hands it back from next() or
     * complete(); on HotHit or Rejected the caller keeps it. A new
     * leader is rejected when those already waiting fill
     * queueCapacity plus the idle slots, so an idle slot always
     * admits one.
     */
    Admission submit(Request request, Waiter &waiter, std::uint64_t nowUs)
    {
        std::string key = request.key();
        if (auto hit = hotIndex_.find(key); hit != hotIndex_.end()) {
            hotLru_.splice(hotLru_.begin(), hotLru_, hit->second);
            hotStats_.hits += 1;
            Response cached = hit->second->second;
            cached.source = ResponseSource::HotCache;
            return {Admit::HotHit, std::move(cached)};
        }
        hotStats_.misses += 1;
        if (auto it = inflight_.find(key); it != inflight_.end()) {
            it->second.waiters.push_back(std::move(waiter));
            return {Admit::Coalesced, {}};
        }
        if (queue_.size() >= queueCapacity_ + (slots_ - busy_)) {
            return {Admit::Rejected,
                    refusal(ResponseStatus::Rejected, "queue at capacity")};
        }
        Leader &leader = inflight_[key];
        leader.request = std::move(request);
        leader.submittedUs = nowUs;
        leader.waiters.push_back(std::move(waiter));
        queue_.push_back(std::move(key));
        return {Admit::Queued, {}};
    }

    /**
     * Fill a free slot at @p nowUs from the head of the FIFO. A leader
     * whose deadline lapsed while it waited is cancelled instead:
     * @p onCancel(response, waiters) gets the Cancelled response and
     * its waiters, leader first, and the next leader is tried. Returns
     * the leader now holding the slot, or nothing when every slot is
     * busy or nobody waits.
     */
    template <class OnCancel>
    std::optional<Job> next(std::uint64_t nowUs, OnCancel &&onCancel)
    {
        while (busy_ < slots_ && !queue_.empty()) {
            std::string key = std::move(queue_.front());
            queue_.pop_front();
            auto it = inflight_.find(key);
            const Request &request = it->second.request;
            if (request.deadlineUs != 0 &&
                nowUs - it->second.submittedUs > request.deadlineUs) {
                std::vector<Waiter> waiters =
                    std::move(it->second.waiters);
                inflight_.erase(it);
                onCancel(refusal(ResponseStatus::Cancelled,
                                 "deadline lapsed in queue"),
                         std::move(waiters));
                continue;
            }
            busy_ += 1;
            return Job{std::move(key), request};
        }
        return std::nullopt;
    }

    /**
     * Finish the running leader of @p key with @p response: free its
     * slot, end coalescing on the key and, when the response is Ok,
     * keep it in the hot tier (evicting the least recently used entry
     * at capacity). Returns the waiters, leader first.
     */
    std::vector<Waiter> complete(const std::string &key,
                                 const Response &response)
    {
        auto it = inflight_.find(key);
        LIQUID_ASSERT(it != inflight_.end() && busy_ > 0,
                      "dispatch: completing '", key,
                      "', which is not running");
        std::vector<Waiter> waiters = std::move(it->second.waiters);
        inflight_.erase(it);
        busy_ -= 1;
        // A key in flight missed the hot tier at its door and nothing
        // cached it since, so it is never there already.
        if (response.ok() && hotEntries_ > 0) {
            if (hotLru_.size() >= hotEntries_) {
                hotIndex_.erase(hotLru_.back().first);
                hotLru_.pop_back();
                hotStats_.evictions += 1;
            }
            hotLru_.emplace_front(key, response);
            hotIndex_[key] = hotLru_.begin();
            hotStats_.insertions += 1;
        }
        return waiters;
    }

    /** Leaders waiting for a slot (running ones excluded). */
    std::size_t queued() const { return queue_.size(); }

    /** Nothing waiting and nothing running. */
    bool idle() const { return queue_.empty() && busy_ == 0; }

    HotCacheStats hotCacheStats() const { return hotStats_; }

  private:
    /** A queued or running request and everyone waiting on it. */
    struct Leader
    {
        Request request;
        std::uint64_t submittedUs = 0;
        std::vector<Waiter> waiters;
    };
    using HotLru = std::list<std::pair<std::string, Response>>;

    unsigned slots_;
    std::size_t queueCapacity_;
    std::size_t hotEntries_;
    unsigned busy_ = 0;
    /** Keys in arrival order, waiting for a slot. */
    std::deque<std::string> queue_;
    /** The coalescing map: every queued or running leader by key. */
    std::unordered_map<std::string, Leader> inflight_;
    HotLru hotLru_;  ///< front = most recently used
    std::unordered_map<std::string, HotLru::iterator> hotIndex_;
    HotCacheStats hotStats_;
};

} // namespace liquid::serve

#endif // LIQUID_SERVE_DISPATCH_HH
