#include "lab/runner.hh"

#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace liquid::lab
{

namespace
{

/** A mutex-guarded deque: owner pops the front, thieves the back. */
class WorkQueue
{
  public:
    void
    push(std::size_t jobIndex)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        deque_.push_back(jobIndex);
    }

    bool
    popFront(std::size_t &jobIndex)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (deque_.empty())
            return false;
        jobIndex = deque_.front();
        deque_.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &jobIndex)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (deque_.empty())
            return false;
        jobIndex = deque_.back();
        deque_.pop_back();
        return true;
    }

  private:
    std::mutex mutex_;
    std::deque<std::size_t> deque_;
};

} // namespace

Runner::Runner(unsigned jobs) : workers_(jobs)
{
    if (workers_ == 0) {
        workers_ = std::thread::hardware_concurrency();
        if (workers_ == 0)
            workers_ = 1;
    }
}

ResultSet
Runner::run(const std::vector<Job> &jobs, const ResultCache *cache,
            RunnerStats *stats,
            std::function<void(const JobResult &)> progress)
{
    const std::size_t n = jobs.size();
    const unsigned nw =
        static_cast<unsigned>(std::min<std::size_t>(workers_, std::max<std::size_t>(n, 1)));

    std::vector<JobResult> slots(n);
    std::vector<WorkQueue> queues(nw);
    for (std::size_t i = 0; i < n; ++i)
        queues[i % nw].push(i);

    std::atomic<std::uint64_t> simulations{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> steals{0};
    std::mutex progressMutex;
    std::mutex errorMutex;
    std::exception_ptr firstError;

    auto executeOne = [&](std::size_t index) {
        const Job &job = jobs[index];
        JobResult result;
        result.job = job;

        if (cache && cache->enabled()) {
            // Hash the exact simulation inputs: the program is built
            // here (cheap next to simulating it) so a changed workload
            // generator or scalarizer invalidates the entry even
            // though the declarative spec did not change.
            const Workload::Build build = buildJob(job);
            const std::string hash =
                contentHash(job, build, job.config());
            if (auto cached = cache->load(hash)) {
                result.outcome = std::move(*cached);
                result.fromCache = true;
                cacheHits.fetch_add(1, std::memory_order_relaxed);
            } else {
                result.outcome = runBuilt(job, build);
                simulations.fetch_add(1, std::memory_order_relaxed);
                cache->store(hash, job, result.outcome);
            }
        } else {
            result.outcome = runJob(job);
            simulations.fetch_add(1, std::memory_order_relaxed);
        }

        if (progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(result);
        }
        slots[index] = std::move(result);
    };

    auto workerMain = [&](unsigned self) {
        try {
            std::size_t index = 0;
            while (true) {
                if (queues[self].popFront(index)) {
                    executeOne(index);
                    continue;
                }
                bool stole = false;
                for (unsigned v = 1; v < nw && !stole; ++v) {
                    const unsigned victim = (self + v) % nw;
                    if (queues[victim].stealBack(index)) {
                        steals.fetch_add(1,
                                         std::memory_order_relaxed);
                        executeOne(index);
                        stole = true;
                    }
                }
                if (!stole)
                    return;  // every queue drained
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!firstError)
                firstError = std::current_exception();
        }
    };

    if (nw <= 1) {
        workerMain(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(nw);
        for (unsigned w = 0; w < nw; ++w)
            threads.emplace_back(workerMain, w);
        for (auto &t : threads)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    if (stats) {
        stats->jobs += n;
        stats->simulations += simulations.load();
        stats->cacheHits += cacheHits.load();
        stats->steals += steals.load();
    }

    ResultSet set;
    set.results() = std::move(slots);
    set.sortByKey();
    return set;
}

} // namespace liquid::lab
