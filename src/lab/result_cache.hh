/**
 * @file
 * Content-addressed on-disk result cache for the lab runner.
 *
 * A job's cache key is a 128-bit hash over everything that determines
 * its outcome: the built program (disassembly, data image, constant
 * pool, symbols), the complete SystemConfig, the job's execution
 * procedure (single run vs warm-started ideal run) and the
 * repo-declared lab::modelVersion. Re-running a matrix therefore only
 * simulates configurations whose inputs actually changed; results are
 * stored as one JSON file per key, shareable across experiments that
 * happen to request identical simulations.
 */

#ifndef LIQUID_LAB_RESULT_CACHE_HH
#define LIQUID_LAB_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "lab/lab.hh"
#include "lab/results.hh"

namespace liquid::lab
{

/**
 * Stable content hash of one job's simulation inputs. @p build must be
 * the exact Build the job would run.
 */
std::string contentHash(const Job &job, const Workload::Build &build,
                        const SystemConfig &config);

/** On-disk cache; an empty directory string disables it. */
class ResultCache
{
  public:
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Look up a previously stored outcome. An entry that does not
     * parse, or whose stored hash is not @p hash, is a miss and is
     * counted in discarded().
     */
    std::optional<RunOutcome> load(const std::string &hash) const;

    /** Entries load() found but could not use. */
    std::uint64_t
    discarded() const
    {
        return discarded_.load(std::memory_order_relaxed);
    }

    /** Persist an outcome under its content hash. */
    void store(const std::string &hash, const Job &job,
               const RunOutcome &outcome) const;

  private:
    std::string path(const std::string &hash) const;

    std::string dir_;
    mutable std::atomic<std::uint64_t> discarded_{0};
};

} // namespace liquid::lab

#endif // LIQUID_LAB_RESULT_CACHE_HH
