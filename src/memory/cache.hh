/**
 * @file
 * Set-associative cache timing model with true-LRU replacement.
 *
 * The paper's ARM-926EJ-S configuration uses 16 KB, 64-way associative
 * instruction and data caches; this model is purely for timing (the
 * functional data lives in MainMemory) so it tracks tags only.
 */

#ifndef LIQUID_MEMORY_CACHE_HH
#define LIQUID_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace liquid
{

/** Configuration for one cache. */
struct CacheConfig
{
    std::size_t sizeBytes = 16 * 1024;
    unsigned assoc = 64;
    unsigned lineSize = 32;
};

/** Tag-only set-associative LRU cache. */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config);

    /**
     * Look up (and allocate on miss) the line containing @p addr.
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write);

    /**
     * Access every line covered by [addr, addr + bytes).
     * @return number of misses.
     */
    unsigned accessRange(Addr addr, unsigned bytes, bool is_write);

    /** Drop all contents (e.g. across independent simulations). */
    void flush();

    unsigned lineSize() const { return config_.lineSize; }
    unsigned numSets() const { return numSets_; }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    CacheConfig config_;
    unsigned numSets_;
    std::vector<Line> lines_;  ///< numSets_ * assoc, set-major
    std::uint64_t useCounter_ = 0;
    StatGroup stats_;

    /** Counters bumped by every access, bound on first use. */
    struct Counters
    {
        StatGroup::Counter accesses{"accesses"};
        StatGroup::Counter writes{"writes"};
        StatGroup::Counter hits{"hits"};
        StatGroup::Counter misses{"misses"};
        StatGroup::Counter evictions{"evictions"};
        StatGroup::Counter writebacks{"writebacks"};
    } ctr_;
};

} // namespace liquid

#endif // LIQUID_MEMORY_CACHE_HH
