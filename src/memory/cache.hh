/**
 * @file
 * Set-associative cache timing model with true-LRU replacement.
 *
 * The paper's ARM-926EJ-S configuration uses 16 KB, 64-way associative
 * instruction and data caches; this model is purely for timing (the
 * functional data lives in MainMemory) so it tracks tags only.
 *
 * Ways of a set become valid strictly in order (a miss fills the next
 * free way) and only flush() invalidates them, so the valid ways of a
 * set always form a prefix [0, fill). A lookup checks the set's most
 * recently used way first and otherwise scans only that prefix; a miss
 * takes the next free way while the set is not full, and the way with
 * the smallest last-use stamp once it is. Stamps come from one counter
 * bumped per access, so they are distinct and that way is exactly the
 * true-LRU victim: hit/miss order and every counter match a plain
 * linear scan of all ways (tests/cache_test.cc keeps one as an oracle).
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
    bool
    access(Addr addr, bool is_write)
    {
        ++useCounter_;
        ++counts_.accesses;
        counts_.writes += is_write;

        const Addr line_addr = addr >> lineShift_;
        const unsigned set = line_addr & (numSets_ - 1);
        const Addr tag = line_addr >> setShift_;
        const SetState &s = sets_[set];
        const std::size_t mru = wayIndex(set, s.mru);
        if (s.fill && tags_[mru] == tag) [[likely]] {
            touch(mru, is_write);
            return true;
        }
        return accessSlow(set, tag, is_write);
    }

    /**
     * Access every line covered by [addr, addr + bytes).
     * @return number of misses.
     */
    unsigned accessRange(Addr addr, unsigned bytes, bool is_write);

    /** Drop all contents (e.g. across independent simulations). */
    void flush();

    unsigned lineSize() const { return config_.lineSize; }
    unsigned numSets() const { return numSets_; }

    /** Counters; the per-access counts are folded in on each access. */
    const StatGroup &
    stats() const
    {
        publishCounts();
        return stats_;
    }
    StatGroup &
    stats()
    {
        publishCounts();
        return stats_;
    }

  private:
    /** Per-set state: valid ways are [0, fill); mru is one of them. */
    struct SetState
    {
        unsigned fill = 0;
        unsigned mru = 0;
    };

    std::size_t
    wayIndex(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * config_.assoc + way;
    }

    /** Record a hit on line @p i. */
    void
    touch(std::size_t i, bool is_write)
    {
        lastUse_[i] = useCounter_;
        dirty_[i] |= is_write;
        ++counts_.hits;
    }

    /** The MRU way missed: scan the set's valid prefix, fill on miss. */
    bool accessSlow(unsigned set, Addr tag, bool is_write);

    void publishCounts() const;

    CacheConfig config_;
    unsigned numSets_ = 0;
    unsigned lineShift_ = 0;  ///< log2(lineSize)
    unsigned setShift_ = 0;   ///< log2(numSets)
    std::vector<SetState> sets_;
    // Per line, set-major (numSets_ * assoc). Entries at or beyond a
    // set's fill are stale and never read.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useCounter_ = 0;
    /** Written by publishCounts() from const accessors too. */
    mutable StatGroup stats_;

    /** Per-access counts, folded into stats_ by stats() (stats.hh). */
    struct AccessCounts
    {
        std::uint64_t accesses = 0;
        std::uint64_t writes = 0;
        std::uint64_t hits = 0;
    } counts_;

    /** Counters bumped on misses, bound on first use. */
    struct Counters
    {
        StatGroup::Counter misses{"misses"};
        StatGroup::Counter evictions{"evictions"};
        StatGroup::Counter writebacks{"writebacks"};
    } ctr_;
};

} // namespace liquid

#endif // LIQUID_MEMORY_CACHE_HH
