/** @file Set-associative cache model tests. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "memory/cache.hh"

namespace liquid
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 32 B lines = 256 B.
    CacheConfig config;
    config.sizeBytes = 256;
    config.assoc = 2;
    config.lineSize = 32;
    return config;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c("c", smallCache());
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101F, false));   // same line
    EXPECT_FALSE(c.access(0x1020, false));  // next line
    EXPECT_EQ(c.stats().get("misses"), 2u);
    EXPECT_EQ(c.stats().get("hits"), 2u);
}

TEST(Cache, LruEviction)
{
    Cache c("c", smallCache());
    // Three lines mapping to set 0 (line addr multiples of 4*32=128).
    EXPECT_FALSE(c.access(0 * 128, false));
    EXPECT_FALSE(c.access(8 * 128, false));
    EXPECT_TRUE(c.access(0 * 128, false));   // refresh line A
    EXPECT_FALSE(c.access(16 * 128, false)); // evicts line B (LRU)
    EXPECT_TRUE(c.access(0 * 128, false));
    EXPECT_FALSE(c.access(8 * 128, false));  // B was evicted
    EXPECT_EQ(c.stats().get("evictions"), 2u);
}

TEST(Cache, WritebackTracking)
{
    Cache c("c", smallCache());
    c.access(0 * 128, true);   // dirty
    c.access(8 * 128, false);
    c.access(16 * 128, false); // evicts dirty line A
    c.access(24 * 128, false); // evicts clean line B
    EXPECT_EQ(c.stats().get("writebacks"), 1u);
}

TEST(Cache, RangeAccessCountsLines)
{
    Cache c("c", smallCache());
    // 64 bytes spanning exactly two lines.
    EXPECT_EQ(c.accessRange(0x1000, 64, false), 2u);
    EXPECT_EQ(c.accessRange(0x1000, 64, false), 0u);
    // Unaligned range straddling a third line.
    EXPECT_EQ(c.accessRange(0x1010, 64, false), 1u);
}

TEST(Cache, FlushDropsContents)
{
    Cache c("c", smallCache());
    c.access(0x2000, false);
    EXPECT_TRUE(c.access(0x2000, false));
    c.flush();
    EXPECT_FALSE(c.access(0x2000, false));
}

TEST(Cache, PaperConfiguration)
{
    // The ARM-926EJ-S caches: 16 KB, 64-way, 32 B lines -> 8 sets.
    CacheConfig config;
    Cache c("dcache", config);
    EXPECT_EQ(c.numSets(), 8u);
    // 64 distinct lines mapping to one set all fit (64 ways).
    for (unsigned i = 0; i < 64; ++i)
        c.access(i * 8 * 32, false);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_TRUE(c.access(i * 8 * 32, false)) << i;
}

/**
 * Reference model: a plain true-LRU cache that scans every way of the
 * set on each lookup and again on a miss for the victim (an invalid way
 * first, else the least recently used). Cache must match it access for
 * access, in result and in all six counters.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : config_(config),
          numSets_(static_cast<unsigned>(config.sizeBytes /
                                         config.lineSize / config.assoc)),
          lines_(config.sizeBytes / config.lineSize)
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        ++useCounter_;
        ++accesses;
        if (is_write)
            ++writes;
        const Addr line_addr = addr / config_.lineSize;
        const unsigned set = line_addr % numSets_;
        const Addr tag = line_addr / numSets_;
        Line *ways = &lines_[static_cast<std::size_t>(set) * config_.assoc];
        for (unsigned w = 0; w < config_.assoc; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                ways[w].lastUse = useCounter_;
                ways[w].dirty = ways[w].dirty || is_write;
                ++hits;
                return true;
            }
        }
        ++misses;
        Line *victim = &ways[0];
        for (unsigned w = 0; w < config_.assoc; ++w) {
            if (!ways[w].valid) {
                victim = &ways[w];
                break;
            }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }
        if (victim->valid) {
            ++evictions;
            if (victim->dirty)
                ++writebacks;
        }
        *victim = Line{true, is_write, tag, useCounter_};
        return false;
    }

    unsigned
    accessRange(Addr addr, unsigned bytes, bool is_write)
    {
        unsigned n = 0;
        for (Addr line = addr / config_.lineSize;
             line <= (addr + bytes - 1) / config_.lineSize; ++line) {
            if (!access(line * config_.lineSize, is_write))
                ++n;
        }
        return n;
    }

    void
    flush()
    {
        for (auto &line : lines_)
            line = Line{};
    }

    std::uint64_t accesses = 0, writes = 0, hits = 0, misses = 0,
                  evictions = 0, writebacks = 0;

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
    std::vector<Line> lines_;
    std::uint64_t useCounter_ = 0;
};

void
expectSameCounters(const Cache &c, const RefCache &ref,
                   const std::string &where)
{
    const StatGroup &s = c.stats();
    ASSERT_EQ(s.get("accesses"), ref.accesses) << where;
    ASSERT_EQ(s.get("writes"), ref.writes) << where;
    ASSERT_EQ(s.get("hits"), ref.hits) << where;
    ASSERT_EQ(s.get("misses"), ref.misses) << where;
    ASSERT_EQ(s.get("evictions"), ref.evictions) << where;
    ASSERT_EQ(s.get("writebacks"), ref.writebacks) << where;
}

TEST(Cache, MatchesLinearScanLruOracle)
{
    std::uint64_t evictions = 0, flushes = 0, ranges = 0;
    for (unsigned assoc : {1u, 2u, 4u, 64u}) {
        for (std::size_t size : {256u, 4096u, 16384u, 262144u}) {
            for (unsigned line : {16u, 32u}) {
                const std::size_t lines = size / line;
                if (lines % assoc != 0)
                    continue;
                const CacheConfig config{size, assoc, line};
                Cache c("c", config);
                RefCache ref(config);
                Rng rng(size * 131 + assoc * 7 + line);
                // Addresses cover 3x the capacity: hits, conflict
                // misses and evictions in every set.
                const auto span = static_cast<std::int64_t>(3 * size);
                Addr prev = 0;
                for (unsigned i = 0; i < 20000; ++i) {
                    const std::string where =
                        "size " + std::to_string(size) + " assoc " +
                        std::to_string(assoc) + " line " +
                        std::to_string(line) + " step " +
                        std::to_string(i);
                    const std::int64_t roll = rng.range(0, 999);
                    const bool write = rng.range(0, 2) == 0;
                    if (roll == 0) {
                        c.flush();
                        ref.flush();
                        ++flushes;
                        continue;
                    }
                    // Half the stream stays near the previous access.
                    const Addr addr =
                        rng.range(0, 1)
                            ? static_cast<Addr>(rng.range(0, span - 1))
                            : static_cast<Addr>(
                                  prev + rng.range(0, 4 * line));
                    prev = addr;
                    if (roll < 100) {
                        const auto bytes = static_cast<unsigned>(
                            rng.range(1, 4 * line));
                        ASSERT_EQ(c.accessRange(addr, bytes, write),
                                  ref.accessRange(addr, bytes, write))
                            << where;
                        ++ranges;
                    } else {
                        ASSERT_EQ(c.access(addr, write),
                                  ref.access(addr, write))
                            << where;
                    }
                    expectSameCounters(c, ref, where);
                }
                evictions += ref.evictions;
            }
        }
    }
    // The streams did exercise eviction, flushing and ranges.
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(flushes, 0u);
    EXPECT_GT(ranges, 0u);
}

} // namespace
} // namespace liquid
