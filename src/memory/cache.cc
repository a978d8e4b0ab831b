#include "memory/cache.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace liquid
{

Cache::Cache(std::string name, const CacheConfig &config)
    : config_(config), stats_(std::move(name))
{
    LIQUID_ASSERT(isPowerOf2(config_.lineSize));
    const std::size_t num_lines = config_.sizeBytes / config_.lineSize;
    LIQUID_ASSERT(num_lines % config_.assoc == 0,
                  "cache size/assoc mismatch");
    numSets_ = static_cast<unsigned>(num_lines / config_.assoc);
    LIQUID_ASSERT(isPowerOf2(numSets_));
    lineShift_ = log2i(config_.lineSize);
    setShift_ = log2i(numSets_);
    sets_.resize(numSets_);
    tags_.resize(num_lines);
    lastUse_.resize(num_lines);
    dirty_.resize(num_lines);
}

bool
Cache::accessSlow(unsigned set, Addr tag, bool is_write)
{
    SetState &s = sets_[set];
    const std::size_t base = wayIndex(set, 0);
    for (unsigned w = 0; w < s.fill; ++w) {
        if (tags_[base + w] == tag) {
            touch(base + w, is_write);
            s.mru = w;
            return true;
        }
    }

    // Miss: fill the next free way, or evict the LRU one (the smallest
    // stamp; stamps are distinct, so the choice is unique).
    stats_.inc(ctr_.misses);
    unsigned victim = s.fill;
    if (s.fill < config_.assoc) {
        ++s.fill;
    } else {
        victim = 0;
        for (unsigned w = 1; w < config_.assoc; ++w) {
            if (lastUse_[base + w] < lastUse_[base + victim])
                victim = w;
        }
        stats_.inc(ctr_.evictions);
        if (dirty_[base + victim])
            stats_.inc(ctr_.writebacks);
    }
    const std::size_t i = base + victim;
    tags_[i] = tag;
    lastUse_[i] = useCounter_;
    dirty_[i] = is_write;
    s.mru = victim;
    return false;
}

unsigned
Cache::accessRange(Addr addr, unsigned bytes, bool is_write)
{
    unsigned misses = 0;
    const Addr first = addr >> lineShift_;
    const Addr last = (addr + bytes - 1) >> lineShift_;
    for (Addr line = first; line <= last; ++line) {
        if (!access(line << lineShift_, is_write))
            ++misses;
    }
    return misses;
}

void
Cache::publishCounts() const
{
    stats_.publish("accesses", counts_.accesses);
    stats_.publish("writes", counts_.writes);
    stats_.publish("hits", counts_.hits);
}

void
Cache::flush()
{
    for (auto &s : sets_)
        s = SetState{};
}

} // namespace liquid
