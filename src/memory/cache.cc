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
    lines_.resize(num_lines);
}

bool
Cache::access(Addr addr, bool is_write)
{
    ++useCounter_;
    stats_.inc(ctr_.accesses);
    if (is_write)
        stats_.inc(ctr_.writes);

    const Addr line_addr = addr / config_.lineSize;
    const unsigned set = line_addr & (numSets_ - 1);
    const Addr tag = line_addr >> log2i(numSets_);
    Line *ways = &lines_[static_cast<std::size_t>(set) * config_.assoc];

    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag) {
            ways[w].lastUse = useCounter_;
            ways[w].dirty = ways[w].dirty || is_write;
            stats_.inc(ctr_.hits);
            return true;
        }
    }

    // Miss: fill into LRU (or first invalid) way.
    stats_.inc(ctr_.misses);
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
        stats_.inc(ctr_.evictions);
        if (victim->dirty)
            stats_.inc(ctr_.writebacks);
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lastUse = useCounter_;
    return false;
}

unsigned
Cache::accessRange(Addr addr, unsigned bytes, bool is_write)
{
    unsigned misses = 0;
    const Addr first = addr / config_.lineSize;
    const Addr last = (addr + bytes - 1) / config_.lineSize;
    for (Addr line = first; line <= last; ++line) {
        if (!access(line * config_.lineSize, is_write))
            ++misses;
    }
    return misses;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

} // namespace liquid
