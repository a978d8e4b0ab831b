#include "memory/ucode_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace liquid
{

UcodeCache::UcodeCache(const UcodeCacheConfig &config)
    : config_(config), stats_("ucodeCache")
{
    LIQUID_ASSERT(config_.entries >= 1);
}

void
UcodeCache::insert(UcodeEntry entry)
{
    LIQUID_ASSERT(entry.insts.size() <= config_.maxInsts,
                  "oversized microcode region must be aborted upstream");

    // Replace any stale translation of the same region.
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if ((*it)->entryAddr == entry.entryAddr) {
            entries_.erase(it);
            stats_.inc(ctr_.replacements);
            break;
        }
    }

    if (entries_.size() >= config_.entries) {
        entries_.pop_back();  // LRU lives at the tail
        stats_.inc(ctr_.evictions);
    }
    entries_.push_front(
        std::make_shared<const DecodedUcode>(std::move(entry)));
    stats_.inc(ctr_.inserts);
}

std::shared_ptr<const DecodedUcode>
UcodeCache::fetch(Addr entry_addr, Cycles now)
{
    stats_.inc(ctr_.lookups);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if ((*it)->entryAddr != entry_addr)
            continue;
        if ((*it)->readyAt > now) {
            stats_.inc(ctr_.notReadyMisses);
            return nullptr;
        }
        stats_.inc(ctr_.hits);
        entries_.splice(entries_.begin(), entries_, it);
        return entries_.front();
    }
    stats_.inc(ctr_.misses);
    return nullptr;
}

bool
UcodeCache::contains(Addr entry_addr) const
{
    for (const auto &e : entries_) {
        if (e->entryAddr == entry_addr)
            return true;
    }
    return false;
}

void
UcodeCache::flush()
{
    stats_.inc("flushes");
    stats_.inc("flushedEntries", entries_.size());
    entries_.clear();
}

bool
UcodeCache::invalidate(Addr entry_addr)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if ((*it)->entryAddr == entry_addr) {
            entries_.erase(it);
            stats_.inc("invalidations");
            return true;
        }
    }
    return false;
}

std::vector<Addr>
UcodeCache::invalidateRange(Addr lo, Addr hi)
{
    std::vector<Addr> removed;
    for (auto it = entries_.begin(); it != entries_.end();) {
        const Addr begin = (*it)->entryAddr;
        const Addr end = (*it)->codeEnd != invalidAddr
                             ? std::max((*it)->codeEnd, begin + 4)
                             : begin + 4;
        if (lo < end && hi > begin) {
            removed.push_back(begin);
            it = entries_.erase(it);
            stats_.inc("invalidations");
        } else {
            ++it;
        }
    }
    return removed;
}

std::vector<Addr>
UcodeCache::entryAddrs() const
{
    std::vector<Addr> addrs;
    addrs.reserve(entries_.size());
    for (const auto &e : entries_)
        addrs.push_back(e->entryAddr);
    return addrs;
}

Addr
UcodeCache::lruEntryAddr() const
{
    return entries_.empty() ? invalidAddr : entries_.back()->entryAddr;
}

Addr
UcodeCache::mruEntryAddr() const
{
    return entries_.empty() ? invalidAddr : entries_.front()->entryAddr;
}

void
UcodeCache::warmStartFrom(const UcodeCache &other)
{
    // Committed regions are immutable: commit a ready copy of each.
    entries_.clear();
    for (const auto &e : other.entries_) {
        UcodeEntry ready = *e;
        ready.readyAt = 0;
        entries_.push_back(
            std::make_shared<const DecodedUcode>(std::move(ready)));
    }
}

} // namespace liquid
