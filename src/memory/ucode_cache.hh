/**
 * @file
 * Microcode cache: stores dynamically translated SIMD instruction
 * sequences, keyed by the entry address of the outlined scalar function
 * they replace (paper Figure 1 / Section 5 "Dynamic Translation
 * Requirements": 8 entries of 64 SIMD instructions, a 2 KB SRAM).
 */

#ifndef LIQUID_MEMORY_UCODE_CACHE_HH
#define LIQUID_MEMORY_UCODE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/decode.hh"
#include "isa/instruction.hh"

namespace liquid
{

/** One translated region. */
struct UcodeEntry
{
    Addr entryAddr = invalidAddr;   ///< outlined function entry
    std::vector<Inst> insts;        ///< SIMD microcode (self-contained)
    std::vector<ConstVec> cvecs;    ///< constants discovered at runtime
    unsigned simdWidth = 0;         ///< width the ucode was bound to
    Cycles readyAt = 0;             ///< first cycle it may be fetched
    /**
     * Exclusive end of the scalar code range the entry translates
     * ([entryAddr, codeEnd)), set by the translator at commit. Drives
     * self-modifying-code invalidation; invalidAddr means unknown and
     * the range degrades to the entry instruction alone.
     */
    Addr codeEnd = invalidAddr;
};

/**
 * A committed region: the entry plus its microcode, predecoded once
 * when the cache commits it and never changed after. The cache and a
 * core executing the region share it, so a flush, evict or replacement
 * in mid-region leaves the region in flight intact (the hardware's
 * microcode execution buffer). Copying out the UcodeEntry part drops
 * the ops, whose Inst pointers refer to this object's insts.
 */
struct DecodedUcode : UcodeEntry
{
    explicit DecodedUcode(UcodeEntry entry)
        : UcodeEntry(std::move(entry)), ops(decodeAll(insts))
    {
    }
    DecodedUcode(const DecodedUcode &) = delete;
    DecodedUcode &operator=(const DecodedUcode &) = delete;

    const std::vector<DecodedOp> ops;  ///< ops[i] decodes insts[i]
};

/** Geometry of the microcode cache. */
struct UcodeCacheConfig
{
    unsigned entries = 8;
    unsigned maxInsts = 64;
};

/** Fully associative LRU microcode cache. */
class UcodeCache
{
  public:
    explicit UcodeCache(const UcodeCacheConfig &config);

    /**
     * Insert a translated region, evicting the LRU entry when full.
     * panic()s if the entry exceeds maxInsts (the translator is
     * responsible for aborting oversized regions).
     */
    void insert(UcodeEntry entry);

    /**
     * Look up a region by entry address. Returns nullptr on miss or
     * when the entry is not yet ready at cycle @p now.
     * A hit refreshes LRU order.
     */
    const UcodeEntry *lookup(Addr entry_addr, Cycles now)
    {
        return fetch(entry_addr, now).get();
    }

    /**
     * lookup() for the core's dispatch path: the committed region
     * with its predecoded microcode, shared so the core can latch it.
     */
    std::shared_ptr<const DecodedUcode> fetch(Addr entry_addr,
                                              Cycles now);

    /** True if the address is present, ready or not. No LRU update. */
    bool contains(Addr entry_addr) const;

    /** Drop all entries (context switch). Counted in "flushes". */
    void flush();

    /**
     * Drop the entry translated from @p entry_addr, if present.
     * Returns true when an entry was removed.
     */
    bool invalidate(Addr entry_addr);

    /**
     * Drop every entry whose source code range [entryAddr, codeEnd)
     * overlaps [lo, hi) — the self-modifying-code protocol. Entries
     * with unknown codeEnd match on their entry instruction alone.
     * Returns the entry addresses removed.
     */
    std::vector<Addr> invalidateRange(Addr lo, Addr hi);

    /** Entry addresses currently resident, MRU first. */
    std::vector<Addr> entryAddrs() const;

    /** LRU victim's entry address; invalidAddr when empty. */
    Addr lruEntryAddr() const;

    /** Most recently used entry address; invalidAddr when empty. */
    Addr mruEntryAddr() const;

    /**
     * Copy another cache's entries, marking them ready immediately.
     * Models a processor with built-in ISA support for the regions
     * (the paper's Figure 6 callout eliminates control generation).
     */
    void warmStartFrom(const UcodeCache &other);

    const UcodeCacheConfig &config() const { return config_; }
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    UcodeCacheConfig config_;
    /** MRU-first list of entries. */
    std::list<std::shared_ptr<const DecodedUcode>> entries_;
    StatGroup stats_;

    /** Counters bumped by lookup() and insert(), bound on first use. */
    struct Counters
    {
        StatGroup::Counter lookups{"lookups"};
        StatGroup::Counter hits{"hits"};
        StatGroup::Counter misses{"misses"};
        StatGroup::Counter notReadyMisses{"notReadyMisses"};
        StatGroup::Counter inserts{"inserts"};
        StatGroup::Counter replacements{"replacements"};
        StatGroup::Counter evictions{"evictions"};
    } ctr_;
};

} // namespace liquid

#endif // LIQUID_MEMORY_UCODE_CACHE_HH
