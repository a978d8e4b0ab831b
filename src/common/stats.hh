/**
 * @file
 * Tiny statistics registry, modelled loosely on gem5's stats package.
 * Components own named counters; a StatGroup can be dumped as text or
 * queried by tests and the benchmark harnesses.
 *
 * Cold paths bump a counter by name: stats.inc("flushes"). Hot paths
 * bind it once instead, as a StatGroup::Counter member of the owning
 * component, and bump it through the handle:
 *
 *   StatGroup stats_{"cache"};
 *   StatGroup::Counter hits_{"hits"};
 *   ...
 *   stats_.inc(hits_);   // one pointer bump after the first call
 *
 * The first bump looks the name up (creating the counter at zero) and
 * caches the map slot in the handle; later bumps add through that
 * pointer with no string building and no map search. Counters indexed
 * by an enum ("faults.<kind>", "abort.<reason>") use a
 * StatGroup::Family, which builds each member's name on its first
 * event only. Either way a counter still appears in counters() and
 * dump() only once it has been touched, exactly as with the by-name
 * call.
 *
 * The hottest counts (one bump per simulated instruction or cache
 * access) are plain members of their component instead, folded in by
 * publish() when the component's stats are read: a bump through a
 * slot is a store the compiler must assume may alias the component's
 * other 64-bit state, which costs the simulators ~10% each.
 *
 * A handle caches a pointer to a std::map node. Nodes never move and
 * StatGroup never erases them (reset() zeroes in place), and moving a
 * StatGroup transfers its nodes, so a component that moves its group
 * together with its handles keeps every handle valid. A handle must
 * always be passed to the same group.
 */

#ifndef LIQUID_COMMON_STATS_HH
#define LIQUID_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace liquid
{

/**
 * A named bag of 64-bit counters with hierarchical dotted names.
 *
 * Every StatGroup is owned by exactly one component of one System —
 * there are deliberately no process-global groups, which is what makes
 * it safe for the lab runner to simulate many Systems concurrently.
 * The type is therefore move-only: copying a live group would alias
 * counters across owners; consumers that want a snapshot read the
 * counters() map or merge() into their own group.
 */
class StatGroup
{
  public:
    /** A counter bound by name; resolved on its first bump. */
    class Counter
    {
      public:
        explicit Counter(const char *name) : name_(name) {}

      private:
        friend class StatGroup;
        const char *name_;
        std::uint64_t *slot_ = nullptr;
    };

    /**
     * Counters "<prefix><nameOf(k)>" for every value k of an enum with
     * N values, each resolved on its first bump.
     */
    template <typename Enum, std::size_t N>
    class Family
    {
      public:
        using NameOf = const char *(*)(Enum);

        Family(const char *prefix, NameOf name_of)
            : prefix_(prefix), nameOf_(name_of)
        {
        }

      private:
        friend class StatGroup;
        const char *prefix_;
        NameOf nameOf_;
        std::array<std::uint64_t *, N> slots_{};
    };

    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;
    StatGroup(StatGroup &&) = default;
    StatGroup &operator=(StatGroup &&) = default;

    /** Add @p delta to counter @p stat (creates it at zero). */
    void
    inc(const std::string &stat, std::uint64_t delta = 1)
    {
        counters_[stat] += delta;
    }

    /** Add @p delta to the bound counter @p c (creates it at zero). */
    void
    inc(Counter &c, std::uint64_t delta = 1)
    {
        if (!c.slot_) [[unlikely]]
            c.slot_ = &resolve("", c.name_);
        *c.slot_ += delta;
    }

    /** Add @p delta to member @p k of family @p f. */
    template <typename Enum, std::size_t N>
    void
    inc(Family<Enum, N> &f, Enum k, std::uint64_t delta = 1)
    {
        std::uint64_t *&slot = f.slots_[static_cast<std::size_t>(k)];
        if (!slot) [[unlikely]]
            slot = &resolve(f.prefix_, f.nameOf_(k));
        *slot += delta;
    }

    /**
     * Fold in a count kept outside the group: set counter @p stat to
     * @p value once it is nonzero, so it appears exactly when a
     * counter bumped by one per event would have.
     */
    void
    publish(const char *stat, std::uint64_t value)
    {
        if (value)
            counters_[stat] = value;
    }

    /** Overwrite counter @p stat. */
    void
    set(const std::string &stat, std::uint64_t value)
    {
        counters_[stat] = value;
    }

    /** Read a counter; missing counters read as zero. */
    std::uint64_t
    get(const std::string &stat) const
    {
        auto it = counters_.find(stat);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Reset every counter to zero (names and bound handles stay). */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second = 0;
    }

    /**
     * Accumulate another group's counters into this one (suite-total
     * aggregation in the lab results layer). Counter names are merged;
     * the other group is not modified.
     */
    void
    merge(const StatGroup &other)
    {
        for (const auto &[stat, value] : other.counters_)
            counters_[stat] += value;
    }

    const std::string &name() const { return name_; }

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    /** Const-correct iteration: for (const auto &[stat, value] : g). */
    auto begin() const { return counters_.begin(); }
    auto end() const { return counters_.end(); }

    /** Dump "group.stat value" lines. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &kv : counters_)
            os << name_ << '.' << kv.first << ' ' << kv.second << '\n';
    }

  private:
    /**
     * The counter "<prefix><stat>", created at zero if absent. Kept out
     * of line so the handle bumps above stay small enough to inline.
     */
    [[gnu::noinline]] std::uint64_t &
    resolve(const char *prefix, const char *stat)
    {
        return counters_[std::string(prefix) + stat];
    }

    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace liquid

#endif // LIQUID_COMMON_STATS_HH
