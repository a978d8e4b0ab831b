/**
 * @file
 * Flat, name-sorted counter snapshot for lab results.
 *
 * A RunOutcome keeps every counter of a finished simulation (about two
 * dozen per job) and a campaign keeps hundreds of outcomes, so the
 * snapshot is one vector of values instead of a std::map node per
 * counter. Names live in one process-wide intern table of sorted name
 * lists: every distinct list is stored once and owns its strings.
 * Outcomes of the same kind of job share one name list, so a snapshot
 * costs little more than its values.
 */

#ifndef LIQUID_LAB_COUNTER_MAP_HH
#define LIQUID_LAB_COUNTER_MAP_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace liquid::lab
{

/**
 * Counters sorted by name, with the part of the std::map interface
 * that result consumers use. Iteration order equals the order of a
 * std::map<std::string, std::uint64_t> holding the same names.
 */
class CounterMap
{
  public:
    using value_type = std::pair<std::string_view, std::uint64_t>;

    /** Forward iterator; dereferencing yields a (name, value) pair. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = CounterMap::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = value_type;

        /** it->second support for a by-value pair. */
        struct Arrow
        {
            value_type entry;
            const value_type *operator->() const { return &entry; }
        };

        const_iterator() = default;

        value_type
        operator*() const
        {
            return {std::string_view((*map_->names_)[index_]),
                    map_->values_[index_]};
        }

        Arrow operator->() const { return {**this}; }

        const_iterator &
        operator++()
        {
            ++index_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++index_;
            return old;
        }

        bool operator==(const const_iterator &other) const = default;

      private:
        friend class CounterMap;
        const_iterator(const CounterMap *map, std::size_t index)
            : map_(map), index_(index)
        {
        }

        const CounterMap *map_ = nullptr;
        std::size_t index_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, values_.size()}; }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    /** The entry named @p name, or end(). */
    const_iterator find(std::string_view name) const;

    std::size_t
    count(std::string_view name) const
    {
        return find(name) == end() ? 0 : 1;
    }

    /** Value of @p name; throws std::out_of_range when absent. */
    const std::uint64_t &at(std::string_view name) const;

    /**
     * Value of @p name, inserted at zero if absent. Each insertion
     * interns a new name list for the life of the process, so build
     * whole snapshots with assign().
     */
    std::uint64_t &operator[](std::string_view name);

    /**
     * Replace the contents with @p entries (any order, unique names).
     * One name-list lookup for the lot, where operator[] pays one per
     * inserted name.
     */
    void assign(std::vector<std::pair<std::string, std::uint64_t>> entries);

    bool
    operator==(const CounterMap &other) const
    {
        // Name lists are interned: equal lists are the same object.
        return names_ == other.names_ && values_ == other.values_;
    }

  private:
    using Names = std::vector<std::string>;

    /** Position of @p name in names_ (names_->size() when absent). */
    std::size_t lowerBound(std::string_view name) const;

    /** Interned sorted name list; null while empty. */
    const Names *names_ = nullptr;
    std::vector<std::uint64_t> values_;  ///< parallel to *names_
};

} // namespace liquid::lab

#endif // LIQUID_LAB_COUNTER_MAP_HH
