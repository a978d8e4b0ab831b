#include "lab/counter_map.hh"

#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>

#include "common/logging.hh"

namespace liquid::lab
{

namespace
{

/**
 * The interned copy of a sorted name list: equal lists always yield the
 * same object, valid for the rest of the process. std::set nodes never
 * move and the table only grows, so views into its strings stay valid;
 * it is guarded by a mutex, so any thread may intern.
 */
const std::vector<std::string> *
internNames(std::vector<std::string> names)
{
    static std::mutex mutex;
    static std::set<std::vector<std::string>> table;
    const std::lock_guard<std::mutex> lock(mutex);
    return &*table.insert(std::move(names)).first;
}

} // namespace

std::size_t
CounterMap::lowerBound(std::string_view name) const
{
    if (!names_)
        return 0;
    return static_cast<std::size_t>(
        std::lower_bound(names_->begin(), names_->end(), name,
                         [](const std::string &a, std::string_view b) {
                             return std::string_view(a) < b;
                         }) -
        names_->begin());
}

CounterMap::const_iterator
CounterMap::find(std::string_view name) const
{
    const std::size_t i = lowerBound(name);
    return i < size() && (*names_)[i] == name ? const_iterator(this, i)
                                              : end();
}

const std::uint64_t &
CounterMap::at(std::string_view name) const
{
    const const_iterator it = find(name);
    if (it == end())
        throw std::out_of_range("CounterMap::at: no counter '" +
                                std::string(name) + "'");
    return values_[it.index_];
}

std::uint64_t &
CounterMap::operator[](std::string_view name)
{
    const std::size_t i = lowerBound(name);
    if (i < size() && (*names_)[i] == name)
        return values_[i];
    Names names = names_ ? *names_ : Names{};
    names.insert(names.begin() + static_cast<std::ptrdiff_t>(i),
                 std::string(name));
    names_ = internNames(std::move(names));
    return *values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i),
                           0);
}

void
CounterMap::assign(std::vector<std::pair<std::string, std::uint64_t>> entries)
{
    std::sort(entries.begin(), entries.end());
    for (std::size_t i = 1; i < entries.size(); ++i) {
        LIQUID_ASSERT(entries[i - 1].first != entries[i].first,
                      "duplicate counter '", entries[i].first, "'");
    }
    Names names;
    names.reserve(entries.size());
    values_.clear();
    values_.reserve(entries.size());
    for (auto &[name, value] : entries) {
        names.push_back(std::move(name));
        values_.push_back(value);
    }
    names_ = entries.empty() ? nullptr : internNames(std::move(names));
}

} // namespace liquid::lab
