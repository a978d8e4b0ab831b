/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries: run a
 * workload under a mode/width, collect cycles and stats, and format
 * aligned tables.
 */

#ifndef LIQUID_BENCH_BENCH_UTIL_HH
#define LIQUID_BENCH_BENCH_UTIL_HH

#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lab/lab.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace liquid::bench
{

/** Cycles of the paper's baseline: inline scalar, no accelerator. */
inline Cycles
baselineCycles(const Workload &wl)
{
    const auto build = wl.build(EmitOptions::Mode::InlineScalar);
    return lab::runOnce(build,
                        SystemConfig::make(ExecMode::ScalarBaseline))
        .cycles;
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::pair<std::string, int>> columns)
        : columns_(std::move(columns))
    {
    }

    void
    header(std::ostream &os) const
    {
        std::size_t i = 0;
        std::size_t total = 0;
        for (const auto &[name, width] : columns_) {
            emitCell(os, i++, name);
            total += static_cast<std::size_t>(
                width < 0 ? -width : width);
        }
        os << '\n' << std::string(total, '-') << '\n';
    }

    template <typename... Cells>
    void
    row(std::ostream &os, const Cells &...cells) const
    {
        std::size_t i = 0;
        (emitCell(os, i++, cells), ...);
        os << '\n';
    }

  private:
    /** Negative widths left-align. */
    template <typename Cell>
    void
    emitCell(std::ostream &os, std::size_t i, const Cell &cell) const
    {
        const int width = columns_[i].second;
        if (width < 0)
            os << std::left << std::setw(-width) << cell << std::right;
        else
            os << std::setw(width) << cell;
    }

    std::vector<std::pair<std::string, int>> columns_;
};

/** Format a double with fixed precision. */
inline std::string
fmt(double value, int precision = 2)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

} // namespace liquid::bench

#endif // LIQUID_BENCH_BENCH_UTIL_HH
