/**
 * @file
 * Exact work counters of the static verifier over the suite: for every
 * workload's hinted Scalarized build (width 8), the range analysis's
 * fixpoint rounds, liquid-poly's dependence events and pairs examined,
 * and analyzeDeps' pairs examined over every distinct hinted region,
 * compared with the recorded tests/data/work_counters.json.
 *
 * These count work, not time, so they are exact on every host: a
 * change that makes a pass do more (or less) work shows up here even
 * when its verdicts stay the same.
 *
 * On a mismatch the test prints the whole computed file; a change that
 * moves a count on purpose pastes it into the data file and says why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "verifier/cfg.hh"
#include "verifier/depcheck.hh"
#include "verifier/poly.hh"
#include "verifier/range.hh"
#include "workloads/workload.hh"

#ifndef LIQUID_SOURCE_DIR
#define LIQUID_SOURCE_DIR "."
#endif

namespace liquid
{
namespace
{

/** {workload: {counter: n}} over the suite, plus a "total" row. */
json::Value
computeCounters()
{
    const TranslatorConfig config;
    std::map<std::string, std::uint64_t> totals;
    json::Value table = json::Value::object();
    for (const auto &wl : makeSuite()) {
        const Program prog =
            wl->build(EmitOptions::Mode::Scalarized, 8, true).prog;
        std::map<std::string, std::uint64_t> counts;
        counts["range.rounds"] = solveProgramRanges(prog).rounds;
        for (const HintedCall &call : prog.hintedCalls()) {
            const PolyRegion poly = analyzePoly(prog, call.target, config);
            counts["poly.dep_events"] += poly.deps.events.size();
            counts["poly.pairsExamined"] += poly.pairsExamined;
            counts["depcheck.pairsExamined"] +=
                analyzeDeps(prog, call.target,
                            RegionCfg::build(prog, call.target))
                    .pairsExamined;
        }
        json::Value row = json::Value::object();
        for (const auto &[name, n] : counts) {
            row.set(name, n);
            totals[name] += n;
        }
        table.set(wl->name(), std::move(row));
    }
    json::Value total = json::Value::object();
    for (const auto &[name, n] : totals)
        total.set(name, n);
    table.set("total", std::move(total));
    return table;
}

TEST(WorkCounters, SuiteMatchesRecordedCounts)
{
    const json::Value computed = computeCounters();
    ASSERT_EQ(computed.members().size(), 16u);

    std::ifstream in(std::string(LIQUID_SOURCE_DIR) +
                     "/tests/data/work_counters.json");
    std::ostringstream text;
    text << in.rdbuf();
    const json::Value recorded =
        in ? json::parse(text.str()) : json::Value::object();
    EXPECT_EQ(recorded.kind() == json::Value::Kind::Object
                  ? recorded.members().size()
                  : 0u,
              computed.members().size())
        << "tests/data/work_counters.json is missing, short or long";
    for (const auto &[workload, row] : computed.members()) {
        const json::Value *want = recorded.find(workload);
        for (const auto &[counter, value] : row.members()) {
            const json::Value *n = want ? want->find(counter) : nullptr;
            EXPECT_TRUE(n && n->isNumber() && n->asUint() == value.asUint())
                << workload << ' ' << counter << ": computed "
                << value.asUint() << ", recorded "
                << (n ? n->toString() : "nothing");
        }
    }

    // A deliberate change pastes this into the data file.
    if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "computed tests/data/work_counters.json:\n"
                      << computed.toString() << '\n';
    }
}

} // namespace
} // namespace liquid
