/**
 * @file
 * Exact work counters of the static verifier over the suite: for every
 * workload's hinted Scalarized build (width 8), the range analysis's
 * fixpoint rounds, liquid-poly's dependence events and pairs examined,
 * and analyzeDeps' pairs examined over every distinct hinted region;
 * and at `liquid-proof --suite`'s settings (width-16 build, default
 * ProofOptions), the prover's obligations, enumeration points, terms
 * interned and tape ops evaluated over every region and width. The
 * simulator half counts, per workload at width 8, the functional
 * tier's retires, decoded blocks and decoded instructions for the
 * Scalarized build (scalar baseline) and the Native build, and the
 * cycle core's retires with the translator's commits and aborts in
 * Liquid mode. All are compared with the recorded
 * tests/data/work_counters.json.
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
#include "fast/fast.hh"
#include "sim/system.hh"
#include "verifier/cfg.hh"
#include "verifier/depcheck.hh"
#include "verifier/poly.hh"
#include "verifier/proof.hh"
#include "verifier/range.hh"
#include "workloads/workload.hh"

#ifndef LIQUID_SOURCE_DIR
#define LIQUID_SOURCE_DIR "."
#endif

namespace liquid
{
namespace
{

/**
 * Run @p prog to halt on the functional tier with @p width lanes and
 * add its dispatch counters to @p counts under "fast.<tag>.".
 */
void
countFunctional(const Program &prog, unsigned width, const std::string &tag,
                std::map<std::string, std::uint64_t> &counts)
{
    fast::FastConfig config;
    config.simdWidth = width;
    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastInterp interp(config, prog, mem);
    interp.run();
    StatGroup &stats = interp.stats();
    for (const char *name : {"insts", "blocksDecoded", "decodedInsts"})
        counts["fast." + tag + '.' + name] = stats.get(name);
}

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
        countFunctional(prog, 0, "scalarized", counts);
        countFunctional(wl->build(EmitOptions::Mode::Native, 8).prog, 8,
                        "native", counts);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), prog);
        sys.run();
        counts["liquid.core.insts"] = sys.core().stats().get("insts");
        counts["liquid.translator.translations"] =
            sys.translator().stats().get("translations");
        counts["liquid.translator.aborts"] =
            sys.translator().stats().get("aborts");
        for (const HintedCall &call : prog.hintedCalls()) {
            const PolyRegion poly = analyzePoly(prog, call.target, config);
            counts["poly.dep_events"] += poly.deps.events.size();
            counts["poly.pairsExamined"] += poly.pairsExamined;
            counts["depcheck.pairsExamined"] +=
                analyzeDeps(prog, call.target,
                            RegionCfg::build(prog, call.target))
                    .pairsExamined;
        }
        const Program wide =
            wl->build(EmitOptions::Mode::Scalarized, 16, true).prog;
        for (const RegionProof &rp : proveProgram(wide, {}).regions) {
            for (const WidthProof &wp : rp.widths) {
                counts["proof.obligations"] += wp.obligations;
                counts["proof.enum_points"] += wp.enumPoints;
                counts["proof.terms"] += wp.terms;
                counts["proof.tape_ops"] += wp.tapeOps;
            }
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
