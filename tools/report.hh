/**
 * @file
 * Report blocks shared by the static-analysis tools: printing a JSON
 * report, JSON arrays of rows, the --sabotage self-test and the
 * pass/fail gate that ends a liquid-range or liquid-poly run.
 */

#ifndef LIQUID_TOOLS_REPORT_HH
#define LIQUID_TOOLS_REPORT_HH

#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace liquid::cli
{

/** Print a finished JSON report on stdout, with a blank line after it. */
inline void
printReport(const json::Value &report)
{
    std::cout << report.toString() << '\n';
}

/** A JSON array of @p fn(item) for each of @p items. */
template <typename Items, typename Fn>
json::Value
jsonArray(const Items &items, Fn fn)
{
    json::Value arr = json::Value::array();
    for (const auto &item : items)
        arr.push(fn(item));
    return arr;
}

/** A JSON array of @p items (strings or numbers) as they are. */
template <typename Items>
json::Value
jsonArray(const Items &items)
{
    return jsonArray(items,
                     [](const auto &item) { return json::Value(item); });
}

/** One seeded mutation of a --sabotage self-test. */
struct SabotageRun
{
    const char *name;
    unsigned mode;       ///< the tool's sabotage bit(s)
    bool caught = false;
    std::string detail;  ///< where it was caught
};

/**
 * Print the self-test: @p report, the tool's JSON envelope, with
 * {sabotage: [{mutation, caught, detail}], allCaught}, or a "name:
 * caught (detail)"/"NOT CAUGHT" line per mutation and a verdict. It
 * passes when @p honest (the unmutated analysis was clean) and every
 * mutation was caught: exit status 0.
 */
inline int
reportSabotage(json::Value report, const std::vector<SabotageRun> &runs,
               bool asJson, bool honest = true)
{
    bool all = honest;
    json::Value arr = json::Value::array();
    for (const SabotageRun &r : runs) {
        all = all && r.caught;
        if (asJson) {
            json::Value j = json::Value::object();
            j.set("mutation", r.name);
            j.set("caught", r.caught);
            j.set("detail", r.detail);
            arr.push(std::move(j));
        } else {
            std::cout << r.name << ": "
                      << (r.caught ? "caught" : "NOT CAUGHT");
            if (r.caught)
                std::cout << " (" << r.detail << ")";
            std::cout << '\n';
        }
    }
    if (asJson) {
        report.set("sabotage", std::move(arr));
        report.set("allCaught", all);
        printReport(report);
    } else {
        std::cout << (all ? "all mutations caught\n"
                          : "SELF-TEST FAILED\n");
    }
    return all ? 0 : 1;
}

/** The pass/fail gate that ends a run: one line per failed check. */
class Gate
{
  public:
    void fail(std::string why) { failures_.push_back(std::move(why)); }

    /**
     * End the run: print @p report, the tool's JSON report, with
     * "gate": {passed, failures} added, or one "GATE: why" line per
     * failure and "passed" or "FAILED". Exit status 0 when every check
     * passed, 1 otherwise.
     */
    int
    finish(json::Value report, bool asJson) const
    {
        if (asJson) {
            json::Value gate = json::Value::object();
            gate.set("passed", failures_.empty());
            gate.set("failures", jsonArray(failures_));
            report.set("gate", std::move(gate));
            printReport(report);
        } else {
            for (const std::string &s : failures_)
                std::cout << "GATE: " << s << '\n';
            std::cout << (failures_.empty() ? "passed\n" : "FAILED\n");
        }
        return failures_.empty() ? 0 : 1;
    }

  private:
    std::vector<std::string> failures_;
};

} // namespace liquid::cli

#endif // LIQUID_TOOLS_REPORT_HH
