/**
 * @file
 * Report blocks shared by liquid-range and liquid-poly: the --sabotage
 * self-test and the pass/fail gate that ends a run.
 */

#ifndef LIQUID_TOOLS_REPORT_HH
#define LIQUID_TOOLS_REPORT_HH

#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace liquid::cli
{

/** One seeded mutation of a --sabotage self-test. */
struct SabotageRun
{
    const char *name;
    unsigned mode;       ///< the tool's sabotage bit(s)
    bool caught = false;
    std::string detail;  ///< where it was caught
};

/**
 * Print the self-test: the JSON report {sabotage: [{mutation, caught,
 * detail}], allCaught}, or a "name: caught (detail)"/"NOT CAUGHT" line
 * per mutation and a verdict. It passes when @p honest (the unmutated
 * analysis was clean) and every mutation was caught: exit status 0.
 */
inline int
reportSabotage(const char *schema, const char *toolVersion,
               const std::vector<SabotageRun> &runs, bool asJson,
               bool honest = true)
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
        json::Value root = json::toolReport(schema, toolVersion);
        root.set("sabotage", std::move(arr));
        root.set("allCaught", all);
        std::cout << root.toString() << '\n';
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

    /** Set "gate": {passed, failures} on a JSON report. */
    void
    addTo(json::Value &report) const
    {
        json::Value gate = json::Value::object();
        gate.set("passed", failures_.empty());
        json::Value fails = json::Value::array();
        for (const std::string &s : failures_)
            fails.push(s);
        gate.set("failures", std::move(fails));
        report.set("gate", std::move(gate));
    }

    /** One "GATE: why" line per failure, then "passed" or "FAILED". */
    void
    print() const
    {
        for (const std::string &s : failures_)
            std::cout << "GATE: " << s << '\n';
        std::cout << (failures_.empty() ? "passed\n" : "FAILED\n");
    }

    /** The exit status: 0 when every check passed, 1 otherwise. */
    int exitStatus() const { return failures_.empty() ? 0 : 1; }

  private:
    std::vector<std::string> failures_;
};

} // namespace liquid::cli

#endif // LIQUID_TOOLS_REPORT_HH
