/**
 * @file
 * The shared input and report code of the static-analysis tools
 * (liquid-verify, -scan, -proof, -range and -poly), header-only. Each
 * tool keeps its option table, its analysis call, its row writers and
 * its own extra sources and gates.
 */

#ifndef LIQUID_TOOLS_ANALYSIS_HH
#define LIQUID_TOOLS_ANALYSIS_HH

#include <cstddef>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hh"
#include "common/json.hh"
#include "workloads/workload.hh"

namespace liquid::cli
{

/** One input mode of a tool and whether the command line gave it. */
struct InputMode
{
    const char *usage;  ///< as usage errors spell it: "--random N"
    bool given;
};

/** Each analyzed program's name and the tool's result for it. */
template <typename Result>
using Results = std::vector<std::pair<std::string, Result>>;

/** One run of a static-analysis tool: its input and its report frame. */
class Analysis
{
  public:
    /**
     * The input rule: a run takes program.s or one of @p modes
     * (--suite, --sabotage, --random N). A file with a mode, or
     * neither, is a UsageError. @p schema and @p version tag the JSON
     * report.
     */
    Analysis(const Parsed &p, std::initializer_list<InputMode> modes,
             const char *schema, const char *version, bool json)
        : schema_(schema), version_(version), json_(json)
    {
        std::string expected = "program.s";
        const InputMode *given = nullptr;
        for (const InputMode &m : modes) {
            expected += &m == modes.end() - 1 ? " or " : ", ";
            expected += m.usage;
            if (m.given && !given)
                given = &m;
        }
        if (!given && p.positional.empty())
            throw UsageError("expected " + expected);
        if (given && !p.positional.empty()) {
            const std::string mode = given->usage;
            throw UsageError(mode.substr(0, mode.find(' ')) +
                             " does not take an input file");
        }
        if (!given)
            file_ = p.positional.front();
    }

    /**
     * Append @p fn(program) to @p out for each program of the run,
     * under its name: with @p suite, every suite workload scalarized at
     * @p width, with or without scalarizer hints; else the program.s
     * file; else none.
     */
    template <typename Result, typename Analyze>
    void
    analyze(bool suite, unsigned width, bool hinted, Results<Result> &out,
            Analyze fn) const
    {
        if (suite) {
            for (const auto &wl : makeSuite()) {
                const Workload::Build build = wl->build(
                    EmitOptions::Mode::Scalarized, width, hinted);
                out.emplace_back(wl->name(), fn(build.prog));
            }
        } else if (!file_.empty()) {
            out.emplace_back(file_, fn(readProgram(file_)));
        }
    }

    /**
     * A text report on a file with no hinted region is the one line
     * "no hinted regions found"; true when it printed it.
     */
    bool
    noHintedRegions(std::size_t regions) const
    {
        if (file_.empty() || regions > 0 || json_)
            return false;
        std::cout << "no hinted regions found\n";
        return true;
    }

    /** A suite program's text rows start with its "== name" header. */
    void
    header(const std::string &name) const
    {
        if (file_.empty())
            std::cout << "== " << name << '\n';
    }

    /** The JSON report's envelope, tagged with the tool's schema. */
    json::Value report() const { return json::toolReport(schema_, version_); }

  private:
    std::string file_;  ///< program.s; empty under a mode
    const char *schema_;
    const char *version_;
    bool json_;
};

} // namespace liquid::cli

#endif // LIQUID_TOOLS_ANALYSIS_HH
