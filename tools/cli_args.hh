/**
 * @file
 * The command-line tools' one option parser (header-only).
 *
 * Each tool declares its options once, as a table of Option rows: the
 * spellings, a typed target and one help sentence. parse() walks the
 * command line against that table (after an optional leading
 * subcommand), printHelp() prints it, and runTool() turns any bad
 * token, and any error the tool body throws, into one line on stderr
 * and exit status 2.
 */

#ifndef LIQUID_TOOLS_CLI_ARGS_HH
#define LIQUID_TOOLS_CLI_ARGS_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "fast/tier.hh"

namespace liquid::cli
{

/** A malformed command line; runTool() prints it and exits 2. */
class UsageError : public std::runtime_error
{
  public:
    explicit UsageError(const std::string &msg) : std::runtime_error(msg)
    {
    }
};

/** Split a comma list into its fields; empty fields are kept. */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(list.substr(pos));
            return out;
        }
        out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
}

// ---- value parsers: true on success; @p out is untouched on failure -----

/**
 * An unsigned integer no larger than @p max: the whole string, decimal
 * or 0x hex, with no sign, space or trailing junk.
 */
inline bool
parseUnsigned(const std::string &text, std::uint64_t max,
              std::uint64_t &out)
{
    const bool hex =
        text.size() > 2 && text[0] == '0' && (text[1] | 0x20) == 'x';
    const std::uint64_t base = hex ? 16 : 10;
    std::size_t i = hex ? 2 : 0;
    if (i == text.size())
        return false;
    std::uint64_t v = 0;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (hex && (c | 0x20) >= 'a' && (c | 0x20) <= 'f')
            digit = static_cast<std::uint64_t>((c | 0x20) - 'a' + 10);
        else
            return false;
        if (v > (max - digit) / base)
            return false;
        v = v * base + digit;
    }
    out = v;
    return true;
}

/** A finite, non-negative decimal real: the whole string, no sign. */
inline bool
parseReal(const std::string &text, double &out)
{
    if (text.empty() || !(std::isdigit(static_cast<unsigned char>(
                              text[0])) ||
                          text[0] == '.'))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** One SIMD width: 2, 4, 8 or 16. */
inline bool
parseWidth(const std::string &text, unsigned &out)
{
    for (const unsigned w : {2u, 4u, 8u, 16u}) {
        if (text == std::to_string(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

/**
 * Parse every field of a comma list with @p one(field, value); false,
 * with @p out untouched, when any field does not parse.
 */
template <typename T, typename One>
bool
parseList(const std::string &list, std::vector<T> &out, One one)
{
    std::vector<T> values;
    for (const std::string &field : splitList(list)) {
        T value{};
        if (!one(field, value))
            return false;
        values.push_back(value);
    }
    out = std::move(values);
    return true;
}

// ---- option table -------------------------------------------------------

/** One row of a tool's option table. */
struct Option
{
    std::vector<std::string> names;  ///< spellings, e.g. {"-w", "--width"}
    std::string meta;                ///< value placeholder; empty = a flag
    std::string help;                ///< one sentence for --help
    /** Store a value (empty for a flag); false when it is malformed. */
    std::function<bool(const std::string &)> store;
    std::string expected;            ///< what a malformed value lacked
};

/** A flag: sets @p target to @p value. */
inline Option
flag(std::vector<std::string> names, bool &target, std::string help,
     bool value = true)
{
    return {std::move(names), "", std::move(help),
            [&target, value](const std::string &) {
                target = value;
                return true;
            },
            ""};
}

/** Any string. */
inline Option
text(std::vector<std::string> names, std::string meta,
     std::string &target, std::string help)
{
    return {std::move(names), std::move(meta), std::move(help),
            [&target](const std::string &v) {
                target = v;
                return true;
            },
            ""};
}

/** A comma list of strings (splitList). */
inline Option
list(std::vector<std::string> names, std::string meta,
     std::vector<std::string> &target, std::string help)
{
    return {std::move(names), std::move(meta), std::move(help),
            [&target](const std::string &v) {
                target = splitList(v);
                return true;
            },
            ""};
}

/** One SIMD width. */
inline Option
width(std::vector<std::string> names, unsigned &target, std::string help)
{
    return {std::move(names), "N", std::move(help),
            [&target](const std::string &v) {
                return parseWidth(v, target);
            },
            "2, 4, 8 or 16"};
}

/** A comma list of SIMD widths. */
inline Option
widths(std::vector<std::string> names, std::vector<unsigned> &target,
       std::string help)
{
    return {std::move(names), "LIST", std::move(help),
            [&target](const std::string &v) {
                return parseList(v, target, parseWidth);
            },
            "a comma list of 2, 4, 8 or 16"};
}

/** An unsigned integer that fits @p target's type. */
template <typename T>
Option
number(std::vector<std::string> names, std::string meta, T &target,
       std::string help)
{
    static_assert(std::is_unsigned_v<T>, "number() takes unsigned types");
    return {std::move(names), std::move(meta), std::move(help),
            [&target](const std::string &v) {
                std::uint64_t n = 0;
                if (!parseUnsigned(v, std::numeric_limits<T>::max(), n))
                    return false;
                target = static_cast<T>(n);
                return true;
            },
            "an unsigned " +
                std::to_string(std::numeric_limits<T>::digits) +
                "-bit integer (decimal or 0x hex)"};
}

/** A finite, non-negative real. */
inline Option
real(std::vector<std::string> names, std::string meta, double &target,
     std::string help)
{
    return {std::move(names), std::move(meta), std::move(help),
            [&target](const std::string &v) {
                return parseReal(v, target);
            },
            "a finite non-negative number"};
}

/** A comma list of finite, positive reals. */
inline Option
reals(std::vector<std::string> names, std::string meta,
      std::vector<double> &target, std::string help)
{
    return {std::move(names), std::move(meta), std::move(help),
            [&target](const std::string &v) {
                return parseList(v, target,
                                 [](const std::string &f, double &d) {
                                     return parseReal(f, d) && d > 0;
                                 });
            },
            "a comma list of finite positive numbers"};
}

/** A fixed set of names, each standing for a value of type T. */
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

/** "a, b or c": the names of @p choices, for help and errors. */
template <typename T>
std::string
choiceNames(const Choices<T> &choices, const char *sep = ", ",
            const char *last = " or ")
{
    std::string out;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (i)
            out += i + 1 == choices.size() ? last : sep;
        out += choices[i].first;
    }
    return out;
}

/** The value @p choices gives the name @p name, if any. */
template <typename T>
bool
lookupChoice(const Choices<T> &choices, const std::string &name, T &out)
{
    for (const auto &[n, value] : choices) {
        if (n == name) {
            out = value;
            return true;
        }
    }
    return false;
}

/** One name from @p choices; the placeholder lists them all. */
template <typename T>
Option
choice(std::vector<std::string> names, T &target, Choices<T> choices,
       std::string help)
{
    std::string meta = choiceNames(choices, "|", "|");
    std::string expected = choiceNames(choices);
    return {std::move(names), std::move(meta), std::move(help),
            [&target, choices = std::move(choices)](const std::string &v) {
                return lookupChoice(choices, v, target);
            },
            std::move(expected)};
}

/** The execution tiers by name (--tier). */
inline Choices<fast::ExecTier>
tierChoices()
{
    Choices<fast::ExecTier> out;
    for (const auto t : {fast::ExecTier::Cycle, fast::ExecTier::Functional})
        out.emplace_back(fast::tierName(t), t);
    return out;
}

/** A comma list of names from @p choices. */
template <typename T>
Option
choiceList(std::vector<std::string> names, std::vector<T> &target,
           Choices<T> choices, std::string help)
{
    std::string expected =
        "a comma list of " + choiceNames(choices, ", ", " and ");
    return {std::move(names), "LIST", std::move(help),
            [&target, choices = std::move(choices)](const std::string &v) {
                return parseList(v, target,
                                 [&choices](const std::string &f, T &t) {
                                     return lookupChoice(choices, f, t);
                                 });
            },
            std::move(expected)};
}

/** A subcommand, or the whole tool when it has none. */
struct Command
{
    std::string name;          ///< subcommand word; empty for none
    /** Usage after the tool (and command) name; '\n' separates forms. */
    std::string synopsis;
    std::string help;               ///< what a subcommand does
    std::vector<Option> options;    ///< options only this command takes
    std::size_t maxPositional = 0;  ///< positional arguments accepted
};

/** A tool's whole command line. */
struct Tool
{
    std::string name;
    /** Its subcommands, or one unnamed Command when it has none. */
    std::vector<Command> commands;
    std::vector<Option> options;    ///< options every command takes
};

/** What parse() found. */
struct Parsed
{
    std::string command;                  ///< empty for no subcommand
    std::vector<std::string> positional;
    bool help = false;                    ///< -h/--help: nothing else read
    std::set<std::string> given;          ///< spellings of options seen

    bool has(const std::string &name) const { return given.count(name); }
};

/**
 * Parse @p args (argv without the program name) against @p tool,
 * storing every value into its row's target. Throws UsageError naming
 * the first bad token.
 */
inline Parsed
parse(const Tool &tool, const std::vector<std::string> &args)
{
    auto isHelp = [](const std::string &a) {
        return a == "-h" || a == "--help";
    };
    Parsed p;
    const Command *cmd = &tool.commands.front();
    std::size_t i = 0;
    if (!cmd->name.empty()) {
        std::string names;
        for (const Command &c : tool.commands)
            names += (names.empty() ? "" : ", ") + c.name;
        if (args.empty())
            throw UsageError("missing command (" + names + ")");
        if (isHelp(args[0])) {
            p.help = true;
            return p;
        }
        cmd = nullptr;
        for (const Command &c : tool.commands) {
            if (c.name == args[0])
                cmd = &c;
        }
        if (!cmd)
            throw UsageError("unknown command '" + args[0] + "' (" +
                             names + ")");
        p.command = args[0];
        i = 1;
    }
    auto find = [](const std::vector<Option> &table,
                   const std::string &name) -> const Option * {
        for (const Option &o : table) {
            for (const std::string &n : o.names) {
                if (n == name)
                    return &o;
            }
        }
        return nullptr;
    };
    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (isHelp(arg)) {
            p.help = true;
            return p;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (p.positional.size() >= cmd->maxPositional)
                throw UsageError("unexpected argument '" + arg + "'");
            p.positional.push_back(arg);
            continue;
        }
        const Option *opt = find(cmd->options, arg);
        if (!opt)
            opt = find(tool.options, arg);
        if (!opt)
            throw UsageError("unknown option '" + arg + "'");
        std::string value;
        if (!opt->meta.empty()) {
            if (i + 1 >= args.size())
                throw UsageError("missing value for " + arg);
            value = args[++i];
        }
        if (!opt->store(value))
            throw UsageError("bad " + arg + " '" + value +
                             "': expected " + opt->expected);
        p.given.insert(opt->names.begin(), opt->names.end());
    }
    return p;
}

/** The --help label of @p o: its spellings and value placeholder. */
inline std::string
optionLabel(const Option &o)
{
    std::string s;
    for (const std::string &n : o.names)
        s += (s.empty() ? "" : ", ") + n;
    return o.meta.empty() ? s : s + " " + o.meta;
}

/** Print @p rows with their help wrapped from @p column. */
inline void
printOptions(std::ostream &os, const std::vector<Option> &rows,
             std::size_t column)
{
    constexpr std::size_t lineWidth = 78;
    for (const Option &o : rows) {
        std::string line = "  " + optionLabel(o);
        if (line.size() + 2 > column) {
            os << line << '\n';
            line.clear();
        }
        std::istringstream words(o.help);
        std::string word;
        while (words >> word) {
            line.resize(std::max(line.size(), column), ' ');
            if (line.size() > column &&
                line.size() + 1 + word.size() > lineWidth) {
                os << line << '\n';
                line.assign(column, ' ');
            }
            if (line.size() > column)
                line += ' ';
            line += word;
        }
        os << line << '\n';
    }
}

/** --help: the synopsis or the subcommands, then every table row. */
inline void
printHelp(const Tool &tool, std::ostream &os)
{
    // One help column for the whole text, past the longest label that
    // leaves room for its help on the same line.
    std::size_t column = 0;
    auto widen = [&](const std::vector<Option> &rows) {
        for (const Option &o : rows) {
            if (optionLabel(o).size() <= 20)
                column = std::max(column, optionLabel(o).size() + 4);
        }
    };
    widen(tool.options);
    for (const Command &c : tool.commands)
        widen(c.options);

    if (tool.commands.front().name.empty()) {
        const char *lead = "usage: ";
        std::istringstream forms(tool.commands.front().synopsis);
        std::string form;
        while (std::getline(forms, form)) {
            os << lead << tool.name << ' ' << form << '\n';
            lead = "       ";
        }
    } else {
        std::vector<Option> commandRows;
        for (const Command &c : tool.commands)
            commandRows.push_back({{c.name}, c.synopsis, c.help, nullptr, ""});
        widen(commandRows);
        os << "usage: " << tool.name << " <command> [options]\n"
           << "commands:\n";
        printOptions(os, commandRows, column);
    }
    if (!tool.options.empty()) {
        os << "options:\n";
        printOptions(os, tool.options, column);
    }
    for (const Command &c : tool.commands) {
        if (c.options.empty())
            continue;
        os << (c.name.empty() ? "" : c.name + " ") << "options:\n";
        printOptions(os, c.options, column);
    }
}

/**
 * A tool's main(): parse the command line, print --help, or run
 * @p body(parsed). A usage error, or any exception @p body throws
 * (fatal(), panic(), a bad regex, ...), prints one line on stderr and
 * exits 2.
 */
template <typename Body>
int
runTool(const Tool &tool, int argc, char **argv, Body body)
{
    try {
        const Parsed p =
            parse(tool, std::vector<std::string>(argv + 1, argv + argc));
        if (p.help) {
            printHelp(tool, std::cout);
            return 0;
        }
        return body(p);
    } catch (const std::exception &e) {
        std::cerr << tool.name << ": " << e.what() << '\n';
        return 2;
    }
}

/** Read and assemble the program at @p path. */
inline Program
readProgram(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream source;
    source << in.rdbuf();
    return assemble(source.str());
}

} // namespace liquid::cli

#endif // LIQUID_TOOLS_CLI_ARGS_HH
