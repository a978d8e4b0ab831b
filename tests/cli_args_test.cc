/**
 * @file
 * The tools' shared option parser (tools/cli_args.hh), driven directly:
 * value grammar, table dispatch, usage errors and --help.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hh"

using namespace liquid;
using namespace liquid::cli;

namespace
{

/** Everything a test tool's table can set. */
struct Targets
{
    bool flag = false;
    bool on = true;
    std::string text;
    std::vector<std::string> list;
    unsigned width = 8;
    std::vector<unsigned> widths{2, 4, 8, 16};
    unsigned u32 = 7;
    std::uint64_t u64 = 7;
    double real = 1.5;
    std::vector<double> reals{200.0};
    int mode = 0;
    std::vector<int> modes;
};

/** A one-command tool with one row of every kind. */
Tool
singleTool(Targets &t)
{
    return {"demo",
            {{"", "[options] FILE", "", {}, 1}},
            {
                flag({"-f", "--flag"}, t.flag, "set a flag"),
                flag({"--off"}, t.on, "clear a flag", false),
                text({"--text"}, "S", t.text, "any string"),
                list({"--list"}, "LIST", t.list, "a comma list"),
                width({"-w", "--width"}, t.width, "one SIMD width"),
                widths({"--widths"}, t.widths, "SIMD widths"),
                number({"--u32"}, "N", t.u32, "a 32-bit count"),
                number({"--u64"}, "N", t.u64, "a 64-bit count"),
                real({"--real"}, "X", t.real, "a real"),
                reals({"--reals"}, "LIST", t.reals, "positive reals"),
                choice({"--mode"}, t.mode, {{"a", 1}, {"b", 2}},
                       "one name"),
                choiceList({"--modes"}, t.modes, {{"a", 1}, {"b", 2}},
                           "a list of names"),
            }};
}

/** Parse @p args against a fresh single-command tool. */
Parsed
parseSingle(Targets &t, const std::vector<std::string> &args)
{
    return parse(singleTool(t), args);
}

/** The UsageError message parse() throws for @p args. */
std::string
usageError(const std::vector<std::string> &args)
{
    Targets t;
    try {
        parseSingle(t, args);
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(CliArgs, UnsignedGrammar)
{
    const std::uint64_t u32max = 0xffffffffu;
    const std::uint64_t u64max = ~std::uint64_t{0};
    std::uint64_t v = 99;
    EXPECT_TRUE(parseUnsigned("0", u32max, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("4294967295", u32max, v));
    EXPECT_EQ(v, u32max);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", u64max, v));
    EXPECT_EQ(v, u64max);
    EXPECT_TRUE(parseUnsigned("0x10", u32max, v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseUnsigned("0XfF", u32max, v));
    EXPECT_EQ(v, 255u);
    EXPECT_TRUE(parseUnsigned("0xffffffff", u32max, v));
    EXPECT_EQ(v, u32max);
    EXPECT_TRUE(parseUnsigned("010", u32max, v));
    EXPECT_EQ(v, 10u) << "a leading zero is decimal, not octal";

    v = 99;
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "12x", "1.0", "1e3", "abc", "0x",
          "0xg", "0x-1", "4294967296", "0x100000000",
          "99999999999999999999"}) {
        EXPECT_FALSE(parseUnsigned(bad, u32max, v)) << '\'' << bad << '\'';
    }
    EXPECT_FALSE(parseUnsigned("18446744073709551616", u64max, v));
    EXPECT_FALSE(parseUnsigned("0x10000000000000000", u64max, v));
    EXPECT_EQ(v, 99u) << "a rejected value must not be stored";
}

TEST(CliArgs, RealGrammar)
{
    double v = -1;
    EXPECT_TRUE(parseReal("0", v));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(parseReal("2.5", v));
    EXPECT_EQ(v, 2.5);
    EXPECT_TRUE(parseReal(".5", v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(parseReal("1e3", v));
    EXPECT_EQ(v, 1000.0);

    v = -1;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "abc", "1.5x",
                            "inf", "nan", "1e999", "-0"}) {
        EXPECT_FALSE(parseReal(bad, v)) << '\'' << bad << '\'';
    }
    EXPECT_EQ(v, -1.0);
}

TEST(CliArgs, Widths)
{
    unsigned w = 0;
    for (const unsigned ok : {2u, 4u, 8u, 16u}) {
        EXPECT_TRUE(parseWidth(std::to_string(ok), w));
        EXPECT_EQ(w, ok);
    }
    for (const char *bad : {"", "0", "1", "3", "32", "08", "0x8", "8 "})
        EXPECT_FALSE(parseWidth(bad, w)) << '\'' << bad << '\'';

    std::vector<unsigned> ws{8};
    EXPECT_TRUE(parseList("16,2", ws, parseWidth));
    EXPECT_EQ(ws, (std::vector<unsigned>{16, 2}));
    for (const char *bad : {"", "4,", ",4", "4,,8", "4;8", "abc"})
        EXPECT_FALSE(parseList(bad, ws, parseWidth)) << '\'' << bad << '\'';
    EXPECT_EQ(ws, (std::vector<unsigned>{16, 2}));
}

TEST(CliArgs, TableStoresEveryKind)
{
    Targets t;
    const Parsed p = parseSingle(
        t, {"-f", "--off", "--text", "-x", "--list", "a,,b", "-w", "16",
            "--widths", "4,8", "--u32", "0x20", "--u64",
            "18446744073709551615", "--real", "0.25", "--reals", "1,2.5",
            "--mode", "b", "--modes", "b,a,b", "prog.s"});
    EXPECT_FALSE(p.help);
    EXPECT_TRUE(t.flag);
    EXPECT_FALSE(t.on);
    EXPECT_EQ(t.text, "-x") << "a value is taken even when it looks "
                               "like an option";
    EXPECT_EQ(t.list, (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(t.width, 16u);
    EXPECT_EQ(t.widths, (std::vector<unsigned>{4, 8}));
    EXPECT_EQ(t.u32, 32u);
    EXPECT_EQ(t.u64, ~std::uint64_t{0});
    EXPECT_EQ(t.real, 0.25);
    EXPECT_EQ(t.reals, (std::vector<double>{1.0, 2.5}));
    EXPECT_EQ(t.mode, 2);
    EXPECT_EQ(t.modes, (std::vector<int>{2, 1, 2}));
    EXPECT_EQ(p.positional, (std::vector<std::string>{"prog.s"}));
    EXPECT_TRUE(p.has("-w"));
    EXPECT_TRUE(p.has("--width")) << "every spelling counts as given";
    EXPECT_FALSE(p.has("--nope"));
}

TEST(CliArgs, BadValuesNameTheOption)
{
    EXPECT_EQ(usageError({"-w", "abc"}),
              "bad -w 'abc': expected 2, 4, 8 or 16");
    EXPECT_EQ(usageError({"--width", "3"}),
              "bad --width '3': expected 2, 4, 8 or 16");
    EXPECT_EQ(usageError({"--widths", "3"}),
              "bad --widths '3': expected a comma list of 2, 4, 8 or 16");
    EXPECT_EQ(usageError({"--u32", "-1"}),
              "bad --u32 '-1': expected an unsigned 32-bit integer "
              "(decimal or 0x hex)");
    EXPECT_EQ(usageError({"--u32", "4294967296"}),
              "bad --u32 '4294967296': expected an unsigned 32-bit "
              "integer (decimal or 0x hex)");
    EXPECT_EQ(usageError({"--u64", ""}),
              "bad --u64 '': expected an unsigned 64-bit integer "
              "(decimal or 0x hex)");
    EXPECT_EQ(usageError({"--u64", "12x"}),
              "bad --u64 '12x': expected an unsigned 64-bit integer "
              "(decimal or 0x hex)");
    EXPECT_EQ(usageError({"--real", "abc"}),
              "bad --real 'abc': expected a finite non-negative number");
    EXPECT_EQ(usageError({"--reals", "1,0"}),
              "bad --reals '1,0': expected a comma list of finite "
              "positive numbers");
    EXPECT_EQ(usageError({"--mode", "c"}),
              "bad --mode 'c': expected a or b");
    EXPECT_EQ(usageError({"--modes", "a,c"}),
              "bad --modes 'a,c': expected a comma list of a and b");
}

TEST(CliArgs, RejectedValueLeavesTargetAlone)
{
    Targets t;
    EXPECT_THROW(parseSingle(t, {"--u32", "5", "--u32", "x"}), UsageError);
    EXPECT_EQ(t.u32, 5u);
    EXPECT_THROW(parseSingle(t, {"--reals", "3,abc"}), UsageError);
    EXPECT_EQ(t.reals, (std::vector<double>{200.0}));
    EXPECT_THROW(parseSingle(t, {"--modes", "a,c"}), UsageError);
    EXPECT_TRUE(t.modes.empty());
}

TEST(CliArgs, MalformedCommandLines)
{
    EXPECT_EQ(usageError({"--u32"}), "missing value for --u32");
    EXPECT_EQ(usageError({"a.s", "-w"}), "missing value for -w");
    EXPECT_EQ(usageError({"--nope"}), "unknown option '--nope'");
    EXPECT_EQ(usageError({"--flag=1"}), "unknown option '--flag=1'");
    EXPECT_EQ(usageError({"a.s", "b.s"}), "unexpected argument 'b.s'");
    EXPECT_EQ(usageError({"-"}), "") << "a lone '-' is a positional";
}

TEST(CliArgs, HelpStopsParsing)
{
    for (const char *h : {"-h", "--help"}) {
        Targets t;
        const Parsed p = parseSingle(t, {"-f", h, "--nope", "-w", "x"});
        EXPECT_TRUE(p.help) << h;
        EXPECT_TRUE(t.flag);
    }
}

TEST(CliArgs, SubcommandDispatch)
{
    bool shared = false, onlyRun = false;
    unsigned n = 0;
    const Tool tool{"demo",
                    {
                        {"run", "[options]", "run it",
                         {flag({"--only-run"}, onlyRun, "run's own")}, 0},
                        {"diff", "A B", "compare",
                         {number({"-n"}, "N", n, "diff's own")}, 2},
                    },
                    {flag({"--shared"}, shared, "every command's")}};

    Parsed p = parse(tool, {"run", "--only-run", "--shared"});
    EXPECT_EQ(p.command, "run");
    EXPECT_TRUE(onlyRun);
    EXPECT_TRUE(shared);

    p = parse(tool, {"diff", "a", "-n", "3", "b"});
    EXPECT_EQ(p.command, "diff");
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(p.positional, (std::vector<std::string>{"a", "b"}));

    auto error = [&](const std::vector<std::string> &args) {
        try {
            parse(tool, args);
        } catch (const UsageError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(error({}), "missing command (run, diff)");
    EXPECT_EQ(error({"--shared"}), "unknown command '--shared' (run, diff)");
    EXPECT_EQ(error({"lint"}), "unknown command 'lint' (run, diff)");
    EXPECT_EQ(error({"run", "-n", "1"}), "unknown option '-n'")
        << "a command's options belong to it alone";
    EXPECT_EQ(error({"run", "x"}), "unexpected argument 'x'");
    EXPECT_EQ(error({"diff", "a", "b", "c"}), "unexpected argument 'c'");
    EXPECT_TRUE(parse(tool, {"--help"}).help);
    EXPECT_TRUE(parse(tool, {"diff", "-h"}).help);
}

TEST(CliArgs, HelpListsEveryRow)
{
    Targets t;
    const Tool tool = singleTool(t);
    std::ostringstream os;
    printHelp(tool, os);
    const std::string help = os.str();
    EXPECT_EQ(help.rfind("usage: demo [options] FILE\n", 0), 0u) << help;
    for (const Option &o : tool.options) {
        EXPECT_NE(help.find("  " + optionLabel(o)), std::string::npos)
            << optionLabel(o) << '\n' << help;
        EXPECT_NE(help.find(o.help), std::string::npos) << o.help;
    }
    EXPECT_NE(help.find("--mode a|b"), std::string::npos) << help;
    std::istringstream lines(help);
    std::string line;
    while (std::getline(lines, line))
        EXPECT_LE(line.size(), 78u) << line;

    bool a = false, b = false;
    const Tool sub{"demo",
                   {{"run", "[options]", "run it",
                     {flag({"--alpha"}, a, "first")}, 0},
                    {"diff", "A B", "compare",
                     {flag({"--beta"}, b, "second")}, 2}},
                   {}};
    std::ostringstream so;
    printHelp(sub, so);
    for (const char *want : {"  run [options]", "run it", "  diff A B",
                             "compare", "run options:", "--alpha",
                             "diff options:", "--beta"})
        EXPECT_NE(so.str().find(want), std::string::npos)
            << want << '\n' << so.str();
}

TEST(CliArgs, RunToolMapsErrorsToExitTwo)
{
    bool f = false;
    const Tool tool{"demo", {{"", "[options]", "", {}, 0}},
                    {flag({"-f"}, f, "a flag")}};
    std::vector<std::string> storage;
    auto run = [&](std::vector<std::string> args, auto body) {
        storage = std::move(args);
        storage.insert(storage.begin(), "demo");
        std::vector<char *> argv;
        for (std::string &s : storage)
            argv.push_back(s.data());
        return runTool(tool, static_cast<int>(argv.size()), argv.data(),
                       body);
    };
    auto ok = [](const Parsed &) { return 0; };
    EXPECT_EQ(run({"-f"}, ok), 0);
    testing::internal::CaptureStdout();
    EXPECT_EQ(run({"--help"}, [](const Parsed &) { return 9; }), 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "usage: demo [options]\noptions:\n  -f  a flag\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({"-x"}, ok), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "demo: unknown option '-x'\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({}, [](const Parsed &) -> int { fatal("no input"); }),
              2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "demo: fatal: no input\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(run({}, [](const Parsed &) -> int { panic("bug"); }), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "demo: panic: bug\n");
    EXPECT_EQ(run({}, [](const Parsed &) { return 1; }), 1);
}

TEST(CliArgs, ReadProgram)
{
    try {
        readProgram("/nonexistent/prog.s");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: cannot open '/nonexistent/prog.s'");
    }
}
