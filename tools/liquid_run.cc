/**
 * @file
 * liquid-run: command-line driver for the Liquid SIMD simulator.
 *
 * Assembles a .s file (see src/asm/assembler.hh for the syntax) and
 * runs it on a configurable system.
 *
 *   liquid-run prog.s                      # Liquid mode, 8 lanes
 *   liquid-run --mode scalar prog.s        # no SIMD accelerator
 *   liquid-run --mode native -w 16 prog.s  # native vector ISA
 *   liquid-run --trace --ucode prog.s      # full visibility
 *   liquid-run --pretranslate prog.s       # offline binary translation
 *   liquid-run --sweep prog.s              # widths 2/4/8/16 summary
 *
 * Suite workloads can be run directly, without writing assembly:
 *
 *   liquid-run --list                      # suite benchmark names
 *   liquid-run --filter 'mpeg2.*'          # run matching benchmarks
 *   liquid-run --filter fir --sweep        # width sweep on one kernel
 *
 * The functional execution tier (src/fast/) runs the same program with
 * no cycle clock — architectural results and retire counts only:
 *
 *   liquid-run --tier functional prog.s    # functional interpreter
 *   liquid-run --warmup 10000 prog.s       # functional fast-forward,
 *                                          # then hand off to the
 *                                          # cycle core
 *
 * Exit status: 0 on success, 1 when --filter matches no suite
 * workload, 2 on usage errors, unreadable or unassemblable input, a
 * run-time fatal() (such as the instruction watchdog) and internal
 * errors.
 */

#include <iostream>
#include <regex>
#include <set>
#include <string>

#include "cli_args.hh"
#include "fast/fast.hh"
#include "fast/tier.hh"
#include "fast/warmup.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

struct Options
{
    ExecMode mode = ExecMode::Liquid;
    unsigned width = 8;
    bool trace = false;
    bool stats = false;
    bool ucode = false;
    bool listing = false;
    bool pretranslate = false;
    bool sweep = false;
    Cycles latency = 1;
    bool list = false;
    std::string filter;
    fast::ExecTier tier = fast::ExecTier::Cycle;
    /** Functional fast-forward checkpoint (retired insts); 0 = off. */
    std::uint64_t warmup = 0;
};

/**
 * Refuse what the functional tier cannot do. Anything that needs the
 * cycle clock (or the translator) is a hard error there: the stats it
 * would report are absent, not zero, so silently running would
 * mislead. Liquid is only the default mode for the cycle tier; the
 * natural functional-tier default is the scalar ISA.
 */
void
checkFunctionalTier(Options &opt, bool modeGiven)
{
    const char *cycleOnly = opt.sweep          ? "--sweep"
                            : opt.trace        ? "--trace"
                            : opt.ucode        ? "--ucode"
                            : opt.pretranslate ? "--pretranslate"
                            : opt.warmup       ? "--warmup"
                                               : nullptr;
    if (cycleOnly) {
        throw cli::UsageError(
            std::string(cycleOnly) +
            " requires the cycle tier: the functional tier has no cycle "
            "clock, so the cycle-shaped results it would report are "
            "absent (not zero); drop " + cycleOnly +
            " or use --tier cycle");
    }
    if (opt.mode != ExecMode::Liquid)
        return;
    if (modeGiven) {
        throw cli::UsageError(
            "--tier functional cannot run liquid mode (no translator or "
            "microcode cache); use --mode scalar or --mode native, or "
            "--tier cycle");
    }
    opt.mode = ExecMode::ScalarBaseline;
}

/** Emission mode matching an execution mode. */
EmitOptions::Mode
emitModeFor(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline:
        return EmitOptions::Mode::InlineScalar;
      case ExecMode::Liquid:
        return EmitOptions::Mode::Scalarized;
      case ExecMode::NativeSimd:
        return EmitOptions::Mode::Native;
    }
    panic("unknown ExecMode");
}

/**
 * Functional-tier run: the functional interpreter, architectural
 * results and retire counts only. Returns instructions retired.
 */
std::uint64_t
runFunctionalOnce(const Program &prog, const Options &opt,
                  ExecMode mode, unsigned width, bool verbose)
{
    fast::FastConfig fc;
    fc.simdWidth = mode == ExecMode::ScalarBaseline ? 0 : width;
    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastInterp interp(fc, prog, mem);
    interp.run();
    if (verbose) {
        std::cout << "tier:   functional (no cycle clock; cycle stats "
                     "are absent, not zero)\n"
                  << "insts:  " << interp.retired() << '\n';
    }
    if (opt.stats)
        interp.stats().dump(std::cout);
    return interp.retired();
}

/** Run the suite workloads matching opt.filter (single-kernel
 *  investigation without editing source). */
int
runFiltered(const Options &opt)
{
    const std::regex re(opt.filter);
    bool matched = false;
    for (const auto &wl : makeSuite()) {
        if (!std::regex_search(wl->name(), re))
            continue;
        matched = true;
        std::cout << "== " << wl->name() << '\n';

        if (opt.tier == fast::ExecTier::Functional) {
            const auto build =
                wl->build(emitModeFor(opt.mode), opt.width);
            const std::uint64_t n = runFunctionalOnce(
                build.prog, opt, opt.mode, opt.width, false);
            std::cout << "  insts: " << n
                      << "  (functional tier; cycles absent)\n";
            continue;
        }

        auto cyclesFor = [&](ExecMode mode, unsigned width) {
            const auto build = wl->build(emitModeFor(mode), width);
            SystemConfig config = SystemConfig::make(mode, width);
            config.translator.latencyPerInst = opt.latency;
            config.pretranslate = opt.pretranslate;
            System sys(config, build.prog);
            if (opt.warmup) {
                const fast::WarmupResult w =
                    fast::fastForward(sys, opt.warmup);
                std::cout << "  warmup: " << w.retired
                          << " retire(s) fast-forwarded; cycle stats "
                             "cover the remainder only\n";
            }
            if (opt.trace)
                sys.core().setTrace(&std::cout);
            sys.run();
            if (opt.stats) {
                sys.core().stats().dump(std::cout);
                if (mode == ExecMode::Liquid)
                    sys.translator().stats().dump(std::cout);
            }
            return sys.cycles();
        };

        if (opt.sweep) {
            const Cycles base =
                cyclesFor(ExecMode::ScalarBaseline, 0);
            std::cout << "  scalar baseline: " << base << " cycles\n";
            for (unsigned width : {2u, 4u, 8u, 16u}) {
                const Cycles c = cyclesFor(ExecMode::Liquid, width);
                std::cout << "  liquid W=" << width << ":     " << c
                          << " cycles  ("
                          << static_cast<double>(base) /
                                 static_cast<double>(c)
                          << "x)\n";
            }
        } else {
            const Cycles c = cyclesFor(opt.mode, opt.width);
            std::cout << "  cycles: " << c << '\n';
        }
    }
    if (!matched) {
        std::cerr << "no suite workload matches '" << opt.filter
                  << "' (see --list)\n";
        return 1;
    }
    return 0;
}

Cycles
runOnce(const Program &prog, const Options &opt, ExecMode mode,
        unsigned width, bool verbose)
{
    SystemConfig config = SystemConfig::make(mode, width);
    config.translator.latencyPerInst = opt.latency;
    config.pretranslate = opt.pretranslate;
    System sys(config, prog);
    if (opt.warmup) {
        const fast::WarmupResult w = fast::fastForward(sys, opt.warmup);
        if (verbose) {
            std::cout << "warmup: fast-forwarded " << w.retired
                      << " retire(s) on the functional tier"
                      << (w.halted ? " (program halted during warmup)"
                                   : "")
                      << "; cycle stats cover the remainder only\n";
        }
    }
    if (opt.trace && verbose)
        sys.core().setTrace(&std::cout);
    sys.run();

    if (verbose) {
        std::cout << "cycles: " << sys.cycles() << '\n'
                  << "insts:  " << sys.core().stats().get("insts")
                  << '\n';
        if (mode == ExecMode::Liquid) {
            std::cout << "translations: "
                      << sys.translator().stats().get("translations")
                      << ", aborts: "
                      << sys.translator().stats().get("aborts")
                      << ", microcode dispatches: "
                      << sys.core().stats().get("ucodeDispatches")
                      << '\n';
        }
        if (opt.stats) {
            sys.core().stats().dump(std::cout);
            sys.core().icache().stats().dump(std::cout);
            sys.core().dcache().stats().dump(std::cout);
            if (mode == ExecMode::Liquid) {
                sys.translator().stats().dump(std::cout);
                sys.ucodeCache().stats().dump(std::cout);
            }
        }
        if (opt.ucode && mode == ExecMode::Liquid) {
            std::set<Addr> printed;
            for (const auto &inst : prog.code()) {
                if (inst.op != Opcode::Bl || inst.target < 0)
                    continue;
                if (!printed.insert(Program::instAddr(inst.target))
                         .second)
                    continue;
                const Addr entry = Program::instAddr(inst.target);
                const UcodeEntry *uc = sys.ucodeCache().lookup(
                    entry, sys.cycles() + 1'000'000);
                if (!uc)
                    continue;
                std::cout << "microcode for "
                          << (inst.targetSym.empty()
                                  ? std::to_string(inst.target)
                                  : inst.targetSym)
                          << " (width " << uc->simdWidth << "):\n";
                for (const auto &u : uc->insts)
                    std::cout << "    " << u.toString() << '\n';
            }
        }
    }
    return sys.cycles();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const cli::Tool tool{
        "liquid-run",
        {{"", "[options] program.s\n[options] --filter REGEX\n--list", "",
          {}, 1}},
        {
            cli::choice({"--mode"}, opt.mode,
                        {{"scalar", ExecMode::ScalarBaseline},
                         {"liquid", ExecMode::Liquid},
                         {"native", ExecMode::NativeSimd}},
                        "execution mode (liquid; scalar on the functional "
                        "tier)"),
            cli::width({"-w", "--width"}, opt.width,
                       "SIMD lanes (8)"),
            cli::number({"--latency"}, "N", opt.latency,
                        "translation cycles/inst (1)"),
            cli::flag({"--pretranslate"}, opt.pretranslate,
                      "offline binary translation"),
            cli::flag({"--trace"}, opt.trace, "per-instruction trace"),
            cli::flag({"--stats"}, opt.stats,
                      "dump all statistic counters"),
            cli::flag({"--ucode"}, opt.ucode,
                      "print translated microcode"),
            cli::flag({"--listing"}, opt.listing,
                      "print the assembled program"),
            cli::flag({"--sweep"}, opt.sweep, "run at widths 2/4/8/16"),
            cli::flag({"--list"}, opt.list,
                      "print suite workload names"),
            cli::text({"--filter"}, "REGEX", opt.filter,
                      "run suite workloads matching REGEX instead of a "
                      ".s file"),
            cli::choice({"--tier"}, opt.tier,
                        cli::tierChoices(),
                        "execution tier (cycle); the functional tier has "
                        "no cycle clock: cycle stats are absent and "
                        "cycle-only flags error"),
            cli::number({"--warmup"}, "N", opt.warmup,
                        "fast-forward the first N retires on the "
                        "functional tier, then hand architectural state "
                        "to the cycle core"),
        }};
    return cli::runTool(tool, argc, argv, [&](const cli::Parsed &p) {
        if (p.positional.empty() && !opt.list && opt.filter.empty())
            throw cli::UsageError(
                "expected program.s, --filter REGEX or --list");
        if (opt.tier == fast::ExecTier::Functional)
            checkFunctionalTier(opt, p.has("--mode"));

        if (opt.list) {
            for (const auto &wl : makeSuite())
                std::cout << wl->name() << '\n';
            return 0;
        }
        if (!opt.filter.empty())
            return runFiltered(opt);

        const Program prog = cli::readProgram(p.positional.front());
        if (opt.listing)
            std::cout << prog.listing();

        if (opt.tier == fast::ExecTier::Functional) {
            runFunctionalOnce(prog, opt, opt.mode, opt.width, true);
            return 0;
        }

        if (opt.sweep) {
            const Cycles base = runOnce(prog, opt,
                                        ExecMode::ScalarBaseline, 0,
                                        false);
            std::cout << "scalar baseline: " << base << " cycles\n";
            for (unsigned width : {2u, 4u, 8u, 16u}) {
                const Cycles c =
                    runOnce(prog, opt, ExecMode::Liquid, width, false);
                std::cout << "liquid W=" << width << ":     " << c
                          << " cycles  ("
                          << static_cast<double>(base) /
                                 static_cast<double>(c)
                          << "x)\n";
            }
            return 0;
        }

        runOnce(prog, opt, opt.mode, opt.width, true);
        return 0;
    });
}
