/**
 * @file
 * The paper's second evolution axis: SIMD *functionality* growth.
 *
 * "The opcode repertoire is also commonly enhanced from generation to
 * generation ... the number of opcodes in the ARM SIMD instruction set
 * went from 60 to more than 120 in the change from Version 6 to 7."
 *
 * One Liquid SIMD binary is run on four accelerator generations that
 * differ in both width and shuffle repertoire. Loops using shuffles an
 * old generation lacks transparently stay scalar (permutation CAM
 * miss); newer hardware picks them up with no recompilation — the
 * forward-migration story the paper's introduction motivates.
 */

#include <iostream>

#include "bench/bench_util.hh"

using namespace liquid;
using namespace liquid::bench;

namespace
{

struct Generation
{
    const char *name;
    unsigned width;
    PermRepertoire perms;
};

const Generation generations[] = {
    {"gen1 (4-wide, pairs only)", 4,
     permSet({PermKind::SwapPairs})},
    {"gen2 (8-wide, +butterfly)", 8,
     permSet({PermKind::SwapPairs, PermKind::SwapHalves})},
    {"gen3 (8-wide, +reverse)", 8,
     permSet({PermKind::SwapPairs, PermKind::SwapHalves,
              PermKind::Reverse})},
    {"gen4 (16-wide, full)", 16, allPerms},
};

} // namespace

int
main()
{
    std::cout << "=== Forward migration across accelerator "
                 "generations (width AND opcode repertoire) ===\n\n";

    // fft uses all three shuffle kinds across its stages — the
    // sharpest probe of repertoire growth.
    const auto fft = makeWorkload("fft");
    const Cycles base = baselineCycles(*fft);
    const auto build = fft->build(EmitOptions::Mode::Scalarized);

    Table t({{"generation", -28}, {"cycles", 10}, {"speedup", 9},
             {"bound", 7}, {"refused", 9}});
    t.header(std::cout);

    for (const auto &gen : generations) {
        SystemConfig config =
            SystemConfig::make(ExecMode::Liquid, gen.width);
        config.translator.permRepertoire = gen.perms;
        config.translator.latencyPerInst = 0;
        System sys(config, build.prog);
        sys.run();
        const auto refused =
            sys.translator().stats().get("abort.unsupportedShuffle") +
            sys.translator().stats().get("abort.valueMismatch");
        t.row(std::cout, gen.name, sys.cycles(),
              fmt(static_cast<double>(base) /
                  static_cast<double>(sys.cycles())),
              sys.translator().stats().get("translations"), refused);
    }

    std::cout << "\nSame binary throughout; each generation binds "
                 "exactly the loops its hardware can express.\n";

    std::cout << "\n=== Suite totals per generation ===\n\n";
    Table s({{"generation", -28}, {"suite cycles", 14},
             {"suite speedup", 15}});
    s.header(std::cout);
    double base_total = 0;
    for (const auto &wl : makeSuite())
        base_total += static_cast<double>(baselineCycles(*wl));
    for (const auto &gen : generations) {
        double total = 0;
        for (const auto &wl : makeSuite()) {
            const auto b = wl->build(EmitOptions::Mode::Scalarized);
            SystemConfig config =
                SystemConfig::make(ExecMode::Liquid, gen.width);
            config.translator.permRepertoire = gen.perms;
            config.translator.latencyPerInst = 0;
            System sys(config, b.prog);
            sys.run();
            total += static_cast<double>(sys.cycles());
        }
        s.row(std::cout, gen.name, static_cast<Cycles>(total),
              fmt(base_total / total));
    }
    return 0;
}
