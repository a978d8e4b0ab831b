/**
 * @file
 * Reproduces the paper's running example (Figures 2-4, Table 4): prints
 * the FFT butterfly kernel's scalar representation (Figure 4(B)) and
 * the SIMD microcode the hardware translator regenerates from it at
 * width 8 (Table 4), side by side with the paper's structures.
 */

#include <iostream>

#include "bench/bench_util.hh"

using namespace liquid;
using namespace liquid::bench;

int
main()
{
    const auto fft = makeWorkload("fft");
    const auto build = fft->build(EmitOptions::Mode::Scalarized);

    std::cout << "=== Figure 4(B): scalar representation of the FFT "
                 "butterfly loop ===\n\n";
    const int begin = build.prog.labelIndex("fft_k2");
    int end = begin;
    while (build.prog.code()[end].op != Opcode::Ret)
        ++end;
    for (int i = begin; i <= end; ++i) {
        std::cout << "  " << (i - begin + 1) << ":\t"
                  << build.prog.code()[i].toString() << '\n';
    }

    System sys(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
    sys.run();

    std::cout << "\n=== Table 4: SIMD microcode regenerated by the "
                 "dynamic translator (width 8) ===\n\n";
    const UcodeEntry *uc = sys.ucodeCache().lookup(
        build.kernelEntries[2], sys.cycles() + 1'000'000);
    if (!uc) {
        std::cout << "translation missing!\n";
        return 1;
    }
    for (std::size_t i = 0; i < uc->insts.size(); ++i)
        std::cout << "  " << (i + 1) << ":\t" << uc->insts[i].toString()
                  << '\n';

    std::cout << "\nPaper Table 4 structures present:\n"
              << "  vperm (butterfly) count: 3 expected\n"
              << "  vmask #0xF0 count:       2 expected\n"
              << "  offset-array vlds collapsed: "
              << sys.translator().stats().get("instsCollapsed") << '\n'
              << "  induction stride rewritten 1 -> 8 in both loops\n";

    // The pass condition: the microcode holds the paper's 3 width-8
    // butterflies and 2 upper-half lane masks.
    unsigned vperms = 0;
    unsigned vmasks = 0;
    for (const Inst &inst : uc->insts) {
        vperms += inst.op == Opcode::Vperm &&
                  inst.permKind == PermKind::SwapHalves &&
                  inst.permBlock == 8;
        vmasks += inst.op == Opcode::Vmask && inst.maskBits == 0xF0;
    }
    if (vperms != 3 || vmasks != 2) {
        std::cerr << "bench_table4_walkthrough: counted " << vperms
                  << " vperm.bfly8 (3 expected) and " << vmasks
                  << " vmask #0xf0 (2 expected)\n";
        return 1;
    }
    return 0;
}
