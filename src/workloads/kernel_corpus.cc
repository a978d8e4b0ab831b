/**
 * @file
 * The random-kernel corpus. The draw order below fixes every kernel of
 * every seed, which the seed-pinned tests and tool outputs depend on
 * (kernel_corpus_test pins it).
 */

#include "workloads/kernel_corpus.hh"

#include "common/logging.hh"

namespace liquid
{

const GeneratedKernel &
KernelCorpus::next()
{
    const unsigned index = index_++;
    kernelSkipped_ = false;
    const unsigned trip = 16u << rng_.range(0, 2);  // 16/32/64
    GeneratedKernel &g = kernel_.emplace(GeneratedKernel{
        vir::Kernel("prop" + std::to_string(index), trip), {}, {}});
    vir::Kernel &k = g.kernel;

    // Live values the generator can consume, starting with the loads.
    std::vector<int> live;
    const unsigned num_inputs = static_cast<unsigned>(rng_.range(2, 4));
    for (unsigned i = 0; i < num_inputs; ++i) {
        g.inputs.push_back("in" + std::to_string(index) + "_" +
                           std::to_string(i));
        live.push_back(k.load(g.inputs[i], 4, false, false,
                              static_cast<std::int32_t>(rng_.range(0, 2))));
    }

    auto slot = [&]() {
        return static_cast<std::size_t>(
            rng_.range(0, static_cast<int>(live.size()) - 1));
    };
    auto pick = [&]() -> int { return live[slot()]; };
    // Keep the working set small enough for the scalar register pool:
    // new values replace a random live one once pressure builds.
    auto defineValue = [&](int value) {
        if (live.size() >= 6)
            live[slot()] = value;
        else
            live.push_back(value);
    };
    auto store = [&]() {
        const std::string out = "out" + std::to_string(index) + "_" +
                                std::to_string(g.outputs.size());
        g.outputs.push_back(out);
        k.store(out, pick());
    };

    int accs = 0;
    const unsigned ops = static_cast<unsigned>(rng_.range(4, 12));
    for (unsigned i = 0; i < ops; ++i) {
        switch (rng_.range(0, 9)) {
          case 0:
          case 1:
          case 2: {
            static const Opcode binops[] = {
                Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::And,
                Opcode::Orr, Opcode::Eor, Opcode::Min, Opcode::Max,
                Opcode::Rsb, Opcode::Bic, Opcode::Qsub,
            };
            defineValue(k.bin(binops[rng_.range(0, 10)], pick(),
                              pick()));
            break;
          }
          case 3: {
            static const Opcode immops[] = {Opcode::Add, Opcode::Lsl,
                                            Opcode::Lsr, Opcode::Asr};
            const Opcode op = immops[rng_.range(0, 3)];
            const std::int32_t imm =
                op == Opcode::Add
                    ? static_cast<std::int32_t>(rng_.range(-50, 50))
                    : static_cast<std::int32_t>(rng_.range(0, 7));
            defineValue(k.binImm(op, pick(), imm));
            break;
          }
          case 4: {
            // Periodic constant within the representable range.
            const unsigned period = 1u << rng_.range(0, 2);
            std::vector<Word> lanes(period);
            for (auto &lane : lanes) {
                lane = static_cast<Word>(
                    static_cast<std::int32_t>(rng_.range(-100, 100)));
            }
            defineValue(
                k.binConst(Opcode::Add, pick(), std::move(lanes)));
            break;
          }
          case 5: {
            const unsigned block = 2u << rng_.range(0, 2);  // 2/4/8
            const auto kind = static_cast<PermKind>(rng_.range(
                0, static_cast<int>(PermKind::NumKinds) - 1));
            defineValue(k.perm(pick(), kind, block));
            break;
          }
          case 6: {
            const unsigned block = 2u << rng_.range(0, 2);
            const std::uint32_t bits = static_cast<std::uint32_t>(
                rng_.range(1, (1 << block) - 1));
            defineValue(k.mask(pick(), bits, block));
            break;
          }
          case 7: {
            static const Opcode redops[] = {Opcode::Add, Opcode::Min,
                                            Opcode::Max};
            const int acc = k.newAcc(
                "acc" + std::to_string(accs++), redops[rng_.range(0, 2)],
                static_cast<Word>(rng_.range(-5, 5)));
            k.reduce(acc, pick());
            break;
          }
          case 8:
            defineValue(k.bin(Opcode::Qadd, pick(), pick()));
            break;
          case 9:
            store();
            break;
        }
    }
    // Always at least one store so the kernel is observable.
    store();
    return g;
}

std::optional<Program>
KernelCorpus::build(Rng &data, EmitOptions::Mode mode, unsigned width,
                    EmitOptions::Sabotage sabotage,
                    unsigned sabotage_distance)
{
    try {
        return mustBuild(data, mode, width, sabotage, sabotage_distance);
    } catch (const FatalError &e) {
        if (!kernelSkipped_) {
            // The reason: the message without fatal()'s "fatal: "
            // prefix and its parenthesized advice.
            const std::string msg = e.what();
            kernelSkipped_ = true;
            ++skipped_;
            ++skips_[msg.substr(7, msg.find(" (") - 7)];
        }
        return std::nullopt;
    }
}

Program
KernelCorpus::mustBuild(Rng &data, EmitOptions::Mode mode,
                        unsigned width, EmitOptions::Sabotage sabotage,
                        unsigned sabotage_distance) const
{
    LIQUID_ASSERT(kernel_, "KernelCorpus::next() was never called");
    const GeneratedKernel &g = *kernel_;
    Program prog;
    const unsigned n = g.kernel.tripCount() + 16;
    for (const auto &name : g.inputs) {
        std::vector<Word> words(n);
        for (auto &w : words) {
            w = static_cast<Word>(
                static_cast<std::int32_t>(data.range(-500, 500)));
        }
        prog.allocWords(name, words);
    }
    for (const auto &name : g.outputs)
        prog.allocData(name, n * 4);

    EmitOptions opts;
    opts.mode = mode;
    opts.nativeWidth = width;
    opts.sabotage = sabotage;
    opts.sabotageDistance = sabotage_distance;
    EmitResult r;
    if (mode == EmitOptions::Mode::InlineScalar) {
        // Inline: the kernel body is emitted three times inside main,
        // matching the three calls of the outlined builds.
        prog.defineLabel("main");
        for (int call = 0; call < 3; ++call) {
            opts.fnName = g.kernel.name() + "_i" + std::to_string(call);
            r = emitKernel(prog, g.kernel, opts);
        }
    } else {
        r = emitKernel(prog, g.kernel, opts);
        prog.defineLabel("main");
        for (int call = 0; call < 3; ++call) {
            prog.addInst(Inst::call(-1, true, g.kernel.name(),
                                    g.kernel.maxWidth()));
        }
    }
    // Accumulators observable in memory.
    for (unsigned a = 0; a < r.accRegs.size(); ++a) {
        const std::string res =
            "accres" + std::to_string(a) + "_" + g.kernel.name();
        if (!prog.hasSymbol(res))
            prog.allocData(res, 4);
        MemRef m;
        m.base = prog.symbol(res);
        m.baseSym = res;
        prog.addInst(Inst::store(Opcode::Stw, r.accRegs[a], m));
    }
    prog.addInst(Inst::halt());
    prog.resolveBranches();
    return prog;
}

std::string
KernelCorpus::skipSummary() const
{
    std::string s = std::to_string(skipped_) + " kernel(s) skipped";
    for (const auto &[reason, count] : skips_)
        s += "; " + reason + ": " + std::to_string(count);
    return s;
}

} // namespace liquid
