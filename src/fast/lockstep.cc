#include "fast/lockstep.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "cpu/core.hh"
#include "memory/main_memory.hh"

namespace liquid::fast
{

namespace
{

std::string
hex(Word w)
{
    std::ostringstream os;
    os << "0x" << std::hex << w;
    return os.str();
}

} // namespace

LockstepResult
runLockstep(const Program &prog, ExecMode mode, unsigned width,
            const LockstepOptions &opts)
{
    if (mode == ExecMode::Liquid) {
        fatal("lockstep requires stream-aligned tiers: liquid mode "
              "interleaves dispatched microcode into the retire "
              "stream; its equivalence is covered by the chaos "
              "oracle's end-state contract");
    }

    // A bare Core (no System) keeps the retire stream free of
    // translator side effects; scalar/native modes never dispatch
    // microcode anyway. Each tier gets its own memory image.
    CoreConfig core_config = SystemConfig::make(mode, width).core;
    core_config.faults = opts.faults;
    core_config.maxInsts = opts.maxRetires;

    MainMemory cycle_mem = MainMemory::forProgram(prog);
    MainMemory fast_mem = MainMemory::forProgram(prog);
    Core core(core_config, prog, cycle_mem);

    FastConfig fast_config;
    fast_config.simdWidth = core_config.simdWidth;
    fast_config.faults = opts.faults;
    fast_config.maxInsts = opts.maxRetires;
    fast_config.sabotage = opts.sabotage;
    FastInterp interp(fast_config, prog, fast_mem);

    LockstepResult res;
    auto diverge = [&](std::string msg) {
        res.equal = false;
        if (res.divergences.size() < opts.maxDivergences) {
            res.divergences.push_back("retire " +
                                      std::to_string(res.retires) +
                                      ": " + std::move(msg));
        }
    };

    const auto &fast_scalars = interp.scalars();
    const auto &fast_vectors = interp.vectors();

    auto compareArch = [&] {
        if (core.pc() != interp.pc()) {
            diverge("pc " + std::to_string(interp.pc()) + " vs cycle " +
                    std::to_string(core.pc()));
        }
        const RegFile &regs = core.regs();
        if (regs.cmpState() != interp.cmpState()) {
            diverge("cmpState " + std::to_string(interp.cmpState()) +
                    " vs cycle " + std::to_string(regs.cmpState()));
        }
        for (unsigned i = 0; i < regsPerClass; ++i) {
            const RegId ri(RegClass::Int, i);
            const RegId rf(RegClass::Flt, i);
            if (regs.read(ri) != fast_scalars[i]) {
                diverge(regName(ri) + " = " + hex(fast_scalars[i]) +
                        " vs cycle " + hex(regs.read(ri)));
            }
            if (regs.read(rf) != fast_scalars[regsPerClass + i]) {
                diverge(regName(rf) + " = " +
                        hex(fast_scalars[regsPerClass + i]) +
                        " vs cycle " + hex(regs.read(rf)));
            }
        }
        if (width == 0)
            return;
        for (unsigned i = 0; i < regsPerClass; ++i) {
            const RegId vi(RegClass::Vec, i);
            const RegId vf(RegClass::VFlt, i);
            if (regs.readVec(vi) != fast_vectors[i])
                diverge(regName(vi) + " lanes differ");
            if (regs.readVec(vf) != fast_vectors[regsPerClass + i])
                diverge(regName(vf) + " lanes differ");
        }
    };

    auto compareMemory = [&](Addr begin) {
        std::size_t shown = 0;
        for (Addr a = begin; a + 4 <= cycle_mem.size(); a += 4) {
            const Word c = cycle_mem.readWord(a);
            const Word f = fast_mem.readWord(a);
            if (c == f)
                continue;
            diverge("mem[" + hex(a) + "] = " + hex(f) + " vs cycle " +
                    hex(c));
            if (++shown >= 4)
                break;
        }
    };

    while (res.equal) {
        std::string cycle_err;
        std::string fast_err;
        try {
            core.step();
        } catch (const PanicError &e) {
            cycle_err = e.what();
        } catch (const FatalError &e) {
            cycle_err = e.what();
        }
        try {
            interp.step();
        } catch (const PanicError &e) {
            fast_err = e.what();
        } catch (const FatalError &e) {
            fast_err = e.what();
        }
        ++res.retires;

        if (!cycle_err.empty() || !fast_err.empty()) {
            if (cycle_err != fast_err) {
                diverge("cycle error '" + cycle_err +
                        "' vs functional error '" + fast_err + "'");
            }
            break;
        }

        if (core.halted() != interp.halted()) {
            diverge(std::string("halted: functional=") +
                    (interp.halted() ? "yes" : "no") + " vs cycle=" +
                    (core.halted() ? "yes" : "no"));
            break;
        }

        compareArch();
        if (opts.memCompareEvery &&
            res.retires % opts.memCompareEvery == 0)
            compareMemory(Program::dataBase);

        if (core.halted())
            break;
    }

    if (!res.equal)
        return res;

    // End-of-run contract: whole memory, retire totals, call log shape.
    compareMemory(0);

    if (core.instsRetired() != interp.retired()) {
        diverge("retired " + std::to_string(interp.retired()) +
                " vs cycle " + std::to_string(core.instsRetired()));
    }

    std::map<Addr, std::uint64_t> cycle_calls;
    for (const auto &[target, stamps] : core.callLog())
        cycle_calls[target] = stamps.size();
    std::map<Addr, std::uint64_t> fast_calls;
    for (const auto &[target, count] : interp.callCounts())
        fast_calls[target] = std::min<std::uint64_t>(count, 8);
    if (cycle_calls != fast_calls)
        diverge("call log shape differs (targets or counts)");

    return res;
}

} // namespace liquid::fast
