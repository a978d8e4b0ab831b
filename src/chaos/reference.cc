#include "chaos/oracle.hh"

#include <algorithm>

#include "asm/program.hh"
#include "fast/fast.hh"
#include "memory/main_memory.hh"

namespace liquid
{

ChaosReference
makeReference(const Program &prog, unsigned width)
{
    // The scalar baseline has no SIMD accelerator regardless of the
    // requested width (SystemConfig::make applies the same coupling).
    static_cast<void>(width);

    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastInterp interp(fast::FastConfig{}, prog, mem);
    interp.run();

    ChaosReference ref;
    const std::size_t bytes = prog.dataImage().size();
    ref.snapshot.memory.reserve(bytes / 4 + 1);
    for (std::size_t off = 0; off + 4 <= bytes; off += 4)
        ref.snapshot.memory.push_back(
            mem.readWord(Program::dataBase + off));

    ref.snapshot.scalars = interp.scalars();
    ref.snapshot.cmpState = interp.cmpState();

    // The cycle core's call log keeps at most 8 stamps per target, so
    // its snapshot call counts saturate at 8; mirror the cap exactly.
    for (const auto &[target, count] : interp.callCounts()) {
        ref.snapshot.callCounts[target] =
            static_cast<std::size_t>(std::min<std::uint64_t>(count, 8));
        ref.regions.push_back(target);
    }
    ref.instsRetired = interp.retired();
    return ref;
}

} // namespace liquid
