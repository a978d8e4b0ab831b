#include "memory/main_memory.hh"

#include "asm/program.hh"
#include "common/logging.hh"

namespace liquid
{

MainMemory::MainMemory(std::size_t size) : bytes_(size, 0)
{
}

MainMemory
MainMemory::forProgram(const Program &prog, std::size_t slack)
{
    MainMemory mem(Program::dataBase + prog.dataImage().size() + slack);
    mem.loadProgram(prog);
    return mem;
}

void
MainMemory::loadProgram(const Program &prog)
{
    const auto &image = prog.dataImage();
    LIQUID_ASSERT(Program::dataBase + image.size() <= bytes_.size(),
                  "memory too small for program data");
    for (std::size_t i = 0; i < image.size(); ++i)
        bytes_[Program::dataBase + i] = image[i];
}

void
MainMemory::outOfBounds(Addr addr, unsigned size) const
{
    fatal("memory access out of bounds: addr=0x", std::hex, addr,
          " size=", std::dec, size, " memsize=", bytes_.size());
}

void
MainMemory::badElemSize(unsigned size)
{
    panic("bad element size ", size);
}

} // namespace liquid
