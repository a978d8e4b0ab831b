#include "memory/main_memory.hh"

#include <algorithm>
#include <cstring>

#include "asm/program.hh"
#include "common/logging.hh"

namespace liquid
{

MainMemory::MainMemory(std::size_t size)
    : size_(size),
      eagerBase_(size > Program::dataBase ? Program::dataBase : 0),
      eager_(size - eagerBase_, 0)
{
    LIQUID_ASSERT(size <= (std::uint64_t{1} << 32),
                  "memory larger than the 32-bit address space");
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
    LIQUID_ASSERT(Program::dataBase + image.size() <= size_,
                  "memory too small for program data");
    std::copy(image.begin(), image.end(),
              eager_.begin() + (Program::dataBase - eagerBase_));
}

Word
MainMemory::readSlow(Addr addr, unsigned size) const
{
    if (static_cast<std::uint64_t>(addr) + size > size_)
        outOfBounds(addr, size);
    Word value = 0;
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        const std::uint8_t byte =
            a >= eagerBase_ ? eager_[a - eagerBase_]
                            : (low_.empty() ? 0 : low_[a]);
        value |= static_cast<Word>(byte) << (8 * i);
    }
    return value;
}

void
MainMemory::writeSlow(Addr addr, unsigned size, Word value)
{
    if (static_cast<std::uint64_t>(addr) + size > size_)
        outOfBounds(addr, size);
    if (addr < eagerBase_ && low_.empty())
        low_.assign(eagerBase_, 0);
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        const auto byte = static_cast<std::uint8_t>(value >> (8 * i));
        if (a >= eagerBase_)
            eager_[a - eagerBase_] = byte;
        else
            low_[a] = byte;
    }
}

std::vector<Addr>
MainMemory::differingWords(const MainMemory &other, Addr begin,
                           std::size_t limit) const
{
    LIQUID_ASSERT(size_ == other.size_ && begin % 4 == 0,
                  "memory compare of ", size_, " and ", other.size_,
                  " bytes from ", begin);
    // memcmp a block at a time, then a differing block word by word.
    // Blocks never straddle eagerBase_, which the block size divides.
    constexpr Addr block = 4096;
    static_assert(Program::dataBase % block == 0);
    static const std::uint8_t zeros[block] = {};
    auto bytes = [&](const MainMemory &m, Addr a) {
        if (a >= eagerBase_)
            return m.eager_.data() + (a - eagerBase_);
        return m.low_.empty() ? zeros : m.low_.data() + a;
    };
    std::vector<Addr> out;
    const auto end = static_cast<Addr>(size_ & ~std::size_t{3});
    for (Addr a = begin; a < end && out.size() < limit;) {
        const Addr n = std::min(block - a % block, end - a);
        const std::uint8_t *p = bytes(*this, a);
        const std::uint8_t *q = bytes(other, a);
        if (std::memcmp(p, q, n) != 0) {
            for (Addr w = 0; w < n && out.size() < limit; w += 4) {
                if (std::memcmp(p + w, q + w, 4) != 0)
                    out.push_back(a + w);
            }
        }
        a += n;
    }
    return out;
}

void
MainMemory::outOfBounds(Addr addr, unsigned size) const
{
    fatal("memory access out of bounds: addr=0x", std::hex, addr,
          " size=", std::dec, size, " memsize=", size_);
}

void
MainMemory::badElemSize(unsigned size)
{
    panic("bad element size ", size);
}

} // namespace liquid
