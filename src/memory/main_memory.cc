#include "memory/main_memory.hh"

#include "asm/program.hh"
#include "common/bitfield.hh"

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
MainMemory::check(Addr addr, unsigned size) const
{
    if (static_cast<std::size_t>(addr) + size > bytes_.size()) {
        fatal("memory access out of bounds: addr=0x", std::hex, addr,
              " size=", std::dec, size, " memsize=", bytes_.size());
    }
}

std::uint8_t
MainMemory::readByte(Addr addr) const
{
    check(addr, 1);
    return bytes_[addr];
}

std::uint16_t
MainMemory::readHalf(Addr addr) const
{
    check(addr, 2);
    return static_cast<std::uint16_t>(bytes_[addr]) |
           (static_cast<std::uint16_t>(bytes_[addr + 1]) << 8);
}

Word
MainMemory::readWord(Addr addr) const
{
    check(addr, 4);
    return static_cast<Word>(bytes_[addr]) |
           (static_cast<Word>(bytes_[addr + 1]) << 8) |
           (static_cast<Word>(bytes_[addr + 2]) << 16) |
           (static_cast<Word>(bytes_[addr + 3]) << 24);
}

void
MainMemory::writeByte(Addr addr, std::uint8_t value)
{
    check(addr, 1);
    bytes_[addr] = value;
}

void
MainMemory::writeHalf(Addr addr, std::uint16_t value)
{
    writeByte(addr, static_cast<std::uint8_t>(value));
    writeByte(addr + 1, static_cast<std::uint8_t>(value >> 8));
}

void
MainMemory::writeWord(Addr addr, Word value)
{
    writeHalf(addr, static_cast<std::uint16_t>(value));
    writeHalf(addr + 2, static_cast<std::uint16_t>(value >> 16));
}

Word
MainMemory::readElem(Addr addr, unsigned size, bool sign_extend) const
{
    switch (size) {
      case 1: {
        const std::uint8_t b = readByte(addr);
        return sign_extend ? static_cast<Word>(sext(b, 8)) : b;
      }
      case 2: {
        const std::uint16_t h = readHalf(addr);
        return sign_extend ? static_cast<Word>(sext(h, 16)) : h;
      }
      case 4:
        return readWord(addr);
      default:
        panic("bad element size ", size);
    }
}

void
MainMemory::writeElem(Addr addr, unsigned size, Word value)
{
    switch (size) {
      case 1:
        writeByte(addr, static_cast<std::uint8_t>(value));
        break;
      case 2:
        writeHalf(addr, static_cast<std::uint16_t>(value));
        break;
      case 4:
        writeWord(addr, value);
        break;
      default:
        panic("bad element size ", size);
    }
}

} // namespace liquid
