/**
 * @file
 * Flat functional memory backing the simulated system. Timing lives in
 * the cache models and the core; this class only stores bytes.
 */

#ifndef LIQUID_MEMORY_MAIN_MEMORY_HH
#define LIQUID_MEMORY_MAIN_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/bitfield.hh"
#include "common/types.hh"

namespace liquid
{

class Program;

/** Byte-addressable simulated memory. */
class MainMemory
{
  public:
    /** Create a memory covering [0, size) bytes. */
    explicit MainMemory(std::size_t size);

    /** Build a memory sized for @p prog and load its data image. */
    static MainMemory forProgram(const Program &prog,
                                 std::size_t slack = 1 << 16);

    /** Copy a program's static data image into place. */
    void loadProgram(const Program &prog);

    // Element accessors, inline for the simulators' per-instruction
    // path. Each checks the whole access before touching memory, so an
    // access with any byte out of bounds raises FatalError and writes
    // nothing.

    std::uint8_t
    readByte(Addr addr) const
    {
        check(addr, 1);
        return bytes_[addr];
    }

    std::uint16_t
    readHalf(Addr addr) const
    {
        check(addr, 2);
        return static_cast<std::uint16_t>(
            bytes_[addr] | (static_cast<unsigned>(bytes_[addr + 1]) << 8));
    }

    Word
    readWord(Addr addr) const
    {
        check(addr, 4);
        return static_cast<Word>(bytes_[addr]) |
               (static_cast<Word>(bytes_[addr + 1]) << 8) |
               (static_cast<Word>(bytes_[addr + 2]) << 16) |
               (static_cast<Word>(bytes_[addr + 3]) << 24);
    }

    void
    writeByte(Addr addr, std::uint8_t value)
    {
        check(addr, 1);
        bytes_[addr] = value;
    }

    void
    writeHalf(Addr addr, std::uint16_t value)
    {
        check(addr, 2);
        bytes_[addr] = static_cast<std::uint8_t>(value);
        bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    }

    void
    writeWord(Addr addr, Word value)
    {
        check(addr, 4);
        bytes_[addr] = static_cast<std::uint8_t>(value);
        bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
        bytes_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
        bytes_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
    }

    /**
     * Read one element of @p size bytes (1/2/4), zero- or sign-extended
     * into a register word.
     */
    Word
    readElem(Addr addr, unsigned size, bool sign_extend) const
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
            badElemSize(size);
        }
    }

    /** Write the low @p size bytes of @p value. */
    void
    writeElem(Addr addr, unsigned size, Word value)
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
            badElemSize(size);
        }
    }

    std::size_t size() const { return bytes_.size(); }

  private:
    void
    check(Addr addr, unsigned size) const
    {
        if (static_cast<std::size_t>(addr) + size > bytes_.size())
            [[unlikely]] outOfBounds(addr, size);
    }

    /** fatal(): [addr, addr + size) leaves the memory. */
    [[noreturn]] void outOfBounds(Addr addr, unsigned size) const;
    /** panic(): element sizes are 1, 2 or 4. */
    [[noreturn]] static void badElemSize(unsigned size);

    std::vector<std::uint8_t> bytes_;
};

} // namespace liquid

#endif // LIQUID_MEMORY_MAIN_MEMORY_HH
