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
    // nothing. An access that lies wholly in the eagerly backed region
    // costs one compare; the lazy low region and accesses straddling
    // its end take the out-of-line slow path.

    std::uint8_t
    readByte(Addr addr) const
    {
        if (const std::uint8_t *p = eager(addr, 1)) [[likely]]
            return p[0];
        return static_cast<std::uint8_t>(readSlow(addr, 1));
    }

    std::uint16_t
    readHalf(Addr addr) const
    {
        if (const std::uint8_t *p = eager(addr, 2)) [[likely]]
            return static_cast<std::uint16_t>(
                p[0] | (static_cast<unsigned>(p[1]) << 8));
        return static_cast<std::uint16_t>(readSlow(addr, 2));
    }

    Word
    readWord(Addr addr) const
    {
        if (const std::uint8_t *p = eager(addr, 4)) [[likely]] {
            return static_cast<Word>(p[0]) |
                   (static_cast<Word>(p[1]) << 8) |
                   (static_cast<Word>(p[2]) << 16) |
                   (static_cast<Word>(p[3]) << 24);
        }
        return readSlow(addr, 4);
    }

    void
    writeByte(Addr addr, std::uint8_t value)
    {
        if (std::uint8_t *p = eager(addr, 1)) [[likely]]
            p[0] = value;
        else
            writeSlow(addr, 1, value);
    }

    void
    writeHalf(Addr addr, std::uint16_t value)
    {
        if (std::uint8_t *p = eager(addr, 2)) [[likely]] {
            p[0] = static_cast<std::uint8_t>(value);
            p[1] = static_cast<std::uint8_t>(value >> 8);
        } else {
            writeSlow(addr, 2, value);
        }
    }

    void
    writeWord(Addr addr, Word value)
    {
        if (std::uint8_t *p = eager(addr, 4)) [[likely]] {
            p[0] = static_cast<std::uint8_t>(value);
            p[1] = static_cast<std::uint8_t>(value >> 8);
            p[2] = static_cast<std::uint8_t>(value >> 16);
            p[3] = static_cast<std::uint8_t>(value >> 24);
        } else {
            writeSlow(addr, 4, value);
        }
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

    std::size_t size() const { return size_; }

  private:
    /**
     * The bytes of [addr, addr + size) when they lie wholly in the
     * eager region [eagerBase_, size_), else null. Addresses are 32-bit,
     * so an access below eagerBase_ wraps to an offset near 2^32, far
     * past any eager region: one compare covers both ends.
     */
    const std::uint8_t *
    eager(Addr addr, unsigned size) const
    {
        const std::uint64_t off = static_cast<Addr>(addr - eagerBase_);
        return off + size <= eager_.size() ? eager_.data() + off : nullptr;
    }

    std::uint8_t *
    eager(Addr addr, unsigned size)
    {
        return const_cast<std::uint8_t *>(
            static_cast<const MainMemory *>(this)->eager(addr, size));
    }

    /** Little-endian read of @p size bytes outside the eager region. */
    Word readSlow(Addr addr, unsigned size) const;
    /** Little-endian write of @p size bytes outside the eager region. */
    void writeSlow(Addr addr, unsigned size, Word value);

    /** fatal(): [addr, addr + size) leaves the memory. */
    [[noreturn]] void outOfBounds(Addr addr, unsigned size) const;
    /** panic(): element sizes are 1, 2 or 4. */
    [[noreturn]] static void badElemSize(unsigned size);

    std::size_t size_ = 0;
    /**
     * Start of the eagerly backed region: Program::dataBase when the
     * memory reaches past it, else 0. Programs keep code below
     * dataBase and never touch those bytes as data, so they read as
     * zero and get backing store only on their first write.
     */
    Addr eagerBase_ = 0;
    std::vector<std::uint8_t> eager_;  ///< [eagerBase_, size_)
    std::vector<std::uint8_t> low_;    ///< [0, eagerBase_), once written
};

} // namespace liquid

#endif // LIQUID_MEMORY_MAIN_MEMORY_HH
