/**
 * @file
 * Register identifiers for the Liquid SIMD ISA.
 *
 * The scalar ISA (ARM-flavoured) has 16 integer registers r0..r15 and 16
 * float registers f0..f15, following the paper's examples which use both
 * classes (Figure 4). The vector ISA mirrors them with v0..v15 and
 * vf0..vf15; the dynamic translator maps r<n> -> v<n> and f<n> -> vf<n>
 * exactly as in the paper's Table 4 walkthrough.
 */

#ifndef LIQUID_ISA_REGISTERS_HH
#define LIQUID_ISA_REGISTERS_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace liquid
{

/** Architectural register class. */
enum class RegClass : std::uint8_t
{
    Int,    ///< scalar integer r0..r15
    Flt,    ///< scalar float f0..f15
    Vec,    ///< vector integer v0..v15
    VFlt,   ///< vector float vf0..vf15
};

/** Number of registers in each class. */
inline constexpr unsigned regsPerClass = 16;

/** A (class, index) register identifier. */
class RegId
{
  public:
    constexpr RegId() : valid_(false), cls_(RegClass::Int), idx_(0) {}

    constexpr RegId(RegClass cls, unsigned idx)
        : valid_(true), cls_(cls), idx_(static_cast<std::uint8_t>(idx))
    {
    }

    static constexpr RegId invalid() { return RegId(); }

    constexpr bool isValid() const { return valid_; }
    constexpr RegClass cls() const { return cls_; }
    constexpr unsigned idx() const { return idx_; }

    constexpr bool isScalar() const
    {
        return valid_ && (cls_ == RegClass::Int || cls_ == RegClass::Flt);
    }

    constexpr bool isVector() const
    {
        return valid_ && (cls_ == RegClass::Vec || cls_ == RegClass::VFlt);
    }

    constexpr bool isFloat() const
    {
        return valid_ && (cls_ == RegClass::Flt || cls_ == RegClass::VFlt);
    }

    /**
     * Flat register number, 0..63: class in the high two bits. Used to
     * index the translator's register-state table and the encoder.
     */
    constexpr unsigned
    flat() const
    {
        return (static_cast<unsigned>(cls_) << 4) | idx_;
    }

    static constexpr RegId
    fromFlat(unsigned flat)
    {
        return RegId(static_cast<RegClass>((flat >> 4) & 0x3), flat & 0xF);
    }

    /** The vector register this scalar register virtualizes (r->v, f->vf). */
    constexpr RegId
    toVector() const
    {
        LIQUID_ASSERT(isScalar());
        return RegId(cls_ == RegClass::Int ? RegClass::Vec : RegClass::VFlt,
                     idx_);
    }

    /** Inverse of toVector(). */
    constexpr RegId
    toScalar() const
    {
        LIQUID_ASSERT(isVector());
        return RegId(cls_ == RegClass::Vec ? RegClass::Int : RegClass::Flt,
                     idx_);
    }

    constexpr bool
    operator==(const RegId &other) const
    {
        if (valid_ != other.valid_)
            return false;
        if (!valid_)
            return true;
        return cls_ == other.cls_ && idx_ == other.idx_;
    }

    constexpr bool operator!=(const RegId &other) const
    {
        return !(*this == other);
    }

  private:
    bool valid_;
    RegClass cls_;
    std::uint8_t idx_;
};

/** Printable name, e.g. "r3", "vf0"; "--" if invalid. */
std::string regName(RegId reg);

/** Parse a register name; returns invalid() if unrecognized. */
RegId parseRegName(const std::string &name);

/** A set of architectural registers, keyed by RegId::flat(). */
class RegSet
{
  public:
    void
    add(RegId reg)
    {
        if (reg.isValid())
            bits_ |= 1ull << reg.flat();
    }

    bool
    contains(RegId reg) const
    {
        return reg.isValid() && (bits_ & (1ull << reg.flat()));
    }

    bool empty() const { return bits_ == 0; }
    unsigned count() const { return std::popcount(bits_); }

    /** One bit per member, bit RegId::flat(). */
    std::uint64_t bits() const { return bits_; }

    RegSet &
    operator|=(const RegSet &o)
    {
        bits_ |= o.bits_;
        return *this;
    }

    RegSet &
    operator&=(const RegSet &o)
    {
        bits_ &= o.bits_;
        return *this;
    }

    /** Set difference: registers in this set but not in @p o. */
    RegSet
    minus(const RegSet &o) const
    {
        RegSet r;
        r.bits_ = bits_ & ~o.bits_;
        return r;
    }

    bool operator==(const RegSet &o) const { return bits_ == o.bits_; }

    /** Members in flat order. */
    std::vector<RegId> regs() const;

    /** Members restricted to one register class. */
    RegSet
    ofClass(RegClass cls) const
    {
        RegSet r;
        r.bits_ = bits_ & (0xFFFFull << RegId(cls, 0).flat());
        return r;
    }

    /** True if any member is a vector-class register (flat 32..63). */
    bool anyVector() const { return (bits_ >> 32) != 0; }

    /** Comma-separated register names, e.g. "r1, f2"; "-" if empty. */
    std::string str() const;

  private:
    std::uint64_t bits_ = 0;
};

} // namespace liquid

#endif // LIQUID_ISA_REGISTERS_HH
