/**
 * @file
 * Architectural register state: 32 scalar registers (r0..r15, f0..f15),
 * 32 vector registers (v0..v15, vf0..vf15) of up to 16 32-bit lanes,
 * and the condition flags.
 */

#ifndef LIQUID_CPU_REGFILE_HH
#define LIQUID_CPU_REGFILE_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace liquid
{

/** Maximum SIMD width any accelerator configuration may use. */
inline constexpr unsigned maxSimdWidth = 16;

/** One vector register's lanes. */
using VecValue = std::array<Word, maxSimdWidth>;

/** Does @p cond hold for condition state @p cmp (sign of a cmp)? */
inline bool
condHolds(Cond cond, int cmp)
{
    // Most instructions are unconditional: test that before the switch.
    if (cond == Cond::AL)
        return true;
    switch (cond) {
      case Cond::AL: return true;
      case Cond::EQ: return cmp == 0;
      case Cond::NE: return cmp != 0;
      case Cond::LT: return cmp < 0;
      case Cond::LE: return cmp <= 0;
      case Cond::GT: return cmp > 0;
      case Cond::GE: return cmp >= 0;
    }
    return true;
}

/** Architectural register file. */
class RegFile
{
  public:
    RegFile() { reset(); }

    void
    reset()
    {
        scalars_.fill(0);
        for (auto &v : vectors_)
            v.fill(0);
        cmpState_ = 0;
    }

    Word
    read(RegId reg) const
    {
        LIQUID_ASSERT(reg.isScalar(), "scalar read of ", regName(reg));
        return scalars_[scalarIndex(reg)];
    }

    void
    write(RegId reg, Word value)
    {
        LIQUID_ASSERT(reg.isScalar(), "scalar write of ", regName(reg));
        scalars_[scalarIndex(reg)] = value;
    }

    const VecValue &
    readVec(RegId reg) const
    {
        LIQUID_ASSERT(reg.isVector(), "vector read of ", regName(reg));
        return vectors_[vectorIndex(reg)];
    }

    void
    writeVec(RegId reg, const VecValue &value)
    {
        LIQUID_ASSERT(reg.isVector(), "vector write of ", regName(reg));
        vectors_[vectorIndex(reg)] = value;
    }

    // Flat-index access for predecoded operands (cpu/decode.hh): the
    // decoder has already checked each operand's class, so these skip
    // the per-access class asserts above.

    Word &scalarAt(unsigned flat) { return scalars_[flat]; }
    const Word *scalarData() const { return scalars_.data(); }
    VecValue &vectorAt(unsigned flat) { return vectors_[flat]; }

    /** Condition state from the last cmp: sign of (src1 - src2). */
    int cmpState() const { return cmpState_; }
    void setCmpState(int s) { cmpState_ = s; }

    /** Evaluate a condition against the current flags. */
    bool
    condHolds(Cond cond) const
    {
        return liquid::condHolds(cond, cmpState_);
    }

  private:
    static unsigned
    scalarIndex(RegId reg)
    {
        return (reg.cls() == RegClass::Flt ? regsPerClass : 0) + reg.idx();
    }

    static unsigned
    vectorIndex(RegId reg)
    {
        return (reg.cls() == RegClass::VFlt ? regsPerClass : 0) + reg.idx();
    }

    std::array<Word, 2 * regsPerClass> scalars_;
    std::array<VecValue, 2 * regsPerClass> vectors_;
    int cmpState_ = 0;
};

} // namespace liquid

#endif // LIQUID_CPU_REGFILE_HH
