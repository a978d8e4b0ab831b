/**
 * @file
 * Pure evaluation semantics for scalar and vector operations, shared by
 * the core, the golden-model interpreters in tests, and the translator's
 * verification logic. Float semantics are selected by the destination
 * register class (paper-style `mult f2, f2, f0`); bitwise operations
 * always act on raw bits.
 */

#ifndef LIQUID_CPU_EXEC_HH
#define LIQUID_CPU_EXEC_HH

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "cpu/regfile.hh"
#include "isa/instruction.hh"

namespace liquid
{

/** Signed 16-bit saturation bounds used by qadd/qsub (audio-style). */
inline constexpr SWord satMax = 32767;
inline constexpr SWord satMin = -32768;

/**
 * Evaluate a scalar data-processing operation. Inline: both simulator
 * tiers call it once per retired data-processing instruction.
 * @param use_float float semantics for the arithmetic subset.
 */
inline Word
evalScalarOp(Opcode op, Word a, Word b, bool use_float)
{
    if (use_float) {
        const float fa = bitsToFloat(a);
        const float fb = bitsToFloat(b);
        switch (op) {
          case Opcode::Add: return floatToBits(fa + fb);
          case Opcode::Sub: return floatToBits(fa - fb);
          case Opcode::Rsb: return floatToBits(fb - fa);
          case Opcode::Mul: return floatToBits(fa * fb);
          case Opcode::Min: return floatToBits(std::min(fa, fb));
          case Opcode::Max: return floatToBits(std::max(fa, fb));
          default:
            break;  // bitwise and shifts fall through to raw handling
        }
    }

    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    switch (op) {
      case Opcode::Mov: return b;
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::Rsb: return b - a;
      case Opcode::Mul: return a * b;
      case Opcode::And: return a & b;
      case Opcode::Orr: return a | b;
      case Opcode::Eor: return a ^ b;
      case Opcode::Bic: return a & ~b;
      case Opcode::Lsl: return b >= 32 ? 0 : a << (b & 31);
      case Opcode::Lsr: return b >= 32 ? 0 : a >> (b & 31);
      case Opcode::Asr:
        return static_cast<Word>(sa >> std::min<Word>(b, 31));
      case Opcode::Min: return static_cast<Word>(std::min(sa, sb));
      case Opcode::Max: return static_cast<Word>(std::max(sa, sb));
      // Saturation clamps the 32-bit *wrapped* sum/difference, not the
      // widened one: the architectural definition of qadd/qsub is the
      // scalar cmp/conditional-mov idiom the scalarizer emits (add,
      // clamp to [satMin, satMax]), and the translator rewrites that
      // idiom to Vqadd/Vqsub claiming bit-exact equivalence — which
      // only holds if the vector op reproduces the idiom's wraparound
      // on 32-bit overflow. (Found by liquid-proof translation
      // validation and confirmed by the chaos oracle: widen-then-clamp
      // diverges at e.g. INT_MAX + 1.)
      case Opcode::Qadd:
        return static_cast<Word>(std::clamp<SWord>(
            static_cast<SWord>(a + b), satMin, satMax));
      case Opcode::Qsub:
        return static_cast<Word>(std::clamp<SWord>(
            static_cast<SWord>(a - b), satMin, satMax));
      default:
        panic("evalScalarOp: not a data-processing opcode: ", opName(op));
    }
}

/** Compare for cmp: sign of (a - b), float-aware. */
inline int
evalCompare(Word a, Word b, bool use_float)
{
    if (use_float) {
        const float fa = bitsToFloat(a);
        const float fb = bitsToFloat(b);
        return fa < fb ? -1 : (fa == fb ? 0 : 1);
    }
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    return sa < sb ? -1 : (sa == sb ? 0 : 1);
}

/** Elementwise vector op over @p width lanes. */
VecValue evalVectorOp(Opcode op, const VecValue &a, const VecValue &b,
                      unsigned width, bool use_float);

/** Vector op against a periodic constant vector. */
VecValue evalVectorConstOp(Opcode op, const VecValue &a,
                           const ConstVec &cv, unsigned width,
                           bool use_float);

/** Reduction: fold @p width lanes of @p v into @p acc. */
Word evalReduction(Opcode red_op, Word acc, const VecValue &v,
                   unsigned width, bool use_float);

/** Block-periodic permutation. */
VecValue evalPerm(const VecValue &src, PermKind kind, unsigned block,
                  unsigned width);

/** Lane masking: keep lane i iff bit (i % block) of @p bits is set. */
VecValue evalMask(const VecValue &src, std::uint32_t bits, unsigned block,
                  unsigned width);

/** The inverse permutation kind (store-side permutations). */
PermKind permInverse(PermKind kind);

} // namespace liquid

#endif // LIQUID_CPU_EXEC_HH
