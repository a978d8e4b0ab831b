#include "cpu/exec.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace liquid
{

VecValue
evalVectorOp(Opcode op, const VecValue &a, const VecValue &b,
             unsigned width, bool use_float)
{
    const Opcode scalar_op = opInfo(op).scalarEquiv;
    LIQUID_ASSERT(scalar_op != Opcode::Nop,
                  "no scalar equivalent for ", opName(op));
    VecValue out{};
    for (unsigned i = 0; i < width; ++i)
        out[i] = evalScalarOp(scalar_op, a[i], b[i], use_float);
    return out;
}

VecValue
evalVectorConstOp(Opcode op, const VecValue &a, const ConstVec &cv,
                  unsigned width, bool use_float)
{
    const Opcode scalar_op = opInfo(op).scalarEquiv;
    LIQUID_ASSERT(scalar_op != Opcode::Nop);
    LIQUID_ASSERT(!cv.lanes.empty());
    VecValue out{};
    for (unsigned i = 0; i < width; ++i) {
        out[i] = evalScalarOp(scalar_op, a[i], cv.lanes[i % cv.lanes.size()],
                              use_float);
    }
    return out;
}

Word
evalReduction(Opcode red_op, Word acc, const VecValue &v, unsigned width,
              bool use_float)
{
    const Opcode scalar_op = opInfo(red_op).scalarEquiv;
    LIQUID_ASSERT(scalar_op != Opcode::Nop,
                  "bad reduction opcode ", opName(red_op));
    Word out = acc;
    for (unsigned i = 0; i < width; ++i)
        out = evalScalarOp(scalar_op, out, v[i], use_float);
    return out;
}

VecValue
evalPerm(const VecValue &src, PermKind kind, unsigned block,
         unsigned width)
{
    LIQUID_ASSERT(block >= 2 && block <= width && width % block == 0,
                  "permutation block ", block, " illegal at width ", width);
    VecValue out{};
    for (unsigned i = 0; i < width; ++i) {
        const unsigned base = (i / block) * block;
        out[i] = src[base + permSourceLane(kind, block, i % block)];
    }
    return out;
}

VecValue
evalMask(const VecValue &src, std::uint32_t bits, unsigned block,
         unsigned width)
{
    LIQUID_ASSERT(block >= 1 && block <= width,
                  "mask block ", block, " illegal at width ", width);
    VecValue out{};
    for (unsigned i = 0; i < width; ++i)
        out[i] = ((bits >> (i % block)) & 1u) ? src[i] : 0;
    return out;
}

PermKind
permInverse(PermKind kind)
{
    switch (kind) {
      case PermKind::SwapHalves:
      case PermKind::SwapPairs:
      case PermKind::Reverse:
        return kind;  // involutions
      case PermKind::RotUp:
        return PermKind::RotDown;
      case PermKind::RotDown:
        return PermKind::RotUp;
      case PermKind::NumKinds:
        break;
    }
    panic("bad permutation kind");
}

} // namespace liquid
