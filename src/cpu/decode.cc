#include "cpu/decode.hh"

#include "asm/program.hh"
#include "common/logging.hh"

namespace liquid
{

namespace
{

/** The interlock bit of @p reg (0 for an invalid register). */
std::uint64_t
regBit(RegId reg)
{
    return reg.isValid() ? std::uint64_t{1} << reg.flat() : 0;
}

/**
 * Builds one op. An operand of the wrong class makes it HIllegal (a
 * source), HIllegalDst (only the destination) or HVIllegal (any operand
 * of a vector op).
 */
struct Decoder
{
    const Inst &inst;
    DecodedOp op;
    bool illegal = false;     ///< a bad source, or no handler
    bool illegalDst = false;  ///< a bad destination

    std::uint8_t
    scalar(RegId reg)
    {
        return scalarOr(reg, illegal);
    }

    /** A scalar op's destination, written only when it executes. */
    std::uint8_t
    scalarDst(RegId reg)
    {
        return scalarOr(reg, illegalDst);
    }

    std::uint8_t
    scalarOr(RegId reg, bool &bad)
    {
        if (!reg.isScalar()) {
            bad = true;
            return 0;
        }
        return static_cast<std::uint8_t>(
            (reg.cls() == RegClass::Flt ? regsPerClass : 0) + reg.idx());
    }

    std::uint8_t
    vector(RegId reg)
    {
        if (!reg.isVector()) {
            illegal = true;
            return 0;
        }
        return static_cast<std::uint8_t>(
            (reg.cls() == RegClass::VFlt ? regsPerClass : 0) + reg.idx());
    }

    void
    mem()
    {
        op.esize = static_cast<std::uint8_t>(inst.elemSize());
        op.memBase = inst.mem.base;
        op.memDisp = inst.mem.disp;
        if (inst.mem.index.isValid())
            op.memIndex = scalar(inst.mem.index);
        if (inst.info().memSigned)
            op.flags |= DecodedOp::flagSigned;
    }

    void
    floatIf(bool is_float)
    {
        if (is_float)
            op.flags |= DecodedOp::flagFloat;
    }

    /** Float latency class of a data-processing op with float dst. */
    void
    floatLatencyIf(bool is_float, Opcode mul)
    {
        if (is_float) {
            op.floatLatency = inst.op == mul ? FloatLatency::Mul
                                             : FloatLatency::Add;
        }
    }

    void decodeVector();
    void decodeScalar();
};

void
Decoder::decodeVector()
{
    const OpInfo &info = inst.info();
    if (info.isLoad) {
        op.handler = HVLoad;
        op.dst = vector(inst.dst);
        mem();
    } else if (info.isStore) {
        op.handler = HVStore;
        op.src1 = vector(inst.src1);
        mem();
    } else if (info.isReduction) {
        op.handler = HVRed;
        op.dst = scalar(inst.dst);
        op.src1 = scalar(inst.src1);
        op.src2 = vector(inst.src2);
        floatIf(inst.dst.isFloat());
    } else if (inst.op == Opcode::Vperm || inst.op == Opcode::Vmask) {
        op.handler = inst.op == Opcode::Vperm ? HVPerm : HVMask;
        op.dst = vector(inst.dst);
        op.src1 = vector(inst.src1);
    } else if (info.isDataProc) {
        op.dst = vector(inst.dst);
        op.src1 = vector(inst.src1);
        floatIf(inst.dst.isFloat());
        floatLatencyIf(inst.dst.isFloat(), Opcode::Vmul);
        if (inst.cvec != noCvec) {
            op.handler = HVDpCvec;
        } else if (inst.hasImm) {
            op.handler = HVDpImm;
            op.imm = inst.imm;
        } else {
            op.handler = HVDpRR;
            op.src2 = vector(inst.src2);
        }
    } else {
        illegal = true;
    }
}

void
Decoder::decodeScalar()
{
    const OpInfo &info = inst.info();
    switch (inst.op) {
      case Opcode::Nop:
        op.handler = HNop;
        return;
      case Opcode::Halt:
        op.handler = HHalt;
        return;
      case Opcode::Mov:
        op.dst = scalarDst(inst.dst);
        if (inst.hasImm) {
            op.handler = HMovImm;
            op.imm = inst.imm;
        } else {
            op.handler = HMovReg;
            op.src1 = scalar(inst.src1);
        }
        return;
      case Opcode::Cmp:
        op.src1 = scalar(inst.src1);
        floatIf(inst.src1.isFloat());
        if (inst.hasImm) {
            op.handler = HCmpRI;
            op.imm = inst.imm;
        } else {
            op.handler = HCmpRR;
            op.src2 = scalar(inst.src2);
        }
        return;
      case Opcode::B:
        op.handler = HBranch;
        op.imm = inst.target;
        return;
      case Opcode::Bl:
        op.handler = HBl;
        op.imm = inst.target;
        op.memBase = Program::instAddr(inst.target);
        return;
      case Opcode::Ret:
        op.handler = HRet;
        return;
      default:
        break;
    }

    if (info.isLoad) {
        op.handler = HLoad;
        op.dst = scalarDst(inst.dst);
        mem();
    } else if (info.isStore) {
        op.handler = HStore;
        op.src1 = scalar(inst.src1);
        mem();
    } else if (info.isDataProc) {
        op.dst = scalarDst(inst.dst);
        op.src1 = scalar(inst.src1);
        floatIf(inst.dst.isFloat());
        floatLatencyIf(inst.dst.isFloat(), Opcode::Mul);
        if (inst.hasImm) {
            op.handler = HDpRI;
            op.imm = inst.imm;
        } else {
            op.handler = HDpRR;
            op.src2 = scalar(inst.src2);
        }
    } else {
        illegal = true;
    }
}

} // namespace

DecodedOp
decodeInst(const Inst &inst)
{
    Decoder d{inst, {}};
    DecodedOp &op = d.op;
    const OpInfo &info = inst.info();
    op.cond = inst.cond;
    op.op = inst.op;
    op.inst = &inst;
    op.extraLatency = static_cast<std::uint8_t>(info.extraLatency);

    // The load-use interlock's operand set: a store's data register,
    // a data-processing op's sources and a memory op's index.
    if (info.isStore)
        op.reads |= regBit(inst.src1);
    if (info.isDataProc) {
        op.reads |= regBit(inst.src1);
        if (!inst.hasImm)
            op.reads |= regBit(inst.src2);
    }
    if (info.isLoad || info.isStore)
        op.reads |= regBit(inst.mem.index);

    if (info.isVector)
        d.decodeVector();
    else
        d.decodeScalar();
    if (d.illegal)
        op.handler = info.isVector ? HVIllegal : HIllegal;
    else if (d.illegalDst)
        op.handler = HIllegalDst;
    return op;
}

DecodedOp
decodeSkippedDst(const DecodedOp &o)
{
    Inst legal = *o.inst;
    legal.dst = legal.dst.isVector() ? legal.dst.toScalar()
                                     : RegId(RegClass::Int, 0);
    DecodedOp op = decodeInst(legal);
    LIQUID_ASSERT(op.handler != HIllegal && op.handler != HIllegalDst,
                  "not a destination-only illegal op");
    op.inst = o.inst;
    return op;
}

std::vector<DecodedOp>
decodeAll(const std::vector<Inst> &code)
{
    std::vector<DecodedOp> ops;
    ops.reserve(code.size());
    for (const Inst &inst : code)
        ops.push_back(decodeInst(inst));
    return ops;
}

void
illegalOperands(const DecodedOp &o)
{
    panic("illegal operand register class in '", o.inst->toString(), "'");
}

} // namespace liquid
