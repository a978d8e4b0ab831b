#include "cpu/decode.hh"

#include "asm/program.hh"
#include "common/logging.hh"

namespace liquid
{

namespace
{

/** Builds one op from an instruction that keeps the class rule. */
struct Decoder
{
    const Inst &inst;
    DecodedOp op;

    /** @p reg's index in its file (regfile.hh: floats at regsPerClass). */
    static std::uint8_t
    fileIndex(RegId reg)
    {
        return static_cast<std::uint8_t>(
            (reg.isFloat() ? regsPerClass : 0) + reg.idx());
    }

    void
    mem()
    {
        op.esize = static_cast<std::uint8_t>(inst.elemSize());
        op.memBase = inst.mem.base;
        op.memDisp = inst.mem.disp;
        if (inst.mem.index.isValid())
            op.memIndex = fileIndex(inst.mem.index);
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
        op.dst = fileIndex(inst.dst);
        mem();
    } else if (info.isStore) {
        op.handler = HVStore;
        op.src1 = fileIndex(inst.src1);
        mem();
    } else if (info.isReduction) {
        op.handler = HVRed;
        op.dst = fileIndex(inst.dst);
        op.src1 = fileIndex(inst.src1);
        op.src2 = fileIndex(inst.src2);
        floatIf(inst.dst.isFloat());
    } else if (inst.op == Opcode::Vperm || inst.op == Opcode::Vmask) {
        op.handler = inst.op == Opcode::Vperm ? HVPerm : HVMask;
        op.dst = fileIndex(inst.dst);
        op.src1 = fileIndex(inst.src1);
    } else if (info.isDataProc) {
        op.dst = fileIndex(inst.dst);
        op.src1 = fileIndex(inst.src1);
        floatIf(inst.dst.isFloat());
        floatLatencyIf(inst.dst.isFloat(), Opcode::Vmul);
        if (inst.cvec != noCvec) {
            op.handler = HVDpCvec;
        } else if (inst.hasImm) {
            op.handler = HVDpImm;
            op.imm = inst.imm;
        } else {
            op.handler = HVDpRR;
            op.src2 = fileIndex(inst.src2);
        }
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
        op.dst = fileIndex(inst.dst);
        if (inst.hasImm) {
            op.handler = HMovImm;
            op.imm = inst.imm;
        } else {
            op.handler = HMovReg;
            op.src1 = fileIndex(inst.src1);
        }
        return;
      case Opcode::Cmp:
        op.src1 = fileIndex(inst.src1);
        floatIf(inst.src1.isFloat());
        if (inst.hasImm) {
            op.handler = HCmpRI;
            op.imm = inst.imm;
        } else {
            op.handler = HCmpRR;
            op.src2 = fileIndex(inst.src2);
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
        op.dst = fileIndex(inst.dst);
        mem();
    } else if (info.isStore) {
        op.handler = HStore;
        op.src1 = fileIndex(inst.src1);
        mem();
    } else if (info.isDataProc) {
        op.dst = fileIndex(inst.dst);
        op.src1 = fileIndex(inst.src1);
        floatIf(inst.dst.isFloat());
        floatLatencyIf(inst.dst.isFloat(), Opcode::Mul);
        if (inst.hasImm) {
            op.handler = HDpRI;
            op.imm = inst.imm;
        } else {
            op.handler = HDpRR;
            op.src2 = fileIndex(inst.src2);
        }
    }
}

} // namespace

InstEffects
instEffects(const Inst &inst)
{
    InstEffects fx;
    fx.cond = inst.cond;
    switch (inst.op) {
      case Opcode::B:
        fx.control = Control::Branch;
        return fx;
      case Opcode::Bl:
        fx.control = Control::Call;
        return fx;
      case Opcode::Ret:
        fx.control = Control::Return;
        return fx;
      case Opcode::Halt:
        fx.control = Control::Halt;
        return fx;
      default:
        break;
    }

    // A store's data register, a data-processing op's sources and a
    // memory op's index; a load's or data-processing op's destination,
    // but not cmp's, which writes only the flags. A reduction carries
    // its accumulator in src1 (dst = red(dst, src2)); add() skips the
    // operands an op leaves invalid, such as mov #imm's src1.
    const OpInfo &info = inst.info();
    if (info.isStore)
        fx.reads.add(inst.src1);
    if (info.isDataProc) {
        fx.reads.add(inst.src1);
        if (!inst.hasImm)
            fx.reads.add(inst.src2);
    }
    if (info.isLoad || info.isStore)
        fx.reads.add(inst.mem.index);
    if ((info.isDataProc && !info.setsFlags) || info.isLoad)
        fx.writes.add(inst.dst);
    return fx;
}

DecodedOp
decodeInst(const Inst &inst)
{
    if (const char *bad = operandClassError(inst)) [[unlikely]]
        panic("decode of '", inst.toString(), "': ", bad);
    Decoder d{inst, {}};
    DecodedOp &op = d.op;
    const OpInfo &info = inst.info();
    op.cond = inst.cond;
    op.op = inst.op;
    op.inst = &inst;
    op.extraLatency = static_cast<std::uint8_t>(info.extraLatency);
    op.reads = instEffects(inst).reads.bits();

    if (info.isVector)
        d.decodeVector();
    else
        d.decodeScalar();
    LIQUID_ASSERT(op.handler != HInvalid, "no handler for '",
                  inst.toString(), "'");
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
fatalTopLevelRet(int pc)
{
    fatal("ret at pc ", pc, " with an empty call stack: a top-level "
          "ret has no caller to return to (end the program with halt)");
}

void
fatalPcOutOfRange(int pc, std::size_t size)
{
    fatal("pc ", pc, " is outside the program text of ", size,
          " instruction(s): the program ran off its end without a halt");
}

} // namespace liquid
