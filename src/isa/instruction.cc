#include "isa/instruction.hh"

#include <sstream>

#include "common/logging.hh"

namespace liquid
{

bool
Inst::operator==(const Inst &o) const
{
    return op == o.op && cond == o.cond && dst == o.dst &&
           src1 == o.src1 && src2 == o.src2 && hasImm == o.hasImm &&
           (!hasImm || imm == o.imm) && (!isMem() || mem == o.mem) &&
           (!isBranch() || target == o.target) && hinted == o.hinted &&
           permKind == o.permKind && permBlock == o.permBlock &&
           maskBits == o.maskBits && maskBlock == o.maskBlock &&
           cvec == o.cvec;
}

namespace
{

std::string
memString(const Inst &inst)
{
    std::ostringstream os;
    os << '[';
    if (!inst.mem.baseSym.empty())
        os << inst.mem.baseSym;
    else
        os << "0x" << std::hex << inst.mem.base << std::dec;
    if (inst.mem.index.isValid())
        os << " + " << regName(inst.mem.index);
    if (inst.mem.disp != 0)
        os << " + #" << inst.mem.disp;
    os << ']';
    return os.str();
}

} // namespace

const char *
operandClassError(const Inst &inst)
{
    const OpInfo &info = inst.info();
    if ((info.isLoad || info.isStore) && inst.mem.index.isValid() &&
        !inst.mem.index.isScalar())
        return "memory index must be a scalar register (r or f)";

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::B:
      case Opcode::Bl:
      case Opcode::Ret:
        return nullptr;
      case Opcode::Cmp:
        if (!inst.src1.isScalar() ||
            (!inst.hasImm && !inst.src2.isScalar()))
            return "source must be a scalar register (r or f)";
        return nullptr;
      default:
        break;
    }

    if (info.isReduction) {
        if (!inst.dst.isScalar() || !inst.src1.isScalar()) {
            return "reduction accumulator must be a scalar register "
                   "(r or f)";
        }
        if (!inst.src2.isVector())
            return "reduction source must be a vector register (v or vf)";
        return nullptr;
    }

    const bool vec = info.isVector;
    auto fits = [vec](RegId reg) {
        return vec ? reg.isVector() : reg.isScalar();
    };
    const char *bad_src = vec ? "source must be a vector register (v or vf)"
                              : "source must be a scalar register (r or f)";
    if (info.isStore)
        return fits(inst.src1) ? nullptr : bad_src;
    if (!fits(inst.dst)) {
        return vec ? "destination must be a vector register (v or vf)"
                   : "destination must be a scalar register (r or f)";
    }
    if (info.isLoad)
        return nullptr;

    // mov, vperm, vmask and the data-processing ops. A mov's immediate
    // replaces its source; a vector op's constant vector, like any
    // immediate, replaces the second source.
    const bool reg_src1 = inst.op != Opcode::Mov || !inst.hasImm;
    const bool reg_src2 = inst.op != Opcode::Mov &&
                          inst.op != Opcode::Vperm &&
                          inst.op != Opcode::Vmask && !inst.hasImm &&
                          !(vec && inst.cvec != noCvec);
    if ((reg_src1 && !fits(inst.src1)) || (reg_src2 && !fits(inst.src2)))
        return bad_src;
    return nullptr;
}

std::string
Inst::toString() const
{
    std::ostringstream os;
    const OpInfo &i = info();
    os << i.name << condName(cond);

    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
        return os.str();
      case Opcode::B:
        os << ' ' << (targetSym.empty() ? std::to_string(target)
                                        : targetSym);
        return os.str();
      case Opcode::Bl:
        if (hinted) {
            os << ".simd";
            if (blWidthHint)
                os << static_cast<unsigned>(blWidthHint);
        }
        os << ' '
           << (targetSym.empty() ? std::to_string(target) : targetSym);
        return os.str();
      case Opcode::Cmp:
        os << ' ' << regName(src1) << ", ";
        if (hasImm)
            os << '#' << imm;
        else
            os << regName(src2);
        return os.str();
      case Opcode::Vperm:
        os << '.' << permKindName(permKind)
           << static_cast<unsigned>(permBlock) << ' ' << regName(dst)
           << ", " << regName(src1);
        return os.str();
      case Opcode::Vmask:
        os << ' ' << regName(dst) << ", " << regName(src1) << ", #0x"
           << std::hex << maskBits << std::dec << '/'
           << static_cast<unsigned>(maskBlock);
        return os.str();
      default:
        break;
    }

    if (i.isLoad) {
        os << ' ' << regName(dst) << ", " << memString(*this);
        return os.str();
    }
    if (i.isStore) {
        os << ' ' << memString(*this) << ", " << regName(src1);
        return os.str();
    }

    // Reductions fold into the destination: print the paper's
    // two-operand form.
    if (i.isReduction) {
        os << ' ' << regName(dst) << ", " << regName(src2);
        return os.str();
    }

    // Data processing (incl. mov).
    os << ' ' << regName(dst);
    if (op == Opcode::Mov) {
        os << ", ";
        if (hasImm)
            os << '#' << imm;
        else
            os << regName(src1);
        return os.str();
    }
    os << ", " << regName(src1) << ", ";
    if (cvec != noCvec)
        os << "cv#" << cvec;
    else if (hasImm)
        os << '#' << imm;
    else
        os << regName(src2);
    return os.str();
}

Inst
Inst::movImm(RegId dst, std::int32_t imm, Cond cond)
{
    Inst inst;
    inst.op = Opcode::Mov;
    inst.cond = cond;
    inst.dst = dst;
    inst.hasImm = true;
    inst.imm = imm;
    return inst;
}

Inst
Inst::movReg(RegId dst, RegId src, Cond cond)
{
    Inst inst;
    inst.op = Opcode::Mov;
    inst.cond = cond;
    inst.dst = dst;
    inst.src1 = src;
    return inst;
}

Inst
Inst::dp(Opcode op, RegId dst, RegId src1, RegId src2)
{
    LIQUID_ASSERT(opInfo(op).isDataProc);
    Inst inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = src1;
    inst.src2 = src2;
    return inst;
}

Inst
Inst::dpImm(Opcode op, RegId dst, RegId src1, std::int32_t imm)
{
    LIQUID_ASSERT(opInfo(op).isDataProc);
    Inst inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = src1;
    inst.hasImm = true;
    inst.imm = imm;
    return inst;
}

Inst
Inst::dpCvec(Opcode op, RegId dst, RegId src1, std::uint32_t cvec_id)
{
    LIQUID_ASSERT(opInfo(op).isVector && opInfo(op).isDataProc);
    Inst inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = src1;
    inst.cvec = cvec_id;
    return inst;
}

Inst
Inst::cmpReg(RegId src1, RegId src2)
{
    Inst inst;
    inst.op = Opcode::Cmp;
    inst.src1 = src1;
    inst.src2 = src2;
    return inst;
}

Inst
Inst::cmpImm(RegId src1, std::int32_t imm)
{
    Inst inst;
    inst.op = Opcode::Cmp;
    inst.src1 = src1;
    inst.hasImm = true;
    inst.imm = imm;
    return inst;
}

Inst
Inst::load(Opcode op, RegId dst, MemRef mem)
{
    LIQUID_ASSERT(opInfo(op).isLoad);
    Inst inst;
    inst.op = op;
    inst.dst = dst;
    inst.mem = std::move(mem);
    return inst;
}

Inst
Inst::store(Opcode op, RegId src, MemRef mem)
{
    LIQUID_ASSERT(opInfo(op).isStore);
    Inst inst;
    inst.op = op;
    inst.src1 = src;
    inst.mem = std::move(mem);
    return inst;
}

Inst
Inst::branch(Cond cond, std::int32_t target, std::string sym)
{
    Inst inst;
    inst.op = Opcode::B;
    inst.cond = cond;
    inst.target = target;
    inst.targetSym = std::move(sym);
    return inst;
}

Inst
Inst::call(std::int32_t target, bool hinted, std::string sym,
           unsigned width_hint)
{
    Inst inst;
    inst.op = Opcode::Bl;
    inst.target = target;
    inst.hinted = hinted;
    inst.targetSym = std::move(sym);
    inst.blWidthHint = static_cast<std::uint8_t>(width_hint);
    return inst;
}

Inst
Inst::ret()
{
    Inst inst;
    inst.op = Opcode::Ret;
    return inst;
}

Inst
Inst::halt()
{
    Inst inst;
    inst.op = Opcode::Halt;
    return inst;
}

Inst
Inst::nop()
{
    return Inst{};
}

Inst
Inst::vperm(RegId dst, RegId src, PermKind kind, unsigned block)
{
    Inst inst;
    inst.op = Opcode::Vperm;
    inst.dst = dst;
    inst.src1 = src;
    inst.permKind = kind;
    inst.permBlock = static_cast<std::uint8_t>(block);
    return inst;
}

Inst
Inst::vmask(RegId dst, RegId src, std::uint32_t bits, unsigned block)
{
    Inst inst;
    inst.op = Opcode::Vmask;
    inst.dst = dst;
    inst.src1 = src;
    inst.maskBits = bits;
    inst.maskBlock = static_cast<std::uint8_t>(block);
    return inst;
}

Inst
Inst::vred(Opcode op, RegId scalar_dst, RegId vec_src)
{
    LIQUID_ASSERT(opInfo(op).isReduction);
    Inst inst;
    inst.op = op;
    inst.dst = scalar_dst;
    inst.src1 = scalar_dst;
    inst.src2 = vec_src;
    return inst;
}

} // namespace liquid
