#include "isa/opcodes.hh"

#include <array>
#include <map>

#include "common/logging.hh"

namespace liquid
{

namespace
{

using Op = Opcode;

constexpr OpInfo
dp(const char *name, unsigned lat, Op vec, Op red = Op::Nop)
{
    return OpInfo{name, false, false, false, false, true, false, false,
                  0, false, lat, vec, red, Op::Nop};
}

constexpr OpInfo
vdp(const char *name, unsigned lat, Op scalar)
{
    return OpInfo{name, false, false, false, true, true, false, false,
                  0, false, lat, Op::Nop, Op::Nop, scalar};
}

constexpr OpInfo
vred(const char *name, Op scalar)
{
    return OpInfo{name, false, false, false, true, true, true, false,
                  0, false, 1, Op::Nop, Op::Nop, scalar};
}

constexpr OpInfo
ld(const char *name, unsigned size, bool sgn, bool vec, Op other)
{
    OpInfo info{name, true, false, false, vec, false, false, false,
                size, sgn, 0, Op::Nop, Op::Nop, Op::Nop};
    if (vec)
        info.scalarEquiv = other;
    else
        info.vectorEquiv = other;
    return info;
}

constexpr OpInfo
st(const char *name, unsigned size, bool vec, Op other)
{
    OpInfo info{name, false, true, false, vec, false, false, false,
                size, false, 0, Op::Nop, Op::Nop, Op::Nop};
    if (vec)
        info.scalarEquiv = other;
    else
        info.vectorEquiv = other;
    return info;
}

constexpr std::array<OpInfo, static_cast<std::size_t>(Op::NumOpcodes)>
buildTable()
{
    std::array<OpInfo, static_cast<std::size_t>(Op::NumOpcodes)> t{};
    auto set = [&t](Op op, OpInfo info) {
        t[static_cast<std::size_t>(op)] = info;
    };

    set(Op::Nop, OpInfo{"nop", false, false, false, false, false, false,
                        false, 0, false, 0, Op::Nop, Op::Nop, Op::Nop});
    set(Op::Halt, OpInfo{"halt", false, false, false, false, false, false,
                         false, 0, false, 0, Op::Nop, Op::Nop, Op::Nop});

    // Scalar data processing. Latencies: single-cycle ALU, mul takes one
    // extra (ARM9 short multiply); float handled by the execute stage,
    // which adds class-dependent latency on top.
    set(Op::Mov, dp("mov", 0, Op::Nop));
    set(Op::Add, dp("add", 0, Op::Vadd));
    set(Op::Sub, dp("sub", 0, Op::Vsub));
    set(Op::Rsb, dp("rsb", 0, Op::Vrsb));
    set(Op::Mul, dp("mul", 1, Op::Vmul));
    set(Op::And, dp("and", 0, Op::Vand));
    set(Op::Orr, dp("orr", 0, Op::Vorr));
    set(Op::Eor, dp("eor", 0, Op::Veor));
    set(Op::Bic, dp("bic", 0, Op::Vbic));
    set(Op::Lsl, dp("lsl", 0, Op::Vlsl));
    set(Op::Lsr, dp("lsr", 0, Op::Vlsr));
    set(Op::Asr, dp("asr", 0, Op::Vasr));
    set(Op::Min, dp("min", 0, Op::Vmin, Op::Vredmin));
    set(Op::Max, dp("max", 0, Op::Vmax, Op::Vredmax));
    set(Op::Qadd, dp("qadd", 0, Op::Vqadd));
    set(Op::Qsub, dp("qsub", 0, Op::Vqsub));
    // Add doubles as the reduction carrier for sums.
    t[static_cast<std::size_t>(Op::Add)].reductionEquiv = Op::Vredadd;

    OpInfo cmp = dp("cmp", 0, Op::Nop);
    cmp.setsFlags = true;
    set(Op::Cmp, cmp);

    set(Op::B, OpInfo{"b", false, false, true, false, false, false, false,
                      0, false, 0, Op::Nop, Op::Nop, Op::Nop});
    set(Op::Bl, OpInfo{"bl", false, false, true, false, false, false,
                       false, 0, false, 0, Op::Nop, Op::Nop, Op::Nop});
    set(Op::Ret, OpInfo{"ret", false, false, true, false, false, false,
                        false, 0, false, 0, Op::Nop, Op::Nop, Op::Nop});

    set(Op::Ldb, ld("ldb", 1, false, false, Op::Vldb));
    set(Op::Ldsb, ld("ldsb", 1, true, false, Op::Vldsb));
    set(Op::Ldh, ld("ldh", 2, false, false, Op::Vldh));
    set(Op::Ldsh, ld("ldsh", 2, true, false, Op::Vldsh));
    set(Op::Ldw, ld("ldw", 4, false, false, Op::Vldw));
    set(Op::Stb, st("stb", 1, false, Op::Vstb));
    set(Op::Sth, st("sth", 2, false, Op::Vsth));
    set(Op::Stw, st("stw", 4, false, Op::Vstw));

    set(Op::Vadd, vdp("vadd", 0, Op::Add));
    set(Op::Vsub, vdp("vsub", 0, Op::Sub));
    set(Op::Vrsb, vdp("vrsb", 0, Op::Rsb));
    set(Op::Vmul, vdp("vmul", 1, Op::Mul));
    set(Op::Vand, vdp("vand", 0, Op::And));
    set(Op::Vorr, vdp("vorr", 0, Op::Orr));
    set(Op::Veor, vdp("veor", 0, Op::Eor));
    set(Op::Vbic, vdp("vbic", 0, Op::Bic));
    set(Op::Vlsl, vdp("vlsl", 0, Op::Lsl));
    set(Op::Vlsr, vdp("vlsr", 0, Op::Lsr));
    set(Op::Vasr, vdp("vasr", 0, Op::Asr));
    set(Op::Vmin, vdp("vmin", 0, Op::Min));
    set(Op::Vmax, vdp("vmax", 0, Op::Max));
    set(Op::Vqadd, vdp("vqadd", 0, Op::Qadd));
    set(Op::Vqsub, vdp("vqsub", 0, Op::Qsub));
    set(Op::Vmask, vdp("vmask", 0, Op::And));
    set(Op::Vperm, vdp("vperm", 0, Op::Nop));
    set(Op::Vredmin, vred("vredmin", Op::Min));
    set(Op::Vredmax, vred("vredmax", Op::Max));
    set(Op::Vredadd, vred("vredadd", Op::Add));

    set(Op::Vldb, ld("vldb", 1, false, true, Op::Ldb));
    set(Op::Vldsb, ld("vldsb", 1, true, true, Op::Ldsb));
    set(Op::Vldh, ld("vldh", 2, false, true, Op::Ldh));
    set(Op::Vldsh, ld("vldsh", 2, true, true, Op::Ldsh));
    set(Op::Vldw, ld("vldw", 4, false, true, Op::Ldw));
    set(Op::Vstb, st("vstb", 1, true, Op::Stb));
    set(Op::Vsth, st("vsth", 2, true, Op::Sth));
    set(Op::Vstw, st("vstw", 4, true, Op::Stw));

    // Fix vector load signedness flags (the ld() helper already set them
    // from its arguments; nothing further needed).
    return t;
}

} // namespace

namespace detail
{
constinit const std::array<OpInfo, static_cast<std::size_t>(
                                       Op::NumOpcodes)> opTable =
    buildTable();
} // namespace detail

const char *
condName(Cond cond)
{
    switch (cond) {
      case Cond::AL: return "";
      case Cond::EQ: return "eq";
      case Cond::NE: return "ne";
      case Cond::LT: return "lt";
      case Cond::LE: return "le";
      case Cond::GT: return "gt";
      case Cond::GE: return "ge";
    }
    return "";
}

Opcode
parseOpcodeName(const std::string &name)
{
    static const std::map<std::string, Opcode> byName = [] {
        std::map<std::string, Opcode> m;
        for (unsigned i = 0;
             i < static_cast<unsigned>(Opcode::NumOpcodes); ++i) {
            const auto op = static_cast<Opcode>(i);
            m[opInfo(op).name] = op;
        }
        return m;
    }();
    auto it = byName.find(name);
    return it == byName.end() ? Opcode::NumOpcodes : it->second;
}

DecodeClass
partialDecode(Opcode op)
{
    const OpInfo &info = opInfo(op);
    if (info.isVector)
        return DecodeClass::Vector;
    switch (op) {
      case Opcode::Bl: return DecodeClass::Call;
      case Opcode::Ret: return DecodeClass::Return;
      case Opcode::Mov: return DecodeClass::Mov;
      case Opcode::Cmp: return DecodeClass::Cmp;
      case Opcode::B: return DecodeClass::Branch;
      default: break;
    }
    if (info.isLoad)
        return DecodeClass::Load;
    if (info.isStore)
        return DecodeClass::Store;
    if (info.isDataProc)
        return DecodeClass::DataProc;
    return DecodeClass::Untranslatable;  // nop, halt
}

bool
parseCondName(const std::string &name, Cond &out)
{
    static const std::map<std::string, Cond> byName = {
        {"", Cond::AL}, {"al", Cond::AL}, {"eq", Cond::EQ},
        {"ne", Cond::NE}, {"lt", Cond::LT}, {"le", Cond::LE},
        {"gt", Cond::GT}, {"ge", Cond::GE},
    };
    auto it = byName.find(name);
    if (it == byName.end())
        return false;
    out = it->second;
    return true;
}

} // namespace liquid
