/**
 * @file
 * The instruction representation shared by the assembler, the pipeline
 * model, the dynamic translator and the scalarizer.
 *
 * Instructions are held decoded (gem5-style StaticInst flavour) rather
 * than as encoded words; each occupies 4 architectural bytes for code
 * size accounting, matching the paper's 32-bit instructions.
 */

#ifndef LIQUID_ISA_INSTRUCTION_HH
#define LIQUID_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/perm.hh"
#include "isa/registers.hh"

namespace liquid
{

/** Sentinel: instruction has no constant-vector operand. */
inline constexpr std::uint32_t noCvec = 0xFFFFFFFFu;

/**
 * Memory operand. Effective byte address is
 *   base + (disp + index) * elemSize(opcode)
 * i.e. index and displacement select *elements*, as in the paper's
 * examples where the loop induction variable picks a vector element.
 */
struct MemRef
{
    Addr base = 0;
    RegId index = RegId::invalid();
    std::int32_t disp = 0;
    std::string baseSym;  ///< symbolic base for disassembly only

    bool
    operator==(const MemRef &o) const
    {
        return base == o.base && index == o.index && disp == o.disp;
    }
};

/** One decoded instruction. */
struct Inst
{
    Opcode op = Opcode::Nop;
    Cond cond = Cond::AL;

    RegId dst;
    RegId src1;
    RegId src2;
    bool hasImm = false;
    std::int32_t imm = 0;     ///< src2 immediate when hasImm

    MemRef mem;               ///< loads/stores

    std::int32_t target = -1; ///< branches: resolved instruction index
    std::string targetSym;    ///< branches: label for disassembly
    bool hinted = false;      ///< Bl: marked as a translatable region
    /**
     * Bl: maximum vectorizable width the region was compiled/aligned
     * for (paper Section 3.1); 0 = unknown. Encoded in the dedicated
     * translatable branch-and-link the paper proposes (Section 3.5).
     */
    std::uint8_t blWidthHint = 0;

    PermKind permKind = PermKind::SwapHalves; ///< Vperm
    std::uint8_t permBlock = 0;               ///< Vperm block size

    std::uint32_t maskBits = 0;   ///< Vmask lane-keep pattern
    std::uint8_t maskBlock = 0;   ///< Vmask pattern period

    std::uint32_t cvec = noCvec;  ///< constant-vector pool id

    const OpInfo &info() const { return opInfo(op); }

    bool isLoad() const { return info().isLoad; }
    bool isStore() const { return info().isStore; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return info().isBranch; }
    bool isVector() const { return info().isVector; }
    bool isDataProc() const { return info().isDataProc; }
    unsigned elemSize() const { return info().memElemSize; }

    /** Semantic equality (symbols ignored). */
    bool operator==(const Inst &o) const;

    /** Disassemble in the paper's notation. */
    std::string toString() const;

    // ---- builders ------------------------------------------------------

    /** mov dst, #imm */
    static Inst movImm(RegId dst, std::int32_t imm, Cond cond = Cond::AL);
    /** mov dst, src */
    static Inst movReg(RegId dst, RegId src, Cond cond = Cond::AL);
    /** op dst, src1, src2 */
    static Inst dp(Opcode op, RegId dst, RegId src1, RegId src2);
    /** op dst, src1, #imm */
    static Inst dpImm(Opcode op, RegId dst, RegId src1, std::int32_t imm);
    /** vector op dst, src1, cvec#id */
    static Inst dpCvec(Opcode op, RegId dst, RegId src1,
                       std::uint32_t cvec_id);
    /** cmp src1, src2 */
    static Inst cmpReg(RegId src1, RegId src2);
    /** cmp src1, #imm */
    static Inst cmpImm(RegId src1, std::int32_t imm);
    /** load dst, [mem] */
    static Inst load(Opcode op, RegId dst, MemRef mem);
    /** store src, [mem] */
    static Inst store(Opcode op, RegId src, MemRef mem);
    /** b<cond> target */
    static Inst branch(Cond cond, std::int32_t target,
                       std::string sym = {});
    /** bl target */
    static Inst call(std::int32_t target, bool hinted,
                     std::string sym = {}, unsigned width_hint = 0);
    static Inst ret();
    static Inst halt();
    static Inst nop();
    /** vperm dst, src, kind/block */
    static Inst vperm(RegId dst, RegId src, PermKind kind, unsigned block);
    /** vmask dst, src, bits/block */
    static Inst vmask(RegId dst, RegId src, std::uint32_t bits,
                      unsigned block);
    /** vector reduction: dst(scalar) = red(dst, src2(vector)) */
    static Inst vred(Opcode op, RegId scalar_dst, RegId vec_src);
};

/**
 * The register-class rule every executable instruction keeps: each
 * register operand is scalar (r, f) or vector (v, vf) as its opcode
 * requires. Int and float mix freely; scalar and vector never do, and
 * a missing register where one is required breaks the rule too. The
 * assembler rejects a line that breaks it and the decoder asserts it.
 * Returns nullptr when @p inst keeps the rule, else which operand
 * breaks it (e.g. "destination must be a scalar register (r or f)").
 */
const char *operandClassError(const Inst &inst);

/**
 * A per-lane constant vector (paper Table 1 category 3 and lane masks).
 * `lanes.size()` is the pattern period; a width-W vector op applies
 * lanes[i % period] to lane i and requires period <= W.
 */
struct ConstVec
{
    std::vector<Word> lanes;

    bool operator==(const ConstVec &o) const { return lanes == o.lanes; }
};

} // namespace liquid

#endif // LIQUID_ISA_INSTRUCTION_HH
