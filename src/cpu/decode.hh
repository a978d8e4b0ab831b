/**
 * @file
 * The one instruction decoder both execution tiers run from. An Inst
 * is decoded once into a DecodedOp: a handler id plus every operand
 * pre-resolved, so neither interpreter touches RegId or OpInfo on its
 * per-retire path.
 *
 * The cycle core (cpu/core.hh) decodes the program when it is built
 * and each microcode region when the microcode cache commits it; the
 * functional tier (fast/fast.hh) decodes straight-line blocks on first
 * entry and adds its block anchors. What an op means is fixed here;
 * what it costs (fetch, cache, interlock and latency charges) is the
 * cycle core's timing policy and lives there alone.
 *
 * instEffects() is the one table of what an instruction reads, writes
 * and where control goes after it. decodeInst builds DecodedOp::reads
 * from it, the functional tier ends its blocks by it, and the static
 * passes (verifier/) build their CFGs, liveness and region walks on
 * it, so a new opcode is classified once.
 */

#ifndef LIQUID_CPU_DECODE_HH
#define LIQUID_CPU_DECODE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace liquid
{

/** Where control goes after an instruction retires. */
enum class Control : std::uint8_t
{
    Next,    ///< falls through to pc + 1
    Branch,  ///< b<cond>: to the target when the condition holds
    Call,    ///< bl: to the target; its ret resumes at pc + 1
    Return,  ///< ret: back to the caller's pc + 1
    Halt,    ///< halt: stops the program
};

/**
 * What one instruction does to registers and control. The register
 * sets are raw: a conditional write is in writes, and the old value it
 * keeps when the condition fails is not in reads (liveness adds that
 * use itself). bl and ret have no register effects; whoever follows
 * the call summarizes the callee's. Memory and the condition flags
 * are not registers here.
 */
struct InstEffects
{
    RegSet reads;
    RegSet writes;
    Control control = Control::Next;
    Cond cond = Cond::AL;  ///< a Branch's condition, else the write's

    /** A b<cond> that may fall through. */
    bool
    condBranch() const
    {
        return control == Control::Branch && cond != Cond::AL;
    }

    /** pc + 1 may retire next (after a bl, once the callee returns). */
    bool
    fallsThrough() const
    {
        return control == Control::Next || control == Control::Call ||
               condBranch();
    }

    /** Control leaves the function: ret or halt. */
    bool
    exitsFn() const
    {
        return control == Control::Return || control == Control::Halt;
    }
};

/** The registers @p inst reads and writes and its control class. */
InstEffects instEffects(const Inst &inst);

/** Handler ids. */
enum OpHandler : std::uint8_t
{
    HInvalid,   ///< not decoded yet (functional tier's dispatch cache)
    HNop,
    HHalt,
    HStaleNop,  ///< functional-tier sabotage only: drops the effect
    HMovImm,
    HMovReg,
    HCmpRR,
    HCmpRI,
    HBranch,
    HBl,
    HRet,
    HLoad,
    HStore,
    HDpRR,
    HDpRI,
    // Functional-tier fast paths: the functional tier's block decoder
    // gives an integer add, sub or mul and a word load or store these
    // handlers of their own. decodeInst never produces them, so the
    // cycle core never sees them.
    HAddRR,
    HAddRI,
    HSubRR,
    HSubRI,
    HMulRR,
    HMulRI,
    HLoadWord,
    HStoreWord,
    // Vector handlers; everything from HVLoad on is a vector op.
    HVLoad,
    HVStore,
    HVRed,
    HVPerm,
    HVMask,
    HVDpRR,
    HVDpImm,
    HVDpCvec,
};

/** Extra float cycles an op costs on the cycle core (CoreConfig). */
enum class FloatLatency : std::uint8_t
{
    None,
    Add,  ///< floatAddLatency
    Mul,  ///< floatMulLatency
};

/**
 * One decoded instruction. Register fields are flat register-file
 * indices (regfile.hh layout: float classes at offset regsPerClass).
 * Slow-path operands (permutation, lane mask, constant-vector id) stay
 * behind the Inst pointer, which also feeds RetireInfo and --trace.
 */
struct DecodedOp
{
    static constexpr std::uint8_t noIndexReg = 0xFF;
    static constexpr std::uint8_t flagFloat = 1;   ///< float semantics
    static constexpr std::uint8_t flagSigned = 2;  ///< sign-extending load

    std::uint8_t handler = HInvalid;
    Cond cond = Cond::AL;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    std::uint8_t esize = 0;            ///< memory element size
    std::uint8_t flags = 0;
    std::uint8_t memIndex = noIndexReg;
    Opcode op = Opcode::Nop;           ///< for the generic eval handlers
    std::uint8_t extraLatency = 0;     ///< OpInfo::extraLatency
    FloatLatency floatLatency = FloatLatency::None;
    /**
     * Fall-through pc increment of a branch on the functional tier (its
     * block-boundary sabotage sets 2); every other op, and every op on
     * the cycle core, advances by one.
     */
    std::uint8_t pcBump = 1;
    std::int32_t imm = 0;              ///< immediate or branch target
    std::int32_t memDisp = 0;
    Addr memBase = 0;                  ///< also the Bl entry address
    /**
     * instEffects().reads, one bit per RegId::flat() (int, flt, vec,
     * vflt): the operands the cycle core's load-use interlock checks.
     */
    std::uint64_t reads = 0;
    const Inst *inst = nullptr;

    bool isVector() const { return handler >= HVLoad; }
};

// The functional tier's dispatch cache holds one DecodedOp per
// instruction; a larger entry costs it measurably on long runs.
static_assert(sizeof(DecodedOp) <= 40, "DecodedOp grew past 40 bytes");

/**
 * Decode @p inst, which keeps the register-class rule
 * (operandClassError): the assembler rejects a line that breaks it, so
 * an instruction that reaches here breaking it is a simulator bug.
 */
DecodedOp decodeInst(const Inst &inst);

/** Decode a whole code sequence (a program or a microcode region). */
std::vector<DecodedOp> decodeAll(const std::vector<Inst> &code);

/** Effective byte address of a memory op (element-scaled indexing). */
inline Addr
effectiveAddr(const DecodedOp &o, const Word *scalars)
{
    std::int64_t index = o.memDisp;
    if (o.memIndex != DecodedOp::noIndexReg)
        index += static_cast<SWord>(scalars[o.memIndex]);
    return o.memBase + static_cast<Addr>(index * o.esize);
}

// User errors both tiers report, with one text so that lockstep sees
// a program that fails the same way on both as agreeing.

/** A ret at @p pc with no call to return to. */
[[noreturn]] void fatalTopLevelRet(int pc);
/** @p pc is outside a program text of @p size instructions. */
[[noreturn]] void fatalPcOutOfRange(int pc, std::size_t size);

} // namespace liquid

#endif // LIQUID_CPU_DECODE_HH
