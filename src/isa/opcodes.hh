/**
 * @file
 * Opcode and condition-code definitions plus per-opcode metadata for the
 * Liquid SIMD scalar and vector instruction sets.
 */

#ifndef LIQUID_ISA_OPCODES_HH
#define LIQUID_ISA_OPCODES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace liquid
{

/**
 * Instruction opcodes. The scalar half is ARM-flavoured; the vector half
 * is Neon-flavoured. Float semantics are selected by the destination
 * register class, mirroring the paper's examples where `mult f2, f2, f0`
 * is a float multiply.
 */
enum class Opcode : std::uint8_t
{
    // --- scalar ---
    Nop,
    Halt,   ///< stop simulation (test/driver convenience)
    Mov,    ///< reg or immediate move; conditional forms build idioms
    Add,
    Sub,
    Rsb,    ///< reverse subtract: dst = src2 - src1
    Mul,
    And,
    Orr,
    Eor,
    Bic,    ///< bit clear: dst = src1 & ~src2
    Lsl,
    Lsr,
    Asr,
    Min,    ///< scalar min (also the reduction idiom carrier)
    Max,
    Qadd,   ///< scalar saturating add (signed 32-bit)
    Qsub,
    Cmp,    ///< sets flags
    B,      ///< branch, condition in Inst::cond
    Bl,     ///< branch and link (outlined-function entry marker)
    Ret,
    Ldb,    ///< zero-extending byte load, element-scaled indexing
    Ldsb,   ///< sign-extending byte load
    Ldh,
    Ldsh,
    Ldw,
    Stb,
    Sth,
    Stw,

    // --- vector ---
    Vadd,
    Vsub,
    Vrsb,
    Vmul,
    Vand,
    Vorr,
    Veor,
    Vbic,
    Vlsl,
    Vlsr,
    Vasr,
    Vmin,
    Vmax,
    Vqadd,
    Vqsub,
    Vmask,    ///< zero lanes not selected by a periodic lane mask
    Vperm,    ///< block-periodic lane permutation (butterfly etc.)
    Vredmin,  ///< dst(scalar) = min(dst, lanes of src2)
    Vredmax,
    Vredadd,
    Vldb,
    Vldsb,
    Vldh,
    Vldsh,
    Vldw,
    Vstb,
    Vsth,
    Vstw,

    NumOpcodes,
};

/** ARM-style condition codes (subset used by the representation). */
enum class Cond : std::uint8_t
{
    AL,
    EQ,
    NE,
    LT,
    LE,
    GT,
    GE,
};

/** Static metadata for one opcode. */
struct OpInfo
{
    const char *name;       ///< assembler mnemonic
    bool isLoad;
    bool isStore;
    bool isBranch;
    bool isVector;          ///< vector-ISA opcode
    bool isDataProc;        ///< register-to-register data processing
    bool isReduction;       ///< vector reduction producing a scalar
    bool setsFlags;         ///< writes condition flags
    unsigned memElemSize;   ///< 1/2/4 for memory ops, 0 otherwise
    bool memSigned;         ///< sign-extending load
    unsigned extraLatency;  ///< cycles beyond the 1-cycle base
    Opcode vectorEquiv;     ///< scalar DP op -> vector op (or Nop)
    Opcode reductionEquiv;  ///< scalar DP op -> vector reduction (or Nop)
    Opcode scalarEquiv;     ///< vector op -> scalar op (or Nop)
};

namespace detail
{
/** Per-opcode metadata, indexed by opcode; constant-initialised. */
extern const std::array<OpInfo, static_cast<std::size_t>(
                                    Opcode::NumOpcodes)> opTable;
} // namespace detail

/** Metadata lookup; valid for every opcode below NumOpcodes. */
inline const OpInfo &
opInfo(Opcode op)
{
    LIQUID_ASSERT(op < Opcode::NumOpcodes);
    return detail::opTable[static_cast<std::size_t>(op)];
}

/**
 * How the dynamic translator's partial decoder (paper Section 4.1)
 * dispatches an opcode. Shared by the hardware rule automaton and the
 * static verifier so both classify the repertoire identically.
 */
enum class DecodeClass : std::uint8_t
{
    Vector,          ///< vector-ISA opcode: illegal in a scalar region
    Call,            ///< bl: nested call inside a region
    Return,          ///< ret: region exit, handled off the decode path
    Untranslatable,  ///< recognized but outside the conversion rules
    Mov,
    Cmp,
    Branch,
    Load,
    Store,
    DataProc,
};

/** Classify @p op the way the partial decoder does. */
DecodeClass partialDecode(Opcode op);

/** Assembler mnemonic for @p op. */
inline const char *opName(Opcode op) { return opInfo(op).name; }

/** Mnemonic suffix for a condition ("", "eq", ...). */
const char *condName(Cond cond);

/** Parse "add", "vmin", ... Returns NumOpcodes when unknown. */
Opcode parseOpcodeName(const std::string &name);

/** Parse a condition suffix; returns AL for the empty string. */
bool parseCondName(const std::string &name, Cond &out);

} // namespace liquid

#endif // LIQUID_ISA_OPCODES_HH
