/**
 * @file
 * Symbolic bitvector interpreter over the scalar ISA and Liquid
 * microcode — the term domain underneath the translation-validation
 * prover (proof.hh).
 *
 * Terms are hash-consed in a TermPool and normalized at construction:
 * constant folding reuses the simulator's own evalScalarOp/evalCompare
 * so the symbolic semantics can never drift from the executable
 * semantics; integer add/sub/rsb/mul terms are kept in a canonical
 * multilinear (polynomial) form over Z/2^32 so algebraically equal
 * affine addresses and values intern to the *same* term pointer;
 * commutative bitwise/min/max operators sort their operands; select
 * chains (the scalarizer's conditional-mov idioms) and sign/zero
 * extensions fold when their inputs are concrete. Float operators are
 * deliberately NOT reassociated or commuted: scalar region and
 * translated microcode evaluate float lanes in the identical order, so
 * structural equality is exactly bit-exact equality, and any algebraic
 * float rewrite would be unsound.
 *
 * Equality of two terms is therefore pointer equality after
 * normalization; residual obligations the rewriter cannot close are
 * discharged by the prover via small-domain enumeration, each one
 * compiled once to an EvalTape that then runs per point.
 *
 * SymMachine executes a scalar region or a committed UcodeEntry over
 * this domain in one of two address modes:
 *  - Concrete: every effective address must normalize to a constant
 *    (regions emitted by the scalarizer have constant bases and
 *    constant-stepped induction variables); data stays symbolic.
 *  - Lane: the width-polymorphic mode. The induction variable and the
 *    lane index are opaque parameters, memory reads become lane-indexed
 *    Load atoms over normalized symbolic addresses, and the store set
 *    is keyed by address *term*.
 */

#ifndef LIQUID_VERIFIER_SYMEXEC_HH
#define LIQUID_VERIFIER_SYMEXEC_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "asm/program.hh"
#include "isa/instruction.hh"
#include "memory/ucode_cache.hh"

namespace liquid::sym
{

struct Term;
/** Interned term handle: pointer equality == semantic-normal equality. */
using TermRef = const Term *;

/** What a free symbol stands for. */
struct SymDecl
{
    enum class Kind : std::uint8_t
    {
        Mem,     ///< initial-memory element read at a concrete address
        Reg,     ///< a register's value at region entry
        CmpInit, ///< the flags (compare sign) at region entry
        Param,   ///< an opaque parameter (IV value, lane index, width)
        Poison,  ///< a value the proof must not depend on
    };

    Kind kind = Kind::Param;
    Addr addr = 0;         ///< Mem: element address
    unsigned size = 4;     ///< Mem: element size in bytes (1/2/4)
    bool isSigned = false; ///< Mem: sign-extending read
    RegId reg;             ///< Reg
    std::string name;      ///< Param/Poison: the name it was made with

    /** Printable name (e.g. mem32u@0x1000), built on demand. */
    std::string printName() const;
};

/** Term node kinds. */
enum class TermKind : std::uint8_t
{
    Const, ///< 32-bit constant
    Sym,   ///< free symbol (see SymDecl)
    Bin,   ///< scalar data-processing op over two terms
    Cmp,   ///< compare sign (-1/0/1) of two terms
    Sel,   ///< conditional select on a compare-sign term
    Ext,   ///< keep low `bits`, sign- or zero-extend to 32
    Load,  ///< initial-memory read at a *symbolic* address (Lane mode)
};

/** One interned term. Immutable once created; owned by the pool. */
struct Term
{
    TermKind kind = TermKind::Const;
    unsigned id = 0;           ///< creation index; canonical sort key
    Opcode op = Opcode::Nop;   ///< Bin
    bool isFloat = false;      ///< Bin/Cmp: float semantics
    Cond cond = Cond::AL;      ///< Sel
    unsigned bits = 32;        ///< Ext
    bool isSigned = false;     ///< Ext/Load
    Word konst = 0;            ///< Const
    unsigned sym = 0;          ///< Sym: SymDecl index
    unsigned size = 4;         ///< Load: element size
    bool poisoned = false;     ///< transitively contains a Poison symbol
    std::array<TermRef, 3> args{{nullptr, nullptr, nullptr}};
    unsigned nargs = 0;

    bool isConst() const { return kind == TermKind::Const; }
    bool isLeaf() const
    {
        return kind == TermKind::Sym || kind == TermKind::Load;
    }
};

/** Does condition @p cond hold for compare sign @p sign (-1/0/1)? */
bool condHoldsSign(Cond cond, int sign);

/**
 * The term pool: hash-consing, normalization, concrete evaluation and
 * substitution. One pool per proof attempt; terms live as long as the
 * pool.
 */
class TermPool
{
  public:
    TermPool();
    ~TermPool();
    TermPool(const TermPool &) = delete;
    TermPool &operator=(const TermPool &) = delete;

    // ---- constructors (normalizing) -----------------------------------
    TermRef konst(Word value);
    TermRef memSym(Addr addr, unsigned size, bool is_signed);
    TermRef regSym(RegId reg);
    TermRef cmpInitSym();
    TermRef param(const std::string &name);
    TermRef poison(const std::string &name);
    TermRef bin(Opcode op, TermRef a, TermRef b, bool is_float);
    TermRef cmp(TermRef a, TermRef b, bool is_float);
    TermRef sel(Cond cond, TermRef sign, TermRef then_t, TermRef else_t);
    TermRef ext(unsigned bits, bool is_signed, TermRef value);
    TermRef load(TermRef addr, unsigned size, bool is_signed);

    const SymDecl &decl(unsigned sym_id) const { return decls_[sym_id]; }
    std::size_t termCount() const { return terms_.size(); }

    /**
     * If a - b normalizes to a compile-time constant (both interpreted
     * as integer polynomials), return it — the Lane-mode alias test.
     */
    std::optional<SWord> affineDiff(TermRef a, TermRef b);

    /** All distinct leaves under @p t, sorted by term id. */
    std::vector<TermRef> leaves(TermRef t);

    /**
     * Rebuild @p t with every leaf found in @p map replaced — the
     * result re-normalizes, so substituted terms re-canonicalize.
     */
    TermRef substitute(TermRef t,
                       const std::unordered_map<TermRef, TermRef> &map);

    /** Compact s-expression rendering for diagnostics. */
    std::string str(TermRef t) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::vector<SymDecl> decls_;
    std::vector<TermRef> terms_; ///< by id; storage is the Impl's arena

    TermRef intern(Term t);
    TermRef symTerm(SymDecl decl);
    TermRef rawBin(Opcode op, TermRef a, TermRef b);
    friend struct TermPoolTestPeer;
};

/**
 * Concrete evaluation of a term DAG, compiled once and run per point:
 * the prover's only evaluator.
 *
 * Slots [0, leaves.size()) hold the leaves in the order given; every
 * Sym and Load node reachable from a root must be among them. A Load
 * is itself the leaf: its address subtree is not a value dependency
 * (mirrors TermPool::leaves), so it is neither walked nor evaluated.
 * Constants are pre-filled slots, and every other node reachable from
 * the roots becomes one Op, a shared subterm once. Leaf values are
 * the post-extension element values (what readElem would return);
 * unset leaves read 0.
 */
class EvalTape
{
  public:
    EvalTape(const std::vector<TermRef> &roots,
             const std::vector<TermRef> &leaves);

    void setLeaf(std::size_t i, Word value) { vals_[i] = value; }
    /** Evaluate every op, in topological order. */
    void run();
    /** Value of roots[@p i] as of the last run(). */
    Word root(std::size_t i) const { return vals_[roots_[i]]; }
    /** Ops on the tape: the distinct non-leaf, non-constant nodes. */
    std::size_t opCount() const { return ops_.size(); }

  private:
    struct Op
    {
        TermKind kind;
        Opcode op;
        bool isFloat;
        Cond cond;
        std::uint8_t bits;
        bool isSigned;
        std::uint32_t dst, a, b, c;
    };
    std::vector<Op> ops_;
    std::vector<Word> vals_;
    std::vector<std::uint32_t> roots_;
};

/** Address handling mode for symbolic execution. */
enum class AddrMode
{
    Concrete, ///< every effective address must fold to a constant
    Lane,     ///< width-polymorphic: addresses stay symbolic terms
};

/** Why a symbolic run could not complete. */
struct MachineResult
{
    bool ok = true;
    std::string why;    ///< set when !ok
    int instIndex = -1; ///< scalar inst index or microcode slot
    std::uint64_t steps = 0;
};

/** A store-set cell: the bytes a region run leaves in one element. */
struct StoreCell
{
    unsigned size = 4;
    TermRef value = nullptr; ///< full-width term; low size*8 bits stored
};

/**
 * Symbolic machine state + interpreter for one run (scalar region or
 * microcode). Mirrors Core::execute()/executeVector() over terms.
 */
class SymMachine
{
  public:
    SymMachine(TermPool &pool, const Program &prog, AddrMode mode);

    /** Initialize all registers/flags to shared region-entry symbols. */
    void initSharedEntry();
    /** Initialize all registers/flags to poison (Lane-mode bodies). */
    void initPoisoned(const std::string &tag);

    TermRef reg(RegId r) const;
    void setReg(RegId r, TermRef t);
    TermRef cmpState() const { return cmp_; }
    void setCmpState(TermRef t) { cmp_ = t; }

    /** Lane-mode: the lane-index parameter vector loads are built on. */
    void setLaneParam(TermRef lane) { lane_ = lane; }

    /** Execute the region entered at @p entry_index until its ret. */
    MachineResult runScalarRegion(int entry_index, std::uint64_t max_steps);

    /**
     * Execute instruction indices [first, last] once, straight-line:
     * branches are ignored (the caller has proven the range is one loop
     * body whose only branch is the trailing backedge). Lane mode.
     */
    MachineResult runScalarBody(int first, int last,
                                std::uint64_t max_steps);

    /** Execute a committed microcode entry to completion. */
    MachineResult runUcode(const UcodeEntry &entry,
                           std::uint64_t max_steps);

    /** Execute microcode slots [first, last] once, straight-line. */
    MachineResult runUcodeBody(const UcodeEntry &entry, unsigned first,
                               unsigned last, std::uint64_t max_steps);

    /** Concrete-mode store set, keyed by element address. */
    const std::map<Addr, StoreCell> &cells() const { return cells_; }

    /** Lane-mode store set, keyed by normalized address term. */
    const std::vector<std::pair<TermRef, StoreCell>> &laneCells() const
    {
        return laneCells_;
    }

  private:
    MachineResult run(const std::vector<Inst> &code, int first, int last,
                      bool follow_branches, bool in_ucode,
                      const UcodeEntry *ucode, std::uint64_t max_steps);
    bool step(const Inst &inst, int index, const UcodeEntry *ucode,
              int &next, MachineResult &res);
    bool execVector(const Inst &inst, int index, const UcodeEntry *ucode,
                    MachineResult &res);
    TermRef memAddrTerm(const Inst &inst);
    bool readMem(Addr addr, unsigned size, bool is_signed, TermRef &out,
                 MachineResult &res, int index);
    bool writeMem(Addr addr, unsigned size, TermRef value,
                  MachineResult &res, int index);
    bool readLane(TermRef addr, unsigned size, bool is_signed,
                  TermRef &out, MachineResult &res, int index);
    bool writeLane(TermRef addr, unsigned size, TermRef value,
                   MachineResult &res, int index);
    bool fail(MachineResult &res, int index, std::string why);

    TermPool &pool_;
    const Program &prog_;
    AddrMode mode_;
    std::array<TermRef, 64> regs_{};   ///< scalar classes, by flat id
    std::map<unsigned, std::array<TermRef, 16>> vregs_; ///< by flat id
    std::map<unsigned, TermRef> laneVregs_; ///< Lane mode: one term/vreg
    TermRef cmp_ = nullptr;
    TermRef lane_ = nullptr;
    std::map<Addr, StoreCell> cells_;
    std::vector<std::pair<TermRef, StoreCell>> laneCells_;
};

} // namespace liquid::sym

#endif // LIQUID_VERIFIER_SYMEXEC_HH
