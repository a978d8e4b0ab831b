/**
 * @file
 * The verifier's dataflow engine: a constant-propagating abstract
 * interpretation of the scalar ISA over a two-point lattice
 * (Known(value) above Top).
 *
 * Why this is enough to be *precise* for Table-1 regions: everything
 * the translator's legality decisions consume is statically
 * determined —
 *  - induction variables start at `mov r, #c` and step by immediates,
 *    so their per-iteration values and every element-scaled effective
 *    address are compile-time constants;
 *  - value streams only form from loads of *read-only* data, whose
 *    contents are the program's initial image by definition (the
 *    constant-pool inspection);
 *  - loads from writable memory never influence legality except
 *    through condition flags, and a branch on such a value is exactly
 *    the runtime-dependent case the verifier reports as Warn.
 *
 * The machine mirrors Core::execute's observable effects (register
 * writes, flags, effective addresses, load values) without touching a
 * Core, a MainMemory, or any mutable state outside this object.
 */

#ifndef LIQUID_VERIFIER_DATAFLOW_HH
#define LIQUID_VERIFIER_DATAFLOW_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "translator/rule_automaton.hh"

namespace liquid
{

/** Tri-state branch outcome. */
enum class Taken : std::int8_t
{
    No = 0,
    Yes = 1,
    Unknown = -1,
};

/**
 * Facts a whole-program analysis proved about a region's entry
 * environment: registers pinned to one value over every call site,
 * and writable memory cells whose contents are known at entry. The
 * dataflow machine consults these where it would otherwise drop to
 * Top, so runtime-dependent Warns become concrete verdicts. Each hit
 * reports a human-readable `fact` naming the evidence (surfaced in
 * diagnostics as `range:` lines). Implemented by `RangeFacts`
 * (`range.hh`); null means no external analysis ran.
 */
class EntryFacts
{
  public:
    virtual ~EntryFacts() = default;

    /** Value of @p reg at region entry, if proven constant. */
    virtual bool entryReg(RegId reg, Word &value,
                          std::string &fact) const = 0;

    /**
     * Contents of the writable cell [addr, addr+size) at region
     * entry, if proven constant (read like MainMemory::readElem).
     */
    virtual bool readCell(Addr addr, unsigned size, bool sign_extend,
                          Word &value, std::string &fact) const = 0;
};

/** The abstract machine state for one region walk. */
class AbsMachine
{
  public:
    explicit AbsMachine(const Program &prog,
                        const EntryFacts *facts = nullptr)
        : prog_(prog), facts_(facts)
    {
        regs_.fill(AbsVal::top());
        if (facts_) {
            for (unsigned flat = 0; flat < regs_.size(); ++flat) {
                Word value = 0;
                std::string fact;
                if (facts_->entryReg(RegId::fromFlat(flat), value,
                                     fact)) {
                    regs_[flat] = AbsVal::of(value);
                    regFacts_[flat] = std::move(fact);
                }
            }
        }
    }

    /**
     * Apply one scalar instruction and produce its observation.
     * For branches, @p taken reports whether the branch is taken, not
     * taken, or statically undecidable; state is updated either way.
     * Bl/Ret never reach the machine (the walker owns control flow).
     */
    AbsRetire step(const Inst &inst, int index, Taken &taken);

    /** Instruction index of the last cmp (for Warn diagnostics). */
    int lastCmpIndex() const { return lastCmpIndex_; }

    bool flagsKnown() const { return flagsKnown_; }

    AbsVal reg(RegId id) const { return read(id); }

    /**
     * The external facts this walk actually consumed (deduplicated,
     * in first-use order) — the evidence a verdict now depends on.
     */
    const std::vector<std::string> &factsUsed() const
    {
        return factsUsed_;
    }

  private:
    AbsVal read(RegId id) const;
    void write(RegId id, AbsVal v);

    /**
     * Whether a store may have overwritten [addr, addr+size). Keeps
     * constant-pool reads honest if a region writes into data the
     * assembler marked read-only (or through an unknown address).
     */
    bool clobbered(Addr addr, unsigned size) const;

    /** Add the store [addr, addr+size) to `stores_`. */
    void noteStore(Addr addr, unsigned size);

    /** Mirror of Core::memEA over the abstract registers. */
    AbsVal effectiveAddr(const Inst &inst) const;

    /** Whether inst's condition holds: tri-state. */
    Taken condHolds(Cond cond) const;

    /** Record that @p fact fed a resolved value (deduplicated). */
    void noteFact(const std::string &fact) const;

    const Program &prog_;
    const EntryFacts *facts_ = nullptr;
    std::array<AbsVal, 4 * regsPerClass> regs_;
    std::array<std::string, 4 * regsPerClass> regFacts_;
    bool flagsKnown_ = false;
    int cmpState_ = 0;
    int lastCmpIndex_ = -1;
    /**
     * Bytes stored so far as disjoint half-open ranges, start -> end,
     * merged on insert. A range whose end passes the top of the
     * address space is never kept: its wrapped end makes it overlap
     * nothing.
     */
    std::map<Addr, Addr> stores_;
    bool unknownStore_ = false;
    mutable std::vector<std::string> factsUsed_;
};

} // namespace liquid

#endif // LIQUID_VERIFIER_DATAFLOW_HH
