#include "verifier/dataflow.hh"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>

#include "cpu/exec.hh"

namespace liquid
{

AbsVal
AbsMachine::read(RegId id) const
{
    if (!id.isValid())
        return AbsVal::top();
    const unsigned flat = id.flat();
    if (regs_[flat].known && !regFacts_[flat].empty())
        noteFact(regFacts_[flat]);
    return regs_[flat];
}

void
AbsMachine::noteFact(const std::string &fact) const
{
    for (const std::string &f : factsUsed_) {
        if (f == fact)
            return;
    }
    factsUsed_.push_back(fact);
}

void
AbsMachine::write(RegId id, AbsVal v)
{
    if (id.isValid()) {
        regs_[id.flat()] = v;
        // The entry fact no longer describes a redefined register.
        regFacts_[id.flat()].clear();
    }
}

AbsVal
AbsMachine::effectiveAddr(const Inst &inst) const
{
    const unsigned esize = inst.elemSize();
    std::int64_t index = inst.mem.disp;
    if (inst.mem.index.isValid()) {
        const AbsVal iv = read(inst.mem.index);
        if (!iv.known)
            return AbsVal::top();
        index += static_cast<SWord>(iv.value);
    }
    return AbsVal::of(
        inst.mem.base + static_cast<Addr>(index * esize));
}

Taken
AbsMachine::condHolds(Cond cond) const
{
    if (cond == Cond::AL)
        return Taken::Yes;
    if (!flagsKnown_)
        return Taken::Unknown;
    bool holds = false;
    switch (cond) {
      case Cond::AL: holds = true; break;
      case Cond::EQ: holds = cmpState_ == 0; break;
      case Cond::NE: holds = cmpState_ != 0; break;
      case Cond::LT: holds = cmpState_ < 0; break;
      case Cond::LE: holds = cmpState_ <= 0; break;
      case Cond::GT: holds = cmpState_ > 0; break;
      case Cond::GE: holds = cmpState_ >= 0; break;
    }
    return holds ? Taken::Yes : Taken::No;
}

AbsRetire
AbsMachine::step(const Inst &inst, int index, Taken &taken)
{
    const OpInfo &info = inst.info();

    AbsRetire ri;
    ri.inst = &inst;
    ri.index = index;
    taken = Taken::No;

    const Taken executed = condHolds(inst.cond);
    // Conditional register writes: an undecidable condition means the
    // destination may or may not change, so it drops to Top.
    auto condWrite = [&](RegId dst, AbsVal v) {
        if (executed == Taken::Yes)
            write(dst, v);
        else if (executed == Taken::Unknown)
            write(dst, AbsVal::top());
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        return ri;

      case Opcode::Mov: {
        const AbsVal value = inst.hasImm
                                 ? AbsVal::of(static_cast<Word>(inst.imm))
                                 : read(inst.src1);
        condWrite(inst.dst, value);
        ri.value = value;
        return ri;
      }

      case Opcode::Cmp: {
        const AbsVal a = read(inst.src1);
        const AbsVal b = inst.hasImm
                             ? AbsVal::of(static_cast<Word>(inst.imm))
                             : read(inst.src2);
        if (executed != Taken::No) {
            lastCmpIndex_ = index;
            if (executed == Taken::Yes && a.known && b.known) {
                cmpState_ =
                    evalCompare(a.value, b.value, inst.src1.isFloat());
                flagsKnown_ = true;
            } else {
                flagsKnown_ = false;
            }
        }
        return ri;
      }

      case Opcode::B:
        taken = executed;
        ri.branchTaken = executed == Taken::Yes;
        return ri;

      default:
        break;
    }

    if (info.isLoad) {
        const AbsVal ea = effectiveAddr(inst);
        AbsVal value = AbsVal::top();
        if (ea.known && prog_.isReadOnly(ea.value) &&
            !clobbered(ea.value, info.memElemSize)) {
            Word raw = 0;
            if (prog_.readInitialElem(ea.value, info.memElemSize,
                                      info.memSigned, raw))
                value = AbsVal::of(raw);
        }
        // Writable memory is normally Top, but the whole-program
        // range analysis may have pinned the cell's entry contents;
        // the clobbered() guard keeps the region's own stores honest.
        if (!value.known && ea.known && facts_ &&
            !clobbered(ea.value, info.memElemSize)) {
            Word raw = 0;
            std::string fact;
            if (facts_->readCell(ea.value, info.memElemSize,
                                 info.memSigned, raw, fact)) {
                value = AbsVal::of(raw);
                noteFact(fact);
            }
        }
        condWrite(inst.dst, value);
        ri.value = value;
        ri.memAddr = ea;
        return ri;
    }

    if (info.isStore) {
        const AbsVal ea = effectiveAddr(inst);
        if (executed != Taken::No) {
            if (ea.known)
                noteStore(ea.value, info.memElemSize);
            else
                unknownStore_ = true;
        }
        ri.value = read(inst.src1);
        ri.memAddr = ea;
        return ri;
    }

    if (info.isDataProc) {
        const AbsVal a = read(inst.src1);
        const AbsVal b = inst.hasImm
                             ? AbsVal::of(static_cast<Word>(inst.imm))
                             : read(inst.src2);
        AbsVal value = AbsVal::top();
        if (a.known && b.known) {
            value = AbsVal::of(evalScalarOp(inst.op, a.value, b.value,
                                            inst.dst.isFloat()));
        }
        condWrite(inst.dst, value);
        ri.value = value;
        return ri;
    }

    // Vector/unknown opcodes have no scalar dataflow effect; the rule
    // automaton rejects them before their value could matter.
    return ri;
}

namespace
{

/** End of [addr, addr+size), or nullopt when the 32-bit sum wraps. */
std::optional<Addr>
rangeEnd(Addr addr, unsigned size)
{
    const std::uint64_t end = std::uint64_t{addr} + size;
    if (end > std::numeric_limits<Addr>::max())
        return std::nullopt;
    return static_cast<Addr>(end);
}

} // namespace

void
AbsMachine::noteStore(Addr addr, unsigned size)
{
    std::optional<Addr> end = rangeEnd(addr, size);
    if (!end)
        return;  // wraps: overlaps nothing
    // Absorb every kept range that overlaps or touches [addr, end).
    auto it = stores_.upper_bound(*end);
    while (it != stores_.begin()) {
        const auto prev = std::prev(it);
        if (prev->second < addr)
            break;
        addr = std::min(addr, prev->first);
        *end = std::max(*end, prev->second);
        it = stores_.erase(prev);
    }
    stores_.emplace_hint(it, addr, *end);
}

bool
AbsMachine::clobbered(Addr addr, unsigned size) const
{
    if (unknownStore_)
        return true;
    const std::optional<Addr> end = rangeEnd(addr, size);
    if (!end)
        return false;
    // Ranges are disjoint: only the first one starting after addr and
    // the last one starting at or before it can overlap.
    const auto next = stores_.upper_bound(addr);
    if (next != stores_.end() && next->first < *end)
        return true;
    return next != stores_.begin() && std::prev(next)->second > addr;
}

} // namespace liquid
