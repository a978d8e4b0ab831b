#include "cpu/core.hh"

#include <algorithm>
#include <iomanip>

#include "common/bitfield.hh"
#include "cpu/exec.hh"

namespace liquid
{

Core::Core(const CoreConfig &config, const Program &prog, MainMemory &mem)
    : config_(config), prog_(prog), mem_(mem),
      icache_("icache", config.icache), dcache_("dcache", config.dcache),
      stats_("core")
{
    pc_ = prog_.hasLabel("main") ? prog_.labelIndex("main") : 0;
    nextInterrupt_ = config_.faults.interruptPeriod;
}

void
Core::run()
{
    while (step()) {
    }
}

void
Core::adoptArchState(const RegFile &regs, int pc, bool halted,
                     const std::vector<int> &call_stack,
                     std::uint64_t insts_retired,
                     std::size_t next_fault_index,
                     const std::map<Addr, std::uint64_t> &call_counts)
{
    LIQUID_ASSERT(instsRetired_ == 0 && cycles_ == 0,
                  "adoptArchState on a core that already ran");
    regs_ = regs;
    pc_ = pc;
    halted_ = halted;
    callStack_ = call_stack;
    instsRetired_ = insts_retired;
    nextFault_ =
        std::min(next_fault_index, config_.faults.events.size());
    callLog_.clear();
    for (const auto &[target, count] : call_counts) {
        // The log caps at 8 stamps per target; pre-checkpoint calls
        // carry stamp 0 (the functional prefix has no cycle clock).
        callLog_[target] = std::vector<Cycles>(
            static_cast<std::size_t>(std::min<std::uint64_t>(count, 8)),
            0);
    }
}

void
Core::runRegion(int entry_index)
{
    pc_ = entry_index;
    callStack_.assign(1, regionSentinel);
    halted_ = false;
    while (step()) {
    }
}

bool
Core::step()
{
    if (halted_)
        return false;

    // A program that never halts is a user error, not a simulator bug.
    if (instsRetired_ >= config_.maxInsts)
        fatal("instruction watchdog exceeded (", config_.maxInsts, ")");

    // Failure injection: the fault schedule delivers external events.
    // The periodic interrupt fires on cycle counts (the legacy
    // interruptPeriod semantics); one-shot events fire on retire
    // counts so schedules replay independently of cycle-level timing.
    const FaultSchedule &faults = config_.faults;
    if (faults.interruptPeriod && cycles_ >= nextInterrupt_) {
        nextInterrupt_ += faults.interruptPeriod;
        raiseFault(FaultEvent{FaultKind::Interrupt, instsRetired_,
                              invalidAddr});
    }
    while (nextFault_ < faults.events.size() &&
           faults.events[nextFault_].atRetire <= instsRetired_) {
        raiseFault(faults.events[nextFault_]);
        ++nextFault_;
    }

    const Inst *inst = nullptr;
    if (ucode_) {
        if (upc_ >= ucode_->insts.size()) {
            // Microcode region complete; resume after the bl.
            pc_ = ucodeReturn_;
            ucode_.reset();
            cycles_ += config_.takenBranchPenalty;
            return true;
        }
        inst = &ucode_->insts[upc_];
        stats_.inc(ctr_.ucodeInsts);
    } else {
        LIQUID_ASSERT(pc_ >= 0 &&
                      static_cast<std::size_t>(pc_) < prog_.code().size(),
                      "pc out of range: ", pc_);
        inst = &prog_.code()[pc_];
        // Microcode is fetched from its own SRAM; only program-mode
        // instructions touch the i-cache.
        if (!icache_.access(Program::instAddr(pc_), false))
            cycles_ += config_.missPenalty;
    }

    ++instsRetired_;
    cycles_ += 1 + inst->info().extraLatency;
    stats_.inc(ctr_.insts);

    if (trace_) {
        *trace_ << std::setw(10) << cycles_ << (ucode_ ? "  u" : "   ")
                << std::setw(5) << (ucode_ ? static_cast<int>(upc_) : pc_)
                << "  " << inst->toString() << '\n';
    }

    execute(*inst);
    return !halted_;
}

void
Core::raiseFault(const FaultEvent &event)
{
    stats_.inc(ctr_.faults, event.kind);

    switch (event.kind) {
      case FaultKind::Interrupt:
        stats_.inc(ctr_.interrupts);
        if (ucode_ && config_.sabotageAbandonUcodeOnInterrupt) {
            // Deliberately broken model (chaos sabotage test only):
            // drop the remaining microcode lanes on the floor.
            pc_ = ucodeReturn_;
            ucode_.reset();
        }
        if (sink_)
            sink_->onInterrupt(cycles_);
        return;

      case FaultKind::DcachePerturb:
        dcache_.flush();
        return;

      case FaultKind::UcodeFlush:
      case FaultKind::UcodeEvict:
      case FaultKind::SmcStore:
        if (faultHandler_)
            faultHandler_(event, cycles_);
        else
            stats_.inc(ctr_.unhandledFaults);
        return;

      case FaultKind::NumKinds:
        break;
    }
    panic("bad fault kind");
}

Addr
Core::memEA(const Inst &inst) const
{
    const unsigned esize = inst.elemSize();
    std::int64_t index = inst.mem.disp;
    if (inst.mem.index.isValid())
        index += static_cast<SWord>(regs_.read(inst.mem.index));
    return inst.mem.base + static_cast<Addr>(index * esize);
}

bool
Core::readsReg(const Inst &inst, RegId reg) const
{
    if (!reg.isValid())
        return false;
    if (inst.isStore() && inst.src1 == reg)
        return true;
    if (inst.isDataProc() &&
        ((inst.src1 == reg) || (!inst.hasImm && inst.src2 == reg)))
        return true;
    if (inst.isMem() && inst.mem.index == reg)
        return true;
    return false;
}

const ConstVec &
Core::resolveCvec(const Inst &inst) const
{
    LIQUID_ASSERT(inst.cvec != noCvec);
    if (ucode_) {
        LIQUID_ASSERT(inst.cvec < ucode_->cvecs.size(),
                      "bad ucode cvec id");
        return ucode_->cvecs[inst.cvec];
    }
    return prog_.cvec(inst.cvec);
}

void
Core::chargeScalarMem(const Inst &inst, Addr ea)
{
    if (!dcache_.access(ea, inst.isStore())) {
        cycles_ += config_.missPenalty;
        stats_.inc(ctr_.dcacheMissCycles, config_.missPenalty);
    }
}

void
Core::chargeVectorMem(Addr ea, unsigned bytes, bool is_write)
{
    // The SIMD datapath moves busBytesPerCycle per cycle; the first beat
    // is covered by the instruction's base cycle.
    const unsigned beats = static_cast<unsigned>(
        divCeil(bytes, config_.busBytesPerCycle));
    if (beats > 1)
        cycles_ += beats - 1;
    const unsigned misses = dcache_.accessRange(ea, bytes, is_write);
    cycles_ += static_cast<Cycles>(misses) * config_.missPenalty;
    if (misses) {
        stats_.inc(ctr_.dcacheMissCycles,
                   static_cast<Cycles>(misses) * config_.missPenalty);
    }
}

void
Core::retire(const RetireInfo &info)
{
    if (sink_ && !ucode_)
        sink_->onRetire(info, cycles_);
}

void
Core::execute(const Inst &inst)
{
    const OpInfo &info = inst.info();

    RetireInfo ri;
    ri.inst = &inst;
    ri.index = ucode_ ? -1 : pc_;

    // Load-use interlock: one stall cycle when the previous instruction
    // was a load whose destination we consume.
    if (pendingLoadDst_.isValid() && readsReg(inst, pendingLoadDst_)) {
        cycles_ += 1;
        stats_.inc(ctr_.loadUseStalls);
    }
    pendingLoadDst_ = RegId::invalid();

    const bool executed = regs_.condHolds(inst.cond);
    ri.executed = executed;

    auto advance = [this] {
        if (ucode_)
            ++upc_;
        else
            ++pc_;
    };

    if (info.isVector) {
        stats_.inc(ctr_.vectorInsts);
        if (executed)
            executeVector(inst);
        advance();
        retire(ri);
        return;
    }
    stats_.inc(ctr_.scalarInsts);

    switch (inst.op) {
      case Opcode::Nop:
        advance();
        break;

      case Opcode::Halt:
        halted_ = true;
        advance();
        break;

      case Opcode::Mov: {
        const Word value = inst.hasImm ? static_cast<Word>(inst.imm)
                                       : regs_.read(inst.src1);
        if (executed)
            regs_.write(inst.dst, value);
        ri.value = value;
        advance();
        break;
      }

      case Opcode::Cmp: {
        const Word a = regs_.read(inst.src1);
        const Word b = inst.hasImm ? static_cast<Word>(inst.imm)
                                   : regs_.read(inst.src2);
        if (executed)
            regs_.setCmpState(evalCompare(a, b, inst.src1.isFloat()));
        advance();
        break;
      }

      case Opcode::B: {
        stats_.inc(ctr_.branches);
        if (executed) {
            LIQUID_ASSERT(inst.target >= 0, "unresolved branch");
            ri.branchTaken = true;
            stats_.inc(ctr_.takenBranches);
            cycles_ += config_.takenBranchPenalty;
            if (ucode_)
                upc_ = static_cast<unsigned>(inst.target);
            else
                pc_ = inst.target;
        } else {
            advance();
        }
        break;
      }

      case Opcode::Bl: {
        LIQUID_ASSERT(!ucode_, "bl inside microcode");
        LIQUID_ASSERT(inst.target >= 0, "unresolved bl");
        stats_.inc(ctr_.calls);
        const Addr entry = Program::instAddr(inst.target);
        auto &log = callLog_[entry];
        if (log.size() < 8)
            log.push_back(cycles_);

        cycles_ += config_.takenBranchPenalty;

        if (config_.translationEnabled && config_.simdWidth > 0 &&
            ucodeLookup_) {
            if (const UcodeEntry *entry_uc =
                    ucodeLookup_(entry, cycles_)) {
                // Microcode may be bound to a narrower width than the
                // accelerator (width fallback for short loops).
                LIQUID_ASSERT(entry_uc->simdWidth <= config_.simdWidth,
                              "microcode wider than accelerator");
                stats_.inc(ctr_.ucodeDispatches);
                ucode_ = *entry_uc;
                upc_ = 0;
                ucodeReturn_ = pc_ + 1;
                // The bl itself retired; the translator must not see it
                // as a region entry (the region runs as microcode).
                break;
            }
        }

        callStack_.push_back(pc_ + 1);
        pc_ = inst.target;
        // The bl is the region boundary marker, not part of the
        // region: it reaches the translator via onCall only.
        if (sink_)
            sink_->onCall(entry, inst.hinted, inst.blWidthHint, cycles_);
        return;
      }

      case Opcode::Ret: {
        LIQUID_ASSERT(!ucode_, "ret inside microcode");
        LIQUID_ASSERT(!callStack_.empty(), "ret with empty call stack");
        cycles_ += config_.takenBranchPenalty;
        const int return_to = callStack_.back();
        callStack_.pop_back();
        if (sink_)
            sink_->onReturn(cycles_);
        if (return_to == regionSentinel)
            halted_ = true;  // runRegion() finished
        else
            pc_ = return_to;
        return;
      }

      default: {
        if (info.isLoad) {
            const Addr ea = memEA(inst);
            chargeScalarMem(inst, ea);
            const Word value =
                mem_.readElem(ea, info.memElemSize, info.memSigned);
            if (executed) {
                regs_.write(inst.dst, value);
                pendingLoadDst_ = inst.dst;
            }
            ri.value = value;
            ri.memAddr = ea;
            advance();
            break;
        }
        if (info.isStore) {
            const Addr ea = memEA(inst);
            chargeScalarMem(inst, ea);
            const Word value = regs_.read(inst.src1);
            if (executed)
                mem_.writeElem(ea, info.memElemSize, value);
            ri.value = value;
            ri.memAddr = ea;
            advance();
            break;
        }
        if (info.isDataProc) {
            const Word a = regs_.read(inst.src1);
            const Word b = inst.hasImm ? static_cast<Word>(inst.imm)
                                       : regs_.read(inst.src2);
            const Word value =
                evalScalarOp(inst.op, a, b, inst.dst.isFloat());
            if (inst.dst.isFloat()) {
                cycles_ += inst.op == Opcode::Mul
                               ? config_.floatMulLatency
                               : config_.floatAddLatency;
            }
            if (executed)
                regs_.write(inst.dst, value);
            ri.value = value;
            advance();
            break;
        }
        panic("unhandled opcode ", opName(inst.op));
      }
    }

    retire(ri);
}

void
Core::executeVector(const Inst &inst)
{
    const unsigned width = ucode_ ? ucode_->simdWidth
                                  : config_.simdWidth;
    if (width == 0) {
        fatal("vector instruction '", inst.toString(),
              "' but no SIMD accelerator configured");
    }

    const OpInfo &info = inst.info();
    const bool use_float = inst.dst.isFloat();

    if (info.isLoad) {
        const Addr ea = memEA(inst);
        chargeVectorMem(ea, width * info.memElemSize, false);
        VecValue value{};
        for (unsigned l = 0; l < width; ++l) {
            value[l] = mem_.readElem(ea + l * info.memElemSize,
                                     info.memElemSize, info.memSigned);
        }
        regs_.writeVec(inst.dst, value);
        pendingLoadDst_ = inst.dst;
        return;
    }

    if (info.isStore) {
        const Addr ea = memEA(inst);
        chargeVectorMem(ea, width * info.memElemSize, true);
        const VecValue &value = regs_.readVec(inst.src1);
        for (unsigned l = 0; l < width; ++l) {
            mem_.writeElem(ea + l * info.memElemSize, info.memElemSize,
                           value[l]);
        }
        return;
    }

    if (info.isReduction) {
        const Word acc = regs_.read(inst.src1);
        const Word out = evalReduction(inst.op, acc,
                                       regs_.readVec(inst.src2), width,
                                       inst.dst.isFloat());
        regs_.write(inst.dst, out);
        return;
    }

    switch (inst.op) {
      case Opcode::Vperm:
        regs_.writeVec(inst.dst,
                       evalPerm(regs_.readVec(inst.src1), inst.permKind,
                                inst.permBlock, width));
        return;
      case Opcode::Vmask:
        regs_.writeVec(inst.dst,
                       evalMask(regs_.readVec(inst.src1), inst.maskBits,
                                inst.maskBlock, width));
        return;
      default:
        break;
    }

    LIQUID_ASSERT(info.isDataProc, "unhandled vector opcode ",
                  opName(inst.op));

    if (use_float) {
        cycles_ += inst.op == Opcode::Vmul ? config_.floatMulLatency
                                           : config_.floatAddLatency;
    }

    VecValue out{};
    if (inst.cvec != noCvec) {
        out = evalVectorConstOp(inst.op, regs_.readVec(inst.src1),
                                resolveCvec(inst), width, use_float);
    } else if (inst.hasImm) {
        VecValue imm{};
        imm.fill(static_cast<Word>(inst.imm));
        out = evalVectorOp(inst.op, regs_.readVec(inst.src1), imm, width,
                           use_float);
    } else {
        out = evalVectorOp(inst.op, regs_.readVec(inst.src1),
                           regs_.readVec(inst.src2), width, use_float);
    }
    regs_.writeVec(inst.dst, out);
}

} // namespace liquid
