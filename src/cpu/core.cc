#include "cpu/core.hh"

#include <algorithm>
#include <iomanip>

#include "common/bitfield.hh"
#include "cpu/exec.hh"

namespace liquid
{

Core::Core(const CoreConfig &config, const Program &prog, MainMemory &mem)
    : config_(config), prog_(prog), mem_(mem), ops_(decodeAll(prog.code())),
      numOps_(ops_.size()),
      floatLatency_{0, config.floatAddLatency, config.floatMulLatency},
      icache_("icache", config.icache), dcache_("dcache", config.dcache),
      stats_("core")
{
    pc_ = prog_.hasLabel("main") ? prog_.labelIndex("main") : 0;
    if (config_.faults.interruptPeriod)
        nextInterrupt_ = config_.faults.interruptPeriod;
    armEventCheck();
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
    armEventCheck();
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

void
Core::armEventCheck()
{
    const auto &events = config_.faults.events;
    eventCheckAt_ = config_.maxInsts;
    if (nextFault_ < events.size())
        eventCheckAt_ = std::min(eventCheckAt_, events[nextFault_].atRetire);
}

void
Core::deliverEvents()
{
    // A program that never halts is a user error, not a simulator bug.
    if (instsRetired_ >= config_.maxInsts)
        fatal("instruction watchdog exceeded (", config_.maxInsts, ")");

    // Failure injection: the fault schedule delivers external events.
    // The periodic interrupt fires on cycle counts (the legacy
    // interruptPeriod semantics); one-shot events fire on retire
    // counts so schedules replay independently of cycle-level timing.
    const FaultSchedule &faults = config_.faults;
    if (cycles_ >= nextInterrupt_) {
        nextInterrupt_ += faults.interruptPeriod;
        raiseFault(FaultEvent{FaultKind::Interrupt, instsRetired_,
                              invalidAddr});
    }
    while (nextFault_ < faults.events.size() &&
           faults.events[nextFault_].atRetire <= instsRetired_) {
        raiseFault(faults.events[nextFault_]);
        ++nextFault_;
    }
    armEventCheck();
}

bool
Core::step()
{
    if (halted_)
        return false;

    if (instsRetired_ >= eventCheckAt_ || cycles_ >= nextInterrupt_)
        [[unlikely]] deliverEvents();

    const DecodedOp *op = nullptr;
    if (ucode_) {
        if (upc_ >= ucode_->ops.size()) {
            // Microcode region complete; resume after the bl.
            pc_ = ucodeReturn_;
            ucode_.reset();
            cycles_ += config_.takenBranchPenalty;
            return true;
        }
        op = &ucode_->ops[upc_];
        ++counts_.ucodeInsts;
    } else {
        // A negative pc_ wraps past any program size.
        if (static_cast<unsigned>(pc_) >= numOps_) [[unlikely]]
            fatalPcOutOfRange(pc_, numOps_);
        op = &ops_[static_cast<std::size_t>(pc_)];
        // Microcode is fetched from its own SRAM; only program-mode
        // instructions touch the i-cache.
        if (!icache_.access(Program::instAddr(pc_), false))
            cycles_ += config_.missPenalty;
    }

    ++instsRetired_;
    cycles_ += 1 + op->extraLatency;
    ++counts_.insts;

    if (trace_) [[unlikely]]
        traceRetire(*op);

    execute(*op);
    return !halted_;
}

void
Core::publishCounts() const
{
    stats_.publish("insts", counts_.insts);
    stats_.publish("scalarInsts", counts_.scalarInsts);
    stats_.publish("vectorInsts", counts_.vectorInsts);
    stats_.publish("ucodeInsts", counts_.ucodeInsts);
    stats_.publish("loadUseStalls", counts_.loadUseStalls);
    stats_.publish("branches", counts_.branches);
    stats_.publish("takenBranches", counts_.takenBranches);
}

void
Core::traceRetire(const DecodedOp &op)
{
    *trace_ << std::setw(10) << cycles_ << (ucode_ ? "  u" : "   ")
            << std::setw(5) << (ucode_ ? static_cast<int>(upc_) : pc_)
            << "  " << op.inst->toString() << '\n';
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

const ConstVec &
Core::resolveCvec(const DecodedOp &op) const
{
    const std::uint32_t id = op.inst->cvec;
    LIQUID_ASSERT(id != noCvec);
    if (ucode_) {
        LIQUID_ASSERT(id < ucode_->cvecs.size(), "bad ucode cvec id");
        return ucode_->cvecs[id];
    }
    return prog_.cvec(id);
}

void
Core::chargeScalarMem(Addr ea, bool is_write)
{
    if (!dcache_.access(ea, is_write)) {
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
Core::execute(const DecodedOp &op)
{
    // Load-use interlock: one stall cycle when the previous instruction
    // was a load whose destination we consume.
    if (op.reads & pendingLoad_) {
        cycles_ += 1;
        ++counts_.loadUseStalls;
    }
    pendingLoad_ = 0;

    const bool executed = regs_.condHolds(op.cond);

    if (op.isVector()) {
        ++counts_.vectorInsts;
        if (executed)
            executeVector(op);
        retire(op, executed);
        advance();
        return;
    }
    ++counts_.scalarInsts;

    switch (op.handler) {
      case HNop:
        break;

      case HHalt:
        halted_ = true;
        break;

      case HMovImm:
      case HMovReg: {
        const Word value = op.handler == HMovImm
                               ? static_cast<Word>(op.imm)
                               : regs_.scalarAt(op.src1);
        if (executed)
            regs_.scalarAt(op.dst) = value;
        retire(op, executed, value);
        advance();
        return;
      }

      case HCmpRR:
      case HCmpRI: {
        const Word a = regs_.scalarAt(op.src1);
        const Word b = op.handler == HCmpRI ? static_cast<Word>(op.imm)
                                            : regs_.scalarAt(op.src2);
        if (executed) {
            regs_.setCmpState(evalCompare(
                a, b, (op.flags & DecodedOp::flagFloat) != 0));
        }
        break;
      }

      case HBranch:
        ++counts_.branches;
        if (!executed)
            break;
        LIQUID_ASSERT(op.imm >= 0, "unresolved branch");
        ++counts_.takenBranches;
        cycles_ += config_.takenBranchPenalty;
        retire(op, true, 0, invalidAddr, true);
        if (ucode_)
            upc_ = static_cast<unsigned>(op.imm);
        else
            pc_ = op.imm;
        return;

      case HBl: {
        LIQUID_ASSERT(!ucode_, "bl inside microcode");
        LIQUID_ASSERT(op.imm >= 0, "unresolved bl");
        stats_.inc(ctr_.calls);
        const Addr entry = op.memBase;
        auto &log = callLog_[entry];
        if (log.size() < 8)
            log.push_back(cycles_);

        cycles_ += config_.takenBranchPenalty;

        if (config_.translationEnabled && config_.simdWidth > 0 &&
            ucodeLookup_) {
            if (auto region = ucodeLookup_(entry, cycles_)) {
                // Microcode may be bound to a narrower width than the
                // accelerator (width fallback for short loops).
                LIQUID_ASSERT(region->simdWidth <= config_.simdWidth,
                              "microcode wider than accelerator");
                stats_.inc(ctr_.ucodeDispatches);
                ucode_ = std::move(region);
                upc_ = 0;
                ucodeReturn_ = pc_ + 1;
                // The bl itself retired; the translator must not see it
                // as a region entry (the region runs as microcode).
                return;
            }
        }

        callStack_.push_back(pc_ + 1);
        pc_ = op.imm;
        // The bl is the region boundary marker, not part of the
        // region: it reaches the translator via onCall only.
        if (sink_) {
            sink_->onCall(entry, op.inst->hinted, op.inst->blWidthHint,
                          cycles_);
        }
        return;
      }

      case HRet: {
        LIQUID_ASSERT(!ucode_, "ret inside microcode");
        if (callStack_.empty()) [[unlikely]]
            fatalTopLevelRet(pc_);
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

      case HLoad: {
        const Addr ea = effectiveAddr(op, regs_.scalarData());
        chargeScalarMem(ea, false);
        const Word value = mem_.readElem(
            ea, op.esize, (op.flags & DecodedOp::flagSigned) != 0);
        if (executed) {
            regs_.scalarAt(op.dst) = value;
            // Scalar file indices are the RegId::flat() numbers.
            pendingLoad_ = std::uint64_t{1} << op.dst;
        }
        retire(op, executed, value, ea);
        advance();
        return;
      }

      case HStore: {
        const Addr ea = effectiveAddr(op, regs_.scalarData());
        chargeScalarMem(ea, true);
        const Word value = regs_.scalarAt(op.src1);
        if (executed)
            mem_.writeElem(ea, op.esize, value);
        retire(op, executed, value, ea);
        advance();
        return;
      }

      case HDpRR:
      case HDpRI: {
        const Word b = op.handler == HDpRI ? static_cast<Word>(op.imm)
                                           : regs_.scalarAt(op.src2);
        const Word value =
            evalScalarOp(op.op, regs_.scalarAt(op.src1), b,
                         (op.flags & DecodedOp::flagFloat) != 0);
        cycles_ += floatLatency_[static_cast<std::size_t>(op.floatLatency)];
        if (executed)
            regs_.scalarAt(op.dst) = value;
        retire(op, executed, value);
        advance();
        return;
      }

      default:
        panic("unhandled scalar handler ", static_cast<unsigned>(op.handler));
    }

    retire(op, executed);
    advance();
}

void
Core::executeVector(const DecodedOp &op)
{
    const unsigned width = ucode_ ? ucode_->simdWidth
                                  : config_.simdWidth;
    if (width == 0) {
        fatal("vector instruction '", op.inst->toString(),
              "' but no SIMD accelerator configured");
    }
    const bool use_float = (op.flags & DecodedOp::flagFloat) != 0;

    switch (op.handler) {
      case HVLoad: {
        const Addr ea = effectiveAddr(op, regs_.scalarData());
        chargeVectorMem(ea, width * op.esize, false);
        const bool sign = (op.flags & DecodedOp::flagSigned) != 0;
        VecValue value{};
        for (unsigned l = 0; l < width; ++l)
            value[l] = mem_.readElem(ea + l * op.esize, op.esize, sign);
        regs_.vectorAt(op.dst) = value;
        // Vector file indices sit 2 * regsPerClass above RegId::flat().
        pendingLoad_ = std::uint64_t{1} << (2 * regsPerClass + op.dst);
        return;
      }

      case HVStore: {
        const Addr ea = effectiveAddr(op, regs_.scalarData());
        chargeVectorMem(ea, width * op.esize, true);
        const VecValue &value = regs_.vectorAt(op.src1);
        for (unsigned l = 0; l < width; ++l)
            mem_.writeElem(ea + l * op.esize, op.esize, value[l]);
        return;
      }

      case HVRed:
        regs_.scalarAt(op.dst) =
            evalReduction(op.op, regs_.scalarAt(op.src1),
                          regs_.vectorAt(op.src2), width, use_float);
        return;

      case HVPerm:
        regs_.vectorAt(op.dst) =
            evalPerm(regs_.vectorAt(op.src1), op.inst->permKind,
                     op.inst->permBlock, width);
        return;

      case HVMask:
        regs_.vectorAt(op.dst) =
            evalMask(regs_.vectorAt(op.src1), op.inst->maskBits,
                     op.inst->maskBlock, width);
        return;

      case HVDpRR:
      case HVDpImm:
      case HVDpCvec: {
        cycles_ += floatLatency_[static_cast<std::size_t>(op.floatLatency)];
        VecValue out{};
        if (op.handler == HVDpCvec) {
            out = evalVectorConstOp(op.op, regs_.vectorAt(op.src1),
                                    resolveCvec(op), width, use_float);
        } else if (op.handler == HVDpImm) {
            VecValue imm{};
            imm.fill(static_cast<Word>(op.imm));
            out = evalVectorOp(op.op, regs_.vectorAt(op.src1), imm, width,
                               use_float);
        } else {
            out = evalVectorOp(op.op, regs_.vectorAt(op.src1),
                               regs_.vectorAt(op.src2), width, use_float);
        }
        regs_.vectorAt(op.dst) = out;
        return;
      }

      default:
        panic("unhandled vector handler ", static_cast<unsigned>(op.handler));
    }
}

} // namespace liquid
