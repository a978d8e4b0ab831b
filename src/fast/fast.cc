#include "fast/fast.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "cpu/exec.hh"

namespace liquid::fast
{

FastInterp::FastInterp(const FastConfig &config, const Program &prog,
                       MainMemory &mem)
    : config_(config), prog_(prog), mem_(mem), stats_("fast")
{
    // Satellite of the tier contract: the legacy cycle-periodic
    // interrupt cannot be silently ignored — there is no cycle clock
    // for it to key on, so reject it loudly.
    if (config_.faults.interruptPeriod != 0) {
        fatal("functional tier has no cycle clock: cycle-periodic "
              "interrupt schedule 'p", config_.faults.interruptPeriod,
              "' cannot fire; use retire-keyed events (e.g. 'int@40') "
              "or the cycle tier");
    }
    LIQUID_ASSERT(!prog_.code().empty(), "empty program");
    LIQUID_ASSERT(config_.simdWidth <= maxSimdWidth,
                  "simd width ", config_.simdWidth, " out of range");
    config_.faults.normalize();
    ops_.assign(prog_.code().size(), DecodedOp{});
    blockStart_.assign(ops_.size(), -1);
    blockLeft_.assign(ops_.size(), 0);
    numOps_ = ops_.size();
    pc_ = prog_.hasLabel("main") ? prog_.labelIndex("main") : 0;
}

// ---- predecode ---------------------------------------------------------

namespace
{

/**
 * Give an integer add, sub or mul and a word load or store its
 * functional-tier handler (decode.hh). The handler fixes what the
 * generic one tests per retire: the opcode, the float flag, the size.
 */
void
specialize(DecodedOp &op)
{
    const bool imm = op.handler == HDpRI;
    switch (op.handler) {
      case HLoad:
        if (op.esize == 4)
            op.handler = HLoadWord;
        return;
      case HStore:
        if (op.esize == 4)
            op.handler = HStoreWord;
        return;
      case HDpRR:
      case HDpRI:
        if ((op.flags & DecodedOp::flagFloat) != 0)
            return;
        if (op.op == Opcode::Add)
            op.handler = imm ? HAddRI : HAddRR;
        else if (op.op == Opcode::Sub)
            op.handler = imm ? HSubRI : HSubRR;
        else if (op.op == Opcode::Mul)
            op.handler = imm ? HMulRI : HMulRR;
        return;
      default:
        return;
    }
}

} // namespace

void
FastInterp::decodeBlock(int start)
{
    LIQUID_ASSERT(start >= 0 &&
                      static_cast<std::size_t>(start) < ops_.size(),
                  "pc out of range: ", start);
    const auto &code = prog_.code();
    std::size_t i = static_cast<std::size_t>(start);
    int first_effect = -1;
    for (;;) {
        const Inst &inst = code[i];
        DecodedOp op = decodeInst(inst);
        specialize(op);
        const bool terminator =
            inst.op == Opcode::B || inst.op == Opcode::Bl ||
            inst.op == Opcode::Ret || inst.op == Opcode::Halt;
        // Sabotage: a conditional block terminator falls through one
        // instruction too far — the classic block-boundary off-by-one.
        if (config_.sabotage == Sabotage::OffByOneBlock && terminator &&
            op.handler == HBranch)
            op.pcBump = 2;
        ops_[i] = op;
        blockStart_[i] = start;
        ++decodedInsts_;
        if (first_effect < 0 && op.handler != HNop)
            first_effect = static_cast<int>(i);
        if (terminator || i + 1 == ops_.size())
            break;
        ++i;
    }
    for (std::size_t j = static_cast<std::size_t>(start); j <= i; ++j)
        blockLeft_[j] = static_cast<std::uint32_t>(i - j + 1);
    ++blocksDecoded_;
    if (pendingStale_ && first_effect >= 0) {
        ops_[static_cast<std::size_t>(first_effect)].handler = HStaleNop;
        pendingStale_ = false;
    }
}

// ---- dispatch-cache invalidation ---------------------------------------

int
FastInterp::addrToIndex(Addr addr) const
{
    if (addr < Program::codeBase)
        return -1;
    const Addr index = (addr - Program::codeBase) / 4;
    if (index >= ops_.size())
        return -1;
    return static_cast<int>(index);
}

void
FastInterp::invalidateIndexRange(std::size_t lo, std::size_t hi)
{
    hi = std::min(hi, ops_.size());
    for (std::size_t i = lo; i < hi; ++i) {
        const int anchor = blockStart_[i];
        if (anchor < 0)
            continue;
        // Entries carry their block's anchor index, so dropping the
        // contiguous anchor run drops the whole predecoded block.
        std::size_t j = static_cast<std::size_t>(anchor);
        while (j < ops_.size() && blockStart_[j] == anchor)
            resetOp(j++);
        ++invalidations_;
    }
}

void
FastInterp::invalidateCodeRange(Addr lo, Addr hi)
{
    if (hi <= Program::codeBase)
        return;
    const std::size_t first =
        lo <= Program::codeBase
            ? 0
            : static_cast<std::size_t>((lo - Program::codeBase) / 4);
    const std::size_t last =
        static_cast<std::size_t>((hi - Program::codeBase + 3) / 4);
    invalidateIndexRange(first, last);
}

void
FastInterp::flushDecodeCache()
{
    for (std::size_t i = 0; i < ops_.size(); ++i)
        resetOp(i);
    ++flushes_;
}

bool
FastInterp::isDecoded(int index) const
{
    return index >= 0 && static_cast<std::size_t>(index) < ops_.size() &&
           blockStart_[static_cast<std::size_t>(index)] >= 0;
}

void
FastInterp::corruptStale(Addr lo)
{
    int start = addrToIndex(lo);
    if (start < 0)
        start = 0;
    for (std::size_t i = static_cast<std::size_t>(start);
         i < ops_.size(); ++i) {
        if (blockStart_[i] >= 0 && ops_[i].handler != HNop) {
            ops_[i].handler = HStaleNop;
            return;
        }
    }
    // Nothing decoded there yet: stale the next block decoded instead,
    // so the seeded bug always lands somewhere observable.
    pendingStale_ = true;
}

// ---- fault events ------------------------------------------------------

void
FastInterp::fireDueFaults()
{
    const auto &events = config_.faults.events;
    while (nextFault_ < events.size() &&
           events[nextFault_].atRetire <= retired_) {
        raiseFault(events[nextFault_]);
        ++nextFault_;
    }
}

void
FastInterp::raiseFault(const FaultEvent &event)
{
    ++faultCounts_[static_cast<std::size_t>(event.kind)];

    switch (event.kind) {
      case FaultKind::Interrupt:
        // No translator to abort and no cycle clock to charge: an
        // interrupt is architecturally transparent here, exactly as
        // the transparency contract demands of the cycle model.
        return;

      case FaultKind::DcachePerturb:
        // Timing-only perturbation; the functional tier has no caches.
        return;

      case FaultKind::UcodeFlush:
        // Context switch: the cycle model drops every translation; the
        // functional tier drops every predecoded block.
        flushDecodeCache();
        return;

      case FaultKind::UcodeEvict: {
        const int index = event.addr != invalidAddr
                              ? addrToIndex(event.addr)
                              : lastCallTarget_;
        if (index >= 0)
            invalidateIndexRange(static_cast<std::size_t>(index),
                                 static_cast<std::size_t>(index) + 1);
        return;
      }

      case FaultKind::SmcStore: {
        Addr lo = event.addr;
        if (lo == invalidAddr) {
            if (lastCallTarget_ < 0) {
                flushDecodeCache();
                return;
            }
            lo = Program::instAddr(lastCallTarget_);
        }
        if (config_.sabotage == Sabotage::StaleDecodeAfterSmc) {
            // Sabotage: skip the invalidation and leave a stale entry
            // behind — the bug class the SMC hook exists to prevent.
            corruptStale(lo);
            return;
        }
        invalidateCodeRange(lo, lo + 4);
        return;
      }

      case FaultKind::NumKinds:
        break;
    }
    panic("bad fault kind");
}

// ---- dispatch ----------------------------------------------------------

unsigned
FastInterp::vectorWidth(const DecodedOp &o) const
{
    if (config_.simdWidth == 0) {
        fatal("vector instruction '", o.inst->toString(),
              "' but no SIMD accelerator configured");
    }
    return config_.simdWidth;
}

template <Opcode Op>
inline void
FastInterp::execIntDp(const DecodedOp &o, Word b)
{
    const Word value = evalScalarOp(Op, scalars_[o.src1], b, false);
    if (execCond(o))
        scalars_[o.dst] = value;
}

inline bool
FastInterp::storeWrites(const DecodedOp &o)
{
    ++storesSeen_;
    return execCond(o) && (config_.sabotage != Sabotage::SkippedStore ||
                           storesSeen_ % 17 != 0);
}

void
FastInterp::dispatch(std::uint64_t stop)
{
    // pc and the retire count stay in locals while blocks run and are
    // written back on every exit, a user error's included. An op
    // retires before its effect, as on the cycle core, so a fatal()
    // raised mid-block leaves retired() and pc where the core's are.
    int pc = pc_;
    std::uint64_t retired = retired_;
    const DecodedOp *const ops = ops_.data();  // sized once, never moves
    try {
        while (retired < stop) {
            // Once per block entry: the pc range (a negative pc wraps
            // past any size), the decode state and the stop, which
            // cuts the block short when it falls inside it.
            if (static_cast<unsigned>(pc) >= numOps_) [[unlikely]]
                fatalPcOutOfRange(pc, numOps_);
            if (ops[pc].handler == HInvalid)
                decodeBlock(pc);
            const std::uint64_t end =
                retired + std::min<std::uint64_t>(
                              blockLeft_[static_cast<std::size_t>(pc)],
                              stop - retired);
            // Every op but a block's last falls through to pc + 1, so
            // the next pc never waits on a load of the op; a branch,
            // bl, ret or halt is its block's last op.
            while (retired != end) {
                const DecodedOp &o = ops[pc];
                ++retired;
                switch (o.handler) {
                  case HNop:
                  case HStaleNop:  // sabotage: retires, effect is gone
                    break;

                  case HHalt:
                    halted_ = true;
                    pc_ = pc + 1;
                    retired_ = retired;
                    return;

                  case HMovImm:
                    if (execCond(o))
                        scalars_[o.dst] = static_cast<Word>(o.imm);
                    break;

                  case HMovReg:
                    if (execCond(o))
                        scalars_[o.dst] = scalars_[o.src1];
                    break;

                  case HCmpRR:
                  case HCmpRI:
                    if (execCond(o)) {
                        const bool is_float =
                            (o.flags & DecodedOp::flagFloat) != 0;
                        const Word a = scalars_[o.src1];
                        const Word b = o.handler == HCmpRI
                                           ? static_cast<Word>(o.imm)
                                           : scalars_[o.src2];
                        cmp_ = config_.sabotage == Sabotage::WrongFlagUpdate
                                   ? evalCompare(b, a, is_float)
                                   : evalCompare(a, b, is_float);
                    }
                    break;

                  case HBranch:
                    // Not taken: pcBump, which the OffByOneBlock
                    // sabotage sets to 2.
                    pc = execCond(o) ? o.imm : pc + o.pcBump;
                    continue;

                  case HBl:
                    // Like the cycle core, bl and ret ignore the
                    // condition field.
                    ++calls_;
                    ++callCounts_[o.memBase];
                    lastCallTarget_ = o.imm;
                    callStack_.push_back(pc + 1);
                    pc = o.imm;
                    continue;

                  case HRet:
                    if (callStack_.empty()) [[unlikely]]
                        fatalTopLevelRet(pc);
                    pc = callStack_.back();
                    callStack_.pop_back();
                    continue;

                  case HLoad: {
                    // The cycle core reads memory regardless of the
                    // condition and gates only the register write;
                    // mirror that exactly.
                    const Word value = mem_.readElem(
                        memEA(o), o.esize,
                        (o.flags & DecodedOp::flagSigned) != 0);
                    if (execCond(o))
                        scalars_[o.dst] = value;
                    break;
                  }

                  case HLoadWord: {
                    const Word value = mem_.readWord(memEA(o));
                    if (execCond(o))
                        scalars_[o.dst] = value;
                    break;
                  }

                  case HStore: {
                    const Addr ea = memEA(o);
                    if (storeWrites(o))
                        mem_.writeElem(ea, o.esize, scalars_[o.src1]);
                    break;
                  }

                  case HStoreWord: {
                    const Addr ea = memEA(o);
                    if (storeWrites(o))
                        mem_.writeWord(ea, scalars_[o.src1]);
                    break;
                  }

                  case HDpRR:
                  case HDpRI: {
                    const Word b = o.handler == HDpRI
                                       ? static_cast<Word>(o.imm)
                                       : scalars_[o.src2];
                    const Word value = evalScalarOp(
                        o.op, scalars_[o.src1], b,
                        (o.flags & DecodedOp::flagFloat) != 0);
                    if (execCond(o))
                        scalars_[o.dst] = value;
                    break;
                  }

                  case HAddRR:
                    execIntDp<Opcode::Add>(o, scalars_[o.src2]);
                    break;
                  case HAddRI:
                    execIntDp<Opcode::Add>(o, static_cast<Word>(o.imm));
                    break;
                  case HSubRR:
                    execIntDp<Opcode::Sub>(o, scalars_[o.src2]);
                    break;
                  case HSubRI:
                    execIntDp<Opcode::Sub>(o, static_cast<Word>(o.imm));
                    break;
                  case HMulRR:
                    execIntDp<Opcode::Mul>(o, scalars_[o.src2]);
                    break;
                  case HMulRI:
                    execIntDp<Opcode::Mul>(o, static_cast<Word>(o.imm));
                    break;

                  default:
                    // Vector ops are skipped whole when their
                    // condition fails.
                    if (execCond(o))
                        execVector(o,
                                   (o.flags & DecodedOp::flagFloat) != 0);
                    break;
                }
                ++pc;
            }
        }
    } catch (...) {
        pc_ = pc;
        retired_ = retired;
        throw;
    }
    pc_ = pc;
    retired_ = retired;
}

void
FastInterp::execVector(const DecodedOp &o, bool is_float)
{
    const unsigned width = vectorWidth(o);
    switch (o.handler) {
      case HVLoad: {
        const Addr ea = memEA(o);
        const bool sign = (o.flags & DecodedOp::flagSigned) != 0;
        VecValue value{};
        for (unsigned l = 0; l < width; ++l)
            value[l] = mem_.readElem(ea + l * o.esize, o.esize, sign);
        vectors_[o.dst] = value;
        return;
      }

      case HVStore: {
        const Addr ea = memEA(o);
        const VecValue &value = vectors_[o.src1];
        for (unsigned l = 0; l < width; ++l)
            mem_.writeElem(ea + l * o.esize, o.esize, value[l]);
        return;
      }

      case HVRed:
        scalars_[o.dst] = evalReduction(o.op, scalars_[o.src1],
                                        vectors_[o.src2], width, is_float);
        return;

      case HVPerm:
        vectors_[o.dst] = evalPerm(vectors_[o.src1], o.inst->permKind,
                                   o.inst->permBlock, width);
        return;

      case HVMask:
        vectors_[o.dst] = evalMask(vectors_[o.src1], o.inst->maskBits,
                                   o.inst->maskBlock, width);
        return;

      case HVDpRR:
        vectors_[o.dst] = evalVectorOp(o.op, vectors_[o.src1],
                                       vectors_[o.src2], width, is_float);
        return;

      case HVDpImm: {
        VecValue imm{};
        imm.fill(static_cast<Word>(o.imm));
        vectors_[o.dst] =
            evalVectorOp(o.op, vectors_[o.src1], imm, width, is_float);
        return;
      }

      case HVDpCvec:
        vectors_[o.dst] = evalVectorConstOp(o.op, vectors_[o.src1],
                                            prog_.cvec(o.inst->cvec),
                                            width, is_float);
        return;

      default:
        panic("fast: dispatch of unhandled handler ",
              static_cast<unsigned>(o.handler));
    }
}

// ---- run loops ---------------------------------------------------------

bool
FastInterp::runUntil(std::uint64_t target)
{
    const auto &events = config_.faults.events;
    for (;;) {
        if (halted_ || retired_ >= target)
            break;
        if (retired_ >= config_.maxInsts) {
            fatal("instruction watchdog exceeded (", config_.maxInsts,
                  ")");
        }
        fireDueFaults();
        std::uint64_t stop = std::min(target, config_.maxInsts);
        if (nextFault_ < events.size())
            stop = std::min(stop, events[nextFault_].atRetire);
        dispatch(stop);
    }
    return halted_;
}

void
FastInterp::run()
{
    runUntil(std::numeric_limits<std::uint64_t>::max());
}

bool
FastInterp::step()
{
    return !runUntil(retired_ + 1);
}

// ---- state import/export and stats -------------------------------------

void
FastInterp::exportRegs(RegFile &out) const
{
    for (unsigned i = 0; i < regsPerClass; ++i) {
        out.write(RegId(RegClass::Int, i), scalars_[i]);
        out.write(RegId(RegClass::Flt, i), scalars_[regsPerClass + i]);
        out.writeVec(RegId(RegClass::Vec, i), vectors_[i]);
        out.writeVec(RegId(RegClass::VFlt, i),
                     vectors_[regsPerClass + i]);
    }
    out.setCmpState(cmp_);
}

void
FastInterp::importRegs(const RegFile &in)
{
    for (unsigned i = 0; i < regsPerClass; ++i) {
        scalars_[i] = in.read(RegId(RegClass::Int, i));
        scalars_[regsPerClass + i] = in.read(RegId(RegClass::Flt, i));
        vectors_[i] = in.readVec(RegId(RegClass::Vec, i));
        vectors_[regsPerClass + i] =
            in.readVec(RegId(RegClass::VFlt, i));
    }
    cmp_ = in.cmpState();
}

StatGroup &
FastInterp::stats()
{
    stats_.set("insts", retired_);
    stats_.set("calls", calls_);
    stats_.set("blocksDecoded", blocksDecoded_);
    stats_.set("decodedInsts", decodedInsts_);
    stats_.set("decodeInvalidations", invalidations_);
    stats_.set("decodeFlushes", flushes_);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(FaultKind::NumKinds); ++k) {
        if (faultCounts_[k]) {
            stats_.set(std::string("faults.") +
                           faultKindName(static_cast<FaultKind>(k)),
                       faultCounts_[k]);
        }
    }
    if (faultCounts_[static_cast<std::size_t>(FaultKind::Interrupt)]) {
        stats_.set("interrupts",
                   faultCounts_[static_cast<std::size_t>(
                       FaultKind::Interrupt)]);
    }
    return stats_;
}

} // namespace liquid::fast
