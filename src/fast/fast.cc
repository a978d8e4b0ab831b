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
    numOps_ = ops_.size();
    pc_ = prog_.hasLabel("main") ? prog_.labelIndex("main") : 0;
}

// ---- predecode ---------------------------------------------------------

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

// ---- handlers ----------------------------------------------------------

void
FastInterp::hIllegalDst(const DecodedOp &o)
{
    if (execCond(o))
        illegalOperands(o);
    execOne(decodeSkippedDst(o));
}

void
FastInterp::hNop(const DecodedOp &o)
{
    ++retired_;
    pc_ += o.pcBump;
}

void
FastInterp::hHalt(const DecodedOp &o)
{
    ++retired_;
    halted_ = true;
    pc_ += o.pcBump;
}

void
FastInterp::hStaleNop(const DecodedOp &o)
{
    // Sabotage only: the instruction retires but its effect is gone.
    ++retired_;
    pc_ += o.pcBump;
}

void
FastInterp::hMovImm(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o))
        scalars_[o.dst] = static_cast<Word>(o.imm);
    pc_ += o.pcBump;
}

void
FastInterp::hMovReg(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o))
        scalars_[o.dst] = scalars_[o.src1];
    pc_ += o.pcBump;
}

void
FastInterp::hCmpRR(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        const Word a = scalars_[o.src1];
        const Word b = scalars_[o.src2];
        const bool use_float = (o.flags & DecodedOp::flagFloat) != 0;
        cmp_ = config_.sabotage == Sabotage::WrongFlagUpdate
                   ? evalCompare(b, a, use_float)
                   : evalCompare(a, b, use_float);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hCmpRI(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        const Word a = scalars_[o.src1];
        const Word b = static_cast<Word>(o.imm);
        const bool use_float = (o.flags & DecodedOp::flagFloat) != 0;
        cmp_ = config_.sabotage == Sabotage::WrongFlagUpdate
                   ? evalCompare(b, a, use_float)
                   : evalCompare(a, b, use_float);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hBranch(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o))
        pc_ = o.imm;
    else
        pc_ += o.pcBump;
}

void
FastInterp::hBl(const DecodedOp &o)
{
    // Like the cycle core, bl and ret ignore the condition field.
    ++retired_;
    ++calls_;
    ++callCounts_[o.memBase];
    lastCallTarget_ = o.imm;
    callStack_.push_back(pc_ + 1);
    pc_ = o.imm;
}

void
FastInterp::hRet(const DecodedOp &o)
{
    ++retired_;
    LIQUID_ASSERT(!callStack_.empty(), "ret with empty call stack");
    pc_ = callStack_.back();
    callStack_.pop_back();
    static_cast<void>(o);
}

void
FastInterp::hLoad(const DecodedOp &o)
{
    ++retired_;
    const Addr ea = memEA(o);
    // The cycle core reads memory regardless of the condition and
    // gates only the register write; mirror that exactly.
    const Word value =
        mem_.readElem(ea, o.esize, (o.flags & DecodedOp::flagSigned) != 0);
    if (execCond(o))
        scalars_[o.dst] = value;
    pc_ += o.pcBump;
}

void
FastInterp::hStore(const DecodedOp &o)
{
    ++retired_;
    const Addr ea = memEA(o);
    const Word value = scalars_[o.src1];
    ++storesSeen_;
    if (execCond(o) &&
        (config_.sabotage != Sabotage::SkippedStore ||
         storesSeen_ % 17 != 0))
        mem_.writeElem(ea, o.esize, value);
    pc_ += o.pcBump;
}

void
FastInterp::hDpRR(const DecodedOp &o)
{
    ++retired_;
    const Word value =
        evalScalarOp(o.op, scalars_[o.src1], scalars_[o.src2],
                     (o.flags & DecodedOp::flagFloat) != 0);
    if (execCond(o))
        scalars_[o.dst] = value;
    pc_ += o.pcBump;
}

void
FastInterp::hDpRI(const DecodedOp &o)
{
    ++retired_;
    const Word value =
        evalScalarOp(o.op, scalars_[o.src1], static_cast<Word>(o.imm),
                     (o.flags & DecodedOp::flagFloat) != 0);
    if (execCond(o))
        scalars_[o.dst] = value;
    pc_ += o.pcBump;
}

unsigned
FastInterp::vectorWidth(const DecodedOp &o) const
{
    if (config_.simdWidth == 0) {
        fatal("vector instruction '", o.inst->toString(),
              "' but no SIMD accelerator configured");
    }
    return config_.simdWidth;
}

void
FastInterp::hVLoad(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        const unsigned width = vectorWidth(o);
        const Addr ea = memEA(o);
        const bool sign = (o.flags & DecodedOp::flagSigned) != 0;
        VecValue value{};
        for (unsigned l = 0; l < width; ++l)
            value[l] = mem_.readElem(ea + l * o.esize, o.esize, sign);
        vectors_[o.dst] = value;
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVStore(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        const unsigned width = vectorWidth(o);
        const Addr ea = memEA(o);
        const VecValue &value = vectors_[o.src1];
        for (unsigned l = 0; l < width; ++l)
            mem_.writeElem(ea + l * o.esize, o.esize, value[l]);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVRed(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        scalars_[o.dst] = evalReduction(
            o.op, scalars_[o.src1], vectors_[o.src2], vectorWidth(o),
            (o.flags & DecodedOp::flagFloat) != 0);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVPerm(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        vectors_[o.dst] =
            evalPerm(vectors_[o.src1], o.inst->permKind,
                     o.inst->permBlock, vectorWidth(o));
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVMask(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        vectors_[o.dst] =
            evalMask(vectors_[o.src1], o.inst->maskBits,
                     o.inst->maskBlock, vectorWidth(o));
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVDpRR(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        vectors_[o.dst] = evalVectorOp(
            o.op, vectors_[o.src1], vectors_[o.src2], vectorWidth(o),
            (o.flags & DecodedOp::flagFloat) != 0);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVDpImm(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        VecValue imm{};
        imm.fill(static_cast<Word>(o.imm));
        vectors_[o.dst] = evalVectorOp(
            o.op, vectors_[o.src1], imm, vectorWidth(o),
            (o.flags & DecodedOp::flagFloat) != 0);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVDpCvec(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o)) {
        vectors_[o.dst] = evalVectorConstOp(
            o.op, vectors_[o.src1], prog_.cvec(o.inst->cvec),
            vectorWidth(o), (o.flags & DecodedOp::flagFloat) != 0);
    }
    pc_ += o.pcBump;
}

void
FastInterp::hVIllegal(const DecodedOp &o)
{
    ++retired_;
    if (execCond(o))
        illegalOperands(o);
    pc_ += o.pcBump;
}

// ---- dispatch ----------------------------------------------------------

void
FastInterp::execOne(const DecodedOp &o)
{
    switch (o.handler) {
      case HIllegal: illegalOperands(o);
      case HIllegalDst: hIllegalDst(o); return;
      case HNop: hNop(o); return;
      case HHalt: hHalt(o); return;
      case HStaleNop: hStaleNop(o); return;
      case HMovImm: hMovImm(o); return;
      case HMovReg: hMovReg(o); return;
      case HCmpRR: hCmpRR(o); return;
      case HCmpRI: hCmpRI(o); return;
      case HBranch: hBranch(o); return;
      case HBl: hBl(o); return;
      case HRet: hRet(o); return;
      case HLoad: hLoad(o); return;
      case HStore: hStore(o); return;
      case HDpRR: hDpRR(o); return;
      case HDpRI: hDpRI(o); return;
      case HVLoad: hVLoad(o); return;
      case HVStore: hVStore(o); return;
      case HVRed: hVRed(o); return;
      case HVPerm: hVPerm(o); return;
      case HVMask: hVMask(o); return;
      case HVDpRR: hVDpRR(o); return;
      case HVDpImm: hVDpImm(o); return;
      case HVDpCvec: hVDpCvec(o); return;
      case HVIllegal: hVIllegal(o); return;
      default:
        panic("fast: dispatch of undecoded handler ",
              static_cast<unsigned>(o.handler));
    }
}

void
FastInterp::dispatchSwitch(std::uint64_t stop)
{
    while (!halted_ && retired_ < stop) {
        LIQUID_ASSERT(pcInRange(), "pc out of range: ", pc_);
        const DecodedOp &o = ops_[static_cast<std::size_t>(pc_)];
        if (o.handler == HInvalid) {
            decodeBlock(pc_);
            continue;
        }
        execOne(o);
    }
}

// Computed-goto threaded dispatch (GNU labels-as-values): every handler
// site ends in its own indirect jump, so the branch predictor can learn
// per-opcode successor patterns — the point of threaded dispatch.
// NOLINTBEGIN(cppcoreguidelines-avoid-goto,hicpp-avoid-goto)
void
FastInterp::dispatchGoto(std::uint64_t stop)
{
#if defined(__GNUC__) || defined(__clang__)
    static const void *const table[] = {
        &&L_Invalid, &&L_Illegal, &&L_IllegalDst, &&L_Nop,
        &&L_Halt,    &&L_StaleNop, &&L_MovImm,    &&L_MovReg,
        &&L_CmpRR,   &&L_CmpRI,    &&L_Branch,    &&L_Bl,
        &&L_Ret,     &&L_Load,     &&L_Store,     &&L_DpRR,
        &&L_DpRI,    &&L_VLoad,    &&L_VStore,    &&L_VRed,
        &&L_VPerm,   &&L_VMask,    &&L_VDpRR,     &&L_VDpImm,
        &&L_VDpCvec, &&L_VIllegal,
    };
    static_assert(sizeof(table) / sizeof(table[0]) == HNumHandlers,
                  "dispatch table out of sync with OpHandler");

#define LIQUID_FAST_NEXT()                                              \
    do {                                                                \
        if (halted_ || retired_ >= stop)                                \
            return;                                                     \
        LIQUID_ASSERT(pcInRange(), "pc out of range: ", pc_);           \
        goto *table[ops_[static_cast<std::size_t>(pc_)].handler];       \
    } while (0)

    LIQUID_FAST_NEXT();
L_Invalid:
    decodeBlock(pc_);
    LIQUID_FAST_NEXT();
L_Illegal:
    illegalOperands(ops_[static_cast<std::size_t>(pc_)]);
L_IllegalDst:
    hIllegalDst(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Nop:
    hNop(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Halt:
    hHalt(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_StaleNop:
    hStaleNop(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_MovImm:
    hMovImm(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_MovReg:
    hMovReg(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_CmpRR:
    hCmpRR(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_CmpRI:
    hCmpRI(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Branch:
    hBranch(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Bl:
    hBl(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Ret:
    hRet(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Load:
    hLoad(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_Store:
    hStore(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_DpRR:
    hDpRR(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_DpRI:
    hDpRI(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VLoad:
    hVLoad(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VStore:
    hVStore(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VRed:
    hVRed(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VPerm:
    hVPerm(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VMask:
    hVMask(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VDpRR:
    hVDpRR(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VDpImm:
    hVDpImm(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VDpCvec:
    hVDpCvec(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();
L_VIllegal:
    hVIllegal(ops_[static_cast<std::size_t>(pc_)]);
    LIQUID_FAST_NEXT();

#undef LIQUID_FAST_NEXT
#else
    dispatchSwitch(stop);
#endif
}
// NOLINTEND(cppcoreguidelines-avoid-goto,hicpp-avoid-goto)

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
        if (config_.switchDispatch)
            dispatchSwitch(stop);
        else
            dispatchGoto(stop);
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
    if (halted_)
        return false;
    if (retired_ >= config_.maxInsts)
        fatal("instruction watchdog exceeded (", config_.maxInsts, ")");
    fireDueFaults();
    LIQUID_ASSERT(pcInRange(), "pc out of range: ", pc_);
    if (ops_[static_cast<std::size_t>(pc_)].handler == HInvalid)
        decodeBlock(pc_);
    execOne(ops_[static_cast<std::size_t>(pc_)]);
    return !halted_;
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
