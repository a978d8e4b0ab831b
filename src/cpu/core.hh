/**
 * @file
 * The processor model: an in-order, single-issue five-stage pipeline in
 * the style of the ARM-926EJ-S the paper simulates, extended with a
 * parameterized SIMD accelerator datapath and a microcode-dispatch front
 * end (paper Figure 1).
 *
 * The model is execute-at-retire: each instruction is functionally
 * executed and charged its cycle cost in program order. Retired
 * instructions are exposed on a retire bus (RetireSink) that the
 * post-retirement dynamic translator listens to.
 *
 * The core runs predecoded ops (cpu/decode.hh): the program is decoded
 * once when the core is built, each microcode region once when the
 * microcode cache commits it. What remains here is the timing policy:
 * I-fetch and D-cache charges, the load-use interlock, branch and float
 * latencies, the retire bus, and the watchdog and fault-schedule checks
 * between instructions.
 */

#ifndef LIQUID_CPU_CORE_HH
#define LIQUID_CPU_CORE_HH

#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

#include "asm/program.hh"
#include "chaos/fault_schedule.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/decode.hh"
#include "cpu/regfile.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "memory/ucode_cache.hh"

namespace liquid
{

/** Core and memory-hierarchy configuration. */
struct CoreConfig
{
    /** SIMD accelerator vector width in 32-bit lanes; 0 = none. */
    unsigned simdWidth = 0;
    /** Dispatch translated microcode on hits (Liquid SIMD mode). */
    bool translationEnabled = true;

    Cycles missPenalty = 60;
    unsigned busBytesPerCycle = 16;  ///< SIMD memory datapath width
    unsigned takenBranchPenalty = 2;
    unsigned floatAddLatency = 1;    ///< extra cycles for float add/sub
    unsigned floatMulLatency = 3;    ///< extra cycles for float mul

    CacheConfig icache{};
    CacheConfig dcache{};

    /**
     * Failure injection: deterministic schedule of external events
     * (interrupts, microcode-cache flush/evict, SMC stores, data-cache
     * perturbation). FaultSchedule::periodic(N) reproduces the old
     * interruptPeriod knob exactly.
     */
    FaultSchedule faults{};

    /**
     * Deliberately WRONG hardware model, used only by the chaos
     * sabotage test: an interrupt arriving while microcode executes
     * abandons the region mid-flight (skipping the remaining lanes)
     * instead of letting it complete. The equivalence oracle must
     * catch the missing architectural state.
     */
    bool sabotageAbandonUcodeOnInterrupt = false;

    /** Watchdog: fatal() after this many retired instructions. */
    std::uint64_t maxInsts = 2'000'000'000ull;
};

/** Everything the retire bus reports about one retired instruction. */
struct RetireInfo
{
    const Inst *inst = nullptr;
    int index = -1;       ///< static instruction index
    bool executed = true; ///< condition held
    Word value = 0;       ///< result / loaded / stored value
    Addr memAddr = invalidAddr;
    bool branchTaken = false;
};

/** Listener on the retire bus (implemented by the dynamic translator). */
class RetireSink
{
  public:
    virtual ~RetireSink() = default;

    /** A scalar-mode instruction retired. */
    virtual void onRetire(const RetireInfo &info, Cycles now) = 0;
    /** A bl retired and control entered the outlined function. */
    virtual void onCall(Addr callee_entry, bool hinted,
                        unsigned width_hint, Cycles now) = 0;
    /** A ret retired. */
    virtual void onReturn(Cycles now) = 0;
    /** External abort: interrupt / context switch. */
    virtual void onInterrupt(Cycles now) = 0;
};

/** The processor core. */
class Core
{
  public:
    Core(const CoreConfig &config, const Program &prog, MainMemory &mem);

    /** Attach the post-retirement translator (may be null). */
    void setRetireSink(RetireSink *sink) { sink_ = sink; }

    /**
     * Front-end microcode lookup: given an outlined function's entry
     * address and the current cycle, return ready microcode or null.
     * The core latches the returned region until it completes.
     */
    using UcodeLookup =
        std::function<std::shared_ptr<const DecodedUcode>(Addr, Cycles)>;
    void setUcodeLookup(UcodeLookup lookup) { ucodeLookup_ = lookup; }

    /**
     * Receiver for scheduled fault events the core cannot service
     * itself (microcode-cache flush/evict, SMC stores). The System
     * installs this because it owns the microcode cache and the
     * translator; interrupts and data-cache perturbation are handled
     * core-locally. Events with no handler are counted and dropped.
     */
    using FaultHandler = std::function<void(const FaultEvent &, Cycles)>;
    void setFaultHandler(FaultHandler handler)
    {
        faultHandler_ = std::move(handler);
    }

    /** Run from the program's "main" label (or index 0) until halt. */
    void run();

    /**
     * Execute one outlined region in isolation: run from instruction
     * @p entry_index until its ret. Used by the offline translator's
     * sandbox.
     */
    void runRegion(int entry_index);

    /** Run a single instruction; returns false once halted. */
    bool step();

    /**
     * Stream an execution trace: one line per retired instruction
     * (cycle, pc or microcode index, disassembly). Null disables.
     */
    void setTrace(std::ostream *os) { trace_ = os; }

    Cycles cycles() const { return cycles_; }
    bool halted() const { return halted_; }
    /** Current program counter (static instruction index). */
    int pc() const { return pc_; }
    /** Instructions retired so far (program and microcode). */
    std::uint64_t instsRetired() const { return instsRetired_; }

    /**
     * Adopt architectural state from a functional fast-forward prefix
     * (fast/warmup.hh): registers, pc, halt state, call stack, retire
     * count (keeps the watchdog and retire-keyed fault events at their
     * absolute positions; @p next_fault_index skips events the prefix
     * already fired) and the call-log shape. Synthesized call stamps
     * are 0 — the prefix had no cycle clock. Must be called before
     * the core runs.
     */
    void adoptArchState(const RegFile &regs, int pc, bool halted,
                        const std::vector<int> &call_stack,
                        std::uint64_t insts_retired,
                        std::size_t next_fault_index,
                        const std::map<Addr, std::uint64_t> &call_counts);

    RegFile &regs() { return regs_; }
    const RegFile &regs() const { return regs_; }

    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }

    /** Counters; the per-retire counts are folded in on each access. */
    StatGroup &
    stats()
    {
        publishCounts();
        return stats_;
    }
    const StatGroup &
    stats() const
    {
        publishCounts();
        return stats_;
    }

    /**
     * Cycle of each bl to each target (first few per target) — drives
     * the paper's Table 6 (time between consecutive calls of outlined
     * hot loops).
     */
    const std::map<Addr, std::vector<Cycles>> &callLog() const
    {
        return callLog_;
    }

    /**
     * Destructively claim the call log. Large sweeps harvest it from a
     * finished Core without copying one vector per call site; the core
     * must not run further afterwards.
     */
    std::map<Addr, std::vector<Cycles>>
    takeCallLog()
    {
        return std::move(callLog_);
    }

    const CoreConfig &config() const { return config_; }

  private:
    void execute(const DecodedOp &op);
    void executeVector(const DecodedOp &op);
    void chargeScalarMem(Addr ea, bool is_write);
    void chargeVectorMem(Addr ea, unsigned bytes, bool is_write);
    const ConstVec &resolveCvec(const DecodedOp &op) const;
    void traceRetire(const DecodedOp &op);

    /** Report a retired program-mode op on the retire bus. */
    void
    retire(const DecodedOp &op, bool executed, Word value = 0,
           Addr mem_addr = invalidAddr, bool taken = false)
    {
        if (sink_ && !ucode_) {
            sink_->onRetire(RetireInfo{op.inst, pc_, executed, value,
                                       mem_addr, taken},
                            cycles_);
        }
    }

    /** Fall through to the next program or microcode instruction. */
    void
    advance()
    {
        if (ucode_)
            ++upc_;
        else
            ++pc_;
    }

    /** Watchdog, then due fault events, in the order step() owes them. */
    void deliverEvents();
    /** Retire count at which deliverEvents() next has work. */
    void armEventCheck();
    void raiseFault(const FaultEvent &event);
    void publishCounts() const;

    CoreConfig config_;
    const Program &prog_;
    MainMemory &mem_;
    std::vector<DecodedOp> ops_;  ///< the program, predecoded
    /** ops_.size(), kept so the per-step range check needs no divide. */
    std::size_t numOps_;
    /** Extra cycles per FloatLatency class, from the config. */
    std::array<Cycles, 3> floatLatency_{};
    RegFile regs_;
    Cache icache_;
    Cache dcache_;
    /** Written by publishCounts() from const accessors too. */
    mutable StatGroup stats_;

    /** Per-retire counts, folded into stats_ by stats() (stats.hh). */
    struct RetireCounts
    {
        std::uint64_t insts = 0;
        std::uint64_t scalarInsts = 0;
        std::uint64_t vectorInsts = 0;
        std::uint64_t ucodeInsts = 0;
        std::uint64_t loadUseStalls = 0;
        std::uint64_t branches = 0;
        std::uint64_t takenBranches = 0;
    } counts_;

    /** The rarer counters of stats_, bound on first use. */
    struct Counters
    {
        StatGroup::Counter dcacheMissCycles{"dcacheMissCycles"};
        StatGroup::Counter calls{"calls"};
        StatGroup::Counter ucodeDispatches{"ucodeDispatches"};
        StatGroup::Counter interrupts{"interrupts"};
        StatGroup::Counter unhandledFaults{"faults.unhandled"};
        /** "faults.<kind>", one per fired event. */
        StatGroup::Family<FaultKind,
                          static_cast<std::size_t>(FaultKind::NumKinds)>
            faults{"faults.", faultKindName};
    } ctr_;

    RetireSink *sink_ = nullptr;
    UcodeLookup ucodeLookup_;
    FaultHandler faultHandler_;

    /** callStack_ marker used by runRegion(). */
    static constexpr int regionSentinel = -2;

    int pc_ = 0;
    std::vector<int> callStack_;
    bool halted_ = false;
    Cycles cycles_ = 0;
    std::uint64_t instsRetired_ = 0;

    // Microcode execution state. The dispatched region is latched —
    // modelling the hardware microcode execution buffer — and shared
    // with the cache only immutably, so cache flushes or evictions
    // mid-region (chaos fault events) never affect the instructions
    // already being executed.
    std::shared_ptr<const DecodedUcode> ucode_;
    unsigned upc_ = 0;
    int ucodeReturn_ = 0;

    /**
     * Load-use interlock: the DecodedOp::reads bit of the last load's
     * destination (its RegId::flat()), or 0.
     */
    std::uint64_t pendingLoad_ = 0;

    static constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();
    Cycles nextInterrupt_ = never;  ///< never without a period
    std::size_t nextFault_ = 0;  ///< index into config_.faults.events
    /** min(watchdog limit, next event's atRetire). */
    std::uint64_t eventCheckAt_ = 0;
    std::map<Addr, std::vector<Cycles>> callLog_;
    std::ostream *trace_ = nullptr;
};

} // namespace liquid

#endif // LIQUID_CPU_CORE_HH
