/**
 * @file
 * The functional execution tier: a predecoding interpreter that
 * retires the same architectural state as the cycle core (cpu/core.hh)
 * with no cycle clock, no caches, no translator and no microcode.
 *
 * Instructions are predecoded per straight-line block into a dispatch
 * cache of DecodedOp records — the shared decoder's DecodedOp
 * (cpu/decode.hh, the same ops the cycle core runs) plus a block
 * anchor and the ops left to the block's end — and executed by one
 * switch loop, which run(), runUntil() and the lockstep harness's
 * step() all go through. The loop checks the pc range, the decode
 * state and the stop once per block entry, then runs the block (or
 * the part of it before the stop) with pc and the retire count in
 * locals. Integer add/sub/mul and word loads and stores decode to
 * handlers of their own, which skip the float test, the opcode switch
 * and the element-size switch.
 * The dispatch cache is invalidated on the same external events that
 * invalidate the microcode cache in the cycle model: UcodeFlush drops
 * everything, UcodeEvict drops one region's blocks, SmcStore drops the
 * blocks covering the stored-to code address. Those events never
 * change architectural results here (the model's programs never
 * actually rewrite code), so the invalidation machinery is exercised
 * while the lockstep contract stays exact.
 *
 * Fault semantics: retire-keyed one-shot events fire exactly as in the
 * cycle core — at the top of the step that would retire instruction
 * atRetire+1. The legacy cycle-periodic interrupt cannot fire without a
 * cycle clock and is rejected with a diagnostic at construction.
 *
 * The sabotage modes seed deliberate handler bugs for the lockstep
 * harness's self-test; each must be caught by per-retire comparison.
 */

#ifndef LIQUID_FAST_FAST_HH
#define LIQUID_FAST_FAST_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "asm/program.hh"
#include "chaos/fault_schedule.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/decode.hh"
#include "cpu/regfile.hh"
#include "memory/main_memory.hh"

namespace liquid::fast
{

/**
 * Deliberately WRONG handler behaviour, used only by the lockstep
 * differential harness's self-test: every mode must surface as a
 * divergence, proving the compare actually bites.
 */
enum class Sabotage
{
    None,
    WrongFlagUpdate,      ///< cmp compares (b, a) instead of (a, b)
    SkippedStore,         ///< every 17th scalar store drops its write
    StaleDecodeAfterSmc,  ///< SMC events leave a stale dispatch entry
    OffByOneBlock,        ///< block terminators fall through off by one
};

/** Functional-tier configuration. */
struct FastConfig
{
    /** SIMD accelerator vector width in 32-bit lanes; 0 = none. */
    unsigned simdWidth = 0;

    /**
     * Retire-keyed fault events (see fault_schedule.hh). A nonzero
     * interruptPeriod is rejected with a diagnostic: the functional
     * tier has no cycle clock for it to key on.
     */
    FaultSchedule faults{};

    /** Watchdog: fatal() after this many retired instructions. */
    std::uint64_t maxInsts = 2'000'000'000ull;

    Sabotage sabotage = Sabotage::None;
};

/** The functional interpreter. */
class FastInterp
{
  public:
    FastInterp(const FastConfig &config, const Program &prog,
               MainMemory &mem);

    /** Run from the program's "main" label (or index 0) until halt. */
    void run();

    /**
     * Run until @p target instructions have retired (or halt, or the
     * watchdog). Events with atRetire == target deliberately do NOT
     * fire — they belong to the step retiring target+1, which the
     * cycle core executes after a warmup handoff. Returns halted().
     */
    bool runUntil(std::uint64_t target);

    /**
     * Retire a single instruction: runUntil(retired() + 1), the same
     * loop, watchdog, fault and decode order as run(). Returns false
     * once halted.
     */
    bool step();

    bool halted() const { return halted_; }
    std::uint64_t retired() const { return retired_; }
    int pc() const { return pc_; }
    int cmpState() const { return cmp_; }
    const std::vector<int> &callStack() const { return callStack_; }
    /** Index of the first fault event not yet fired. */
    std::size_t nextFaultIndex() const { return nextFault_; }

    /** Flattened scalar registers (regfile.hh layout). */
    const std::array<Word, 2 * regsPerClass> &scalars() const
    {
        return scalars_;
    }
    /** Flattened vector registers (regfile.hh layout). */
    const std::array<VecValue, 2 * regsPerClass> &vectors() const
    {
        return vectors_;
    }

    /** Copy architectural register state out (warmup handoff). */
    void exportRegs(RegFile &out) const;

    /** Full (uncapped) bl target -> call count map. */
    const std::map<Addr, std::uint64_t> &callCounts() const
    {
        return callCounts_;
    }

    /** Counters, refreshed on access ("insts", "blocksDecoded", ...). */
    StatGroup &stats();

    const FastConfig &config() const { return config_; }

    // ---- dispatch-cache introspection (tests and fault events) ---------

    /** True if instruction @p index has a live dispatch-cache entry. */
    bool isDecoded(int index) const;
    /** Drop every block overlapping code addresses [lo, hi). */
    void invalidateCodeRange(Addr lo, Addr hi);
    /** Drop the whole dispatch cache (context-switch flush path). */
    void flushDecodeCache();
    std::uint64_t blocksDecoded() const { return blocksDecoded_; }
    std::uint64_t decodeInvalidations() const { return invalidations_; }
    std::uint64_t decodeFlushes() const { return flushes_; }

  private:
    bool execCond(const DecodedOp &o) const
    {
        return condHolds(o.cond, cmp_);
    }

    Addr memEA(const DecodedOp &o) const
    {
        return effectiveAddr(o, scalars_.data());
    }

    unsigned vectorWidth(const DecodedOp &o) const;

    /**
     * The dispatch loop run(), runUntil() and step() all share: retire
     * until @p stop retires or halt, decoding each block on first entry.
     */
    void dispatch(std::uint64_t stop);
    /** Execute vector op @p o, whose condition holds. */
    void execVector(const DecodedOp &o, bool is_float);
    // The two helpers below run inside the dispatch loop's handlers;
    // left to the inliner's size budget they stay calls.
    /** Integer data-processing op @p o with its opcode fixed to @p Op. */
    template <Opcode Op>
    [[gnu::always_inline]] void execIntDp(const DecodedOp &o, Word b);
    /**
     * Count scalar store @p o; true if it writes (its condition holds
     * and the SkippedStore sabotage spares it).
     */
    [[gnu::always_inline]] bool storeWrites(const DecodedOp &o);

    /** Predecode the straight-line block starting at @p start. */
    void decodeBlock(int start);
    void
    resetOp(std::size_t index)
    {
        ops_[index] = DecodedOp{};
        blockStart_[index] = -1;
        blockLeft_[index] = 0;
    }
    /** Drop whole blocks overlapping instruction indices [lo, hi). */
    void invalidateIndexRange(std::size_t lo, std::size_t hi);
    int addrToIndex(Addr addr) const;
    /** Sabotage: leave a stale (effect-dropping) entry at/after @p lo. */
    void corruptStale(Addr lo);

    /** Fire every due event (atRetire <= retired_). */
    void fireDueFaults();
    void raiseFault(const FaultEvent &event);

    FastConfig config_;
    const Program &prog_;
    MainMemory &mem_;

    // Architectural state, flattened for handler speed (regfile.hh
    // layout; RegFile's per-access asserts are always compiled in).
    std::array<Word, 2 * regsPerClass> scalars_{};
    std::array<VecValue, 2 * regsPerClass> vectors_{};
    int cmp_ = 0;

    int pc_ = 0;
    std::vector<int> callStack_;
    bool halted_ = false;
    std::uint64_t retired_ = 0;
    std::size_t nextFault_ = 0;
    int lastCallTarget_ = -1;  ///< default victim for addressless events

    /** The dispatch cache, one op per inst; HInvalid = not decoded. */
    std::vector<DecodedOp> ops_;
    /** Block anchor of each decoded op; -1 = undecoded. */
    std::vector<std::int32_t> blockStart_;
    /**
     * Ops from each decoded op through its block's last op (1 at the
     * terminator); 0 = undecoded. A side vector, like blockStart_, so
     * the DecodedOp entries the loop walks stay at 40 bytes.
     */
    std::vector<std::uint32_t> blockLeft_;
    /** ops_.size(), kept so the per-dispatch range check needs no divide. */
    std::size_t numOps_ = 0;

    std::map<Addr, std::uint64_t> callCounts_;
    std::uint64_t calls_ = 0;
    std::uint64_t storesSeen_ = 0;  ///< sabotage cadence
    std::uint64_t blocksDecoded_ = 0;
    std::uint64_t decodedInsts_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t flushes_ = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(
                                  FaultKind::NumKinds)>
        faultCounts_{};
    bool pendingStale_ = false;

    StatGroup stats_;
};

} // namespace liquid::fast

#endif // LIQUID_FAST_FAST_HH
