/**
 * @file
 * Post-retirement dynamic translator (paper Section 4).
 *
 * The translator listens on the retire bus. When a bl into an outlined
 * function retires, it begins capturing; each retired scalar instruction
 * is pushed through the rule automaton of paper Table 3 to build SIMD
 * microcode. Multi-lane facts (permutation offset vectors, per-lane
 * constants, lane masks) are identified during the loop's first
 * iteration and collected/verified over the following iterations: lane
 * values accumulate in the per-register "previous values" state until
 * one full vector's worth is known, after which the permutation CAM and
 * constant pool are finalized and every later iteration is checked
 * against the prediction. Any mismatch — unknown opcode, unsupported
 * shuffle, trip count not a multiple of the accelerator width, external
 * interrupt — aborts translation (legality checks). On ret, the
 * microcode buffer is compacted (the paper's alignment network removes
 * collapsed offset loads) and written to the microcode cache.
 */

#ifndef LIQUID_TRANSLATOR_TRANSLATOR_HH
#define LIQUID_TRANSLATOR_TRANSLATOR_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "cpu/core.hh"
#include "memory/ucode_cache.hh"
#include "translator/abort_reason.hh"

namespace liquid
{

/** Translator configuration. */
struct TranslatorConfig
{
    /** Vector width (lanes) of the target SIMD accelerator. */
    unsigned simdWidth = 8;
    /**
     * The accelerator's shuffle opcode repertoire — the permutation
     * CAM only recognizes offset patterns the hardware can execute.
     * Models the paper's *functionality* evolution axis (ARM's SIMD
     * opcode count doubled between ISA v6 and v7): older generations
     * support fewer shuffles and transparently leave those loops
     * scalar.
     */
    PermRepertoire permRepertoire = allPerms;
    /** Abort regions whose microcode exceeds this (paper: 64). */
    unsigned maxUcodeInsts = 64;
    /** Only capture bl.simd-hinted regions (paper Section 3.5). */
    bool requireHint = true;
    /**
     * Translation throughput: cycles the translator needs per observed
     * scalar instruction. The translator runs concurrently with
     * execution off the retirement bus (paper Section 4), so the
     * microcode becomes fetchable at
     *   max(region end, region start + latencyPerInst * instructions),
     * i.e. a 1-cycle/instruction translator (the paper's assumption)
     * finishes essentially when the region's first execution returns.
     */
    Cycles latencyPerInst = 1;
    /** Never retry a region whose translation aborted. */
    bool blacklistOnAbort = true;

    /**
     * When a region cannot bind at the accelerator's full width (trip
     * count not a multiple of W, shuffle narrower than W), retry the
     * next call at half width: a W-lane accelerator can execute
     * narrower vector operations, so an 8-element loop still becomes
     * 8-wide microcode on 16-lane hardware (the paper's MPEG2 loops
     * are flat from width 8 to 16 rather than reverting to scalar).
     */
    bool widthFallback = true;

    /**
     * Enable the microcode buffer's alignment/collapse network that
     * removes tentative offset-array loads once a permutation or
     * constant replaces them. The paper notes removal "is not strictly
     * necessary for correctness" and costs buffer area; disabling it
     * models the cheaper buffer (bench_collapse_ablation).
     */
    bool collapseEnabled = true;
};

/** Hardware dynamic translator model. */
class Translator : public RetireSink
{
  public:
    Translator(const TranslatorConfig &config, const Program &prog,
               UcodeCache &cache);

    // RetireSink interface -------------------------------------------------
    void onCall(Addr callee_entry, bool hinted, unsigned width_hint,
                Cycles now) override;
    void onRetire(const RetireInfo &info, Cycles now) override;
    void onReturn(Cycles now) override;
    void onInterrupt(Cycles now) override;

    bool capturing() const { return mode_ != Mode::Idle; }
    bool isBlacklisted(Addr entry) const
    {
        return blacklist_.count(entry) != 0;
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    const TranslatorConfig &config() const { return config_; }

    /** Reason of the most recent abort (None if none has occurred). */
    AbortReason lastAbort() const { return lastAbort_; }

    /** Entry address of the capture in flight; invalidAddr when idle. */
    Addr captureRegion() const { return regionEntry_; }

    /**
     * An already-committed translation of @p entry was dropped from the
     * microcode cache for @p reason (context-switch flush, eviction,
     * SMC invalidation). Recorded so the next successful commit of the
     * region counts as a re-translation keyed by the causing reason.
     */
    void noteTranslationLost(Addr entry, AbortReason reason);

    /**
     * A store hit code in [lo, hi): forget blacklist and width-retry
     * decisions derived from the overwritten code, and abort any
     * capture whose region overlaps the range.
     */
    void noteCodeInvalidated(Addr lo, Addr hi, AbortReason reason);

  private:
    enum class Mode
    {
        Idle,     ///< not capturing
        Build,    ///< first pass through region code: emitting microcode
        Verify,   ///< inside a recognized loop, checking iterations 2..N
    };

    /** Per-register translation state (the paper's 56 bits/register). */
    struct RegState
    {
        enum class Kind : std::uint8_t
        {
            Unknown,
            Scalar,     ///< plain scalar value
            IndVar,     ///< induction-variable candidate (mov r, #c)
            Vector,     ///< virtualizes a vector register
            VecValues,  ///< offsets copied from a loaded value stream
        };
        Kind kind = Kind::Unknown;
        unsigned elemSize = 4;
        int stream = -1;        ///< value stream feeding this register
        int producerUcode = -1; ///< ucode slot of the vld that defined it
        RegId ivReg;            ///< VecValues: the IV it was combined with
        std::int32_t ivStep = 1;
    };

    /** Per-iteration values observed from one static load. */
    struct ValueStream
    {
        std::vector<Word> values;  ///< capped at simdWidth lanes
        int producerUcode = -1;    ///< tentative vld slot (collapsible)
        bool referenced = false;   ///< consumed as offsets/constants
    };

    /** Emitted microcode slot (pre-compaction buffer). */
    struct UcodeSlot
    {
        Inst inst;
        bool squashed = false;        ///< removed by the collapse network
        bool collapseCandidate = false;
        bool keep = false;            ///< has a real vector consumer
        bool loopVerified = false;
        bool needsLoop = false;       ///< must end up in a verified loop
        bool branchNeedsRemap = false; ///< inst.target is a static index
    };

    /** Deferred multi-lane finalization. */
    struct Patch
    {
        enum class Kind
        {
            PermLoad,   ///< vperm after a shuffled load
            PermStore,  ///< vperm before a shuffled store (inverse)
            CvecOrMask, ///< per-lane constant / lane mask operand
        };
        Kind kind;
        int ucodeIdx;
        int stream;
    };

    /** What to check when this static instruction retires again. */
    struct BuildNote
    {
        int stream = -1;       ///< append/verify the retired value
        bool checkAddr = false;
        bool isStore = false;
        Addr firstEa = 0;
        unsigned esize = 0;
        bool checkIv = false;
        Word ivFirst = 0;
        std::int32_t ivStep = 1;
    };

    /** Saturation idiom recognizer state. */
    struct IdiomState
    {
        int stage = 0;      ///< 0: none, 1..3: inside the idiom
        RegId reg;
        int defSlot = -1;   ///< ucode slot holding the vadd/vsub to patch
    };

    // Build-phase rule handlers.
    void build(const RetireInfo &info);
    void buildMov(const RetireInfo &info);
    void buildLoad(const RetireInfo &info);
    void buildStore(const RetireInfo &info);
    void buildDataProc(const RetireInfo &info);
    void buildCmp(const RetireInfo &info);
    void buildBranch(const RetireInfo &info);
    bool handleIdiom(const RetireInfo &info);

    // Verify-phase handler.
    void verify(const RetireInfo &info);
    void finalizeLoop();

    void commit(Cycles now);
    void abort(AbortReason reason);
    void resetCapture();

    RegState &state(RegId reg);
    int newStream(int producer_ucode);
    int emit(Inst inst, int static_idx);
    BuildNote &note(int static_idx);

    TranslatorConfig config_;
    const Program &prog_;
    UcodeCache &cache_;
    StatGroup stats_;

    using ReasonFamily = StatGroup::Family<
        AbortReason, static_cast<std::size_t>(AbortReason::NumReasons)>;

    /** Counters of stats_, bound on first use. */
    struct Counters
    {
        StatGroup::Counter instsObserved{"instsObserved"};
        StatGroup::Counter capturesStarted{"capturesStarted"};
        StatGroup::Counter idiomsRecognized{"idiomsRecognized"};
        StatGroup::Counter loopsVerified{"loopsVerified"};
        StatGroup::Counter instsCollapsed{"instsCollapsed"};
        StatGroup::Counter translations{"translations"};
        StatGroup::Counter instsTranslated{"instsTranslated"};
        StatGroup::Counter retranslations{"retranslations"};
        StatGroup::Counter aborts{"aborts"};
        StatGroup::Counter widthFallbacks{"widthFallbacks"};
        StatGroup::Counter translationsLost{"translationsLost"};
        ReasonFamily abort{"abort.", abortReasonName};
        ReasonFamily lost{"lost.", abortReasonName};
        ReasonFamily retranslate{"retranslate.", abortReasonName};
    } ctr_;

    Mode mode_ = Mode::Idle;
    Addr regionEntry_ = invalidAddr;
    Cycles regionStart_ = 0;
    std::uint64_t observedInsts_ = 0;
    /** Width this capture binds to (may be below the accelerator's). */
    unsigned captureWidth_ = 0;
    /** Regions that must retry at a reduced width. */
    std::map<Addr, unsigned> retryWidth_;
    /**
     * Regions whose translation was aborted or externally dropped, with
     * the causing reason; the next commit of such a region increments
     * "retranslations" and "retranslate.<reason>".
     */
    std::map<Addr, AbortReason> pendingRetranslate_;
    /** Most recent abort reason (survives resetCapture). */
    AbortReason lastAbort_ = AbortReason::None;

    std::vector<RegState> regs_;
    std::vector<ValueStream> streams_;
    std::vector<UcodeSlot> ucode_;
    std::vector<ConstVec> cvecs_;
    std::vector<Patch> patches_;
    std::map<int, int> ucodeStartOfStatic_;
    std::map<int, BuildNote> notes_;
    IdiomState idiom_;

    // Loop verification state.
    int loopStart_ = -1;       ///< static index of the loop head
    int loopEnd_ = -1;         ///< static index of the backedge branch
    int expectIdx_ = -1;       ///< next expected static index
    unsigned itersDone_ = 0;
    int loopUcodeStart_ = -1;

    std::set<Addr> blacklist_;
};

} // namespace liquid

#endif // LIQUID_TRANSLATOR_TRANSLATOR_HH
