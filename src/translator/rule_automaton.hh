/**
 * @file
 * The post-retirement rule automaton of paper Table 3: build microcode
 * from a region's first pass, verify iterations 2..N of each loop,
 * finalize the multi-lane facts (permutations, constant vectors, lane
 * masks), and compact the buffer at the region's ret.
 *
 * One automaton serves two callers. The hardware Translator feeds it
 * one record per retired instruction with every value known. The
 * static verifier (verifier/rules.cc) feeds it the records of an
 * abstract walk, where a value that depends on runtime data is Top;
 * a decision that needs such a value throws RuleUnknown instead of
 * guessing. Every abort throws RuleAbort.
 */

#ifndef LIQUID_TRANSLATOR_RULE_AUTOMATON_HH
#define LIQUID_TRANSLATOR_RULE_AUTOMATON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "asm/program.hh"
#include "common/stats.hh"
#include "translator/abort_reason.hh"

namespace liquid
{

struct TranslatorConfig;

/** Constant lattice: a known word or Top (runtime-dependent). */
struct AbsVal
{
    bool known = false;
    Word value = 0;

    static AbsVal top() { return AbsVal{}; }
    static AbsVal of(Word v) { return AbsVal{true, v}; }
};

/**
 * One retired instruction as the automaton observes it on the
 * retirement bus, with Top where the value depends on runtime state
 * (only the static verifier produces Top).
 */
struct AbsRetire
{
    const Inst *inst = nullptr;
    int index = -1;
    AbsVal value;           ///< load/mov/data-proc result, store data
    AbsVal memAddr;         ///< effective address of loads/stores
    bool branchTaken = false;  ///< branches; caller resolved it first
};

/** Thrown when the automaton aborts the capture. */
struct RuleAbort
{
    AbortReason reason;
    int index;  ///< static instruction index where it was decided
};

/** Thrown when a decision needs a value that is Top. */
struct RuleUnknown
{
    const char *what;  ///< the value, e.g. "load address"
    int index;
};

/**
 * Observer for the width-dependent checks of the rule automaton
 * (liquid-poly). When a sink is installed, the automaton runs one
 * width-*independent* walk: every check that consults the binding
 * width is reported to the sink instead of being evaluated, and the
 * walk continues as if it had passed (streams capture every lane,
 * trip-count/lane-count/permutation aborts are deferred). The sink
 * receives the checks in exact program order, so replaying them
 * against a concrete N reproduces the width-bound walk's first abort.
 * Width-independent aborts (address/IV mismatch, the store-vs-load
 * interval test, commit-time shape checks) still fire normally.
 */
class WidthCheckSink
{
  public:
    virtual ~WidthCheckSink() = default;
    /** Stream @p stream seeded with lane 0 (= @p value) at build. */
    virtual void onStreamSeed(int stream, Word value) = 0;
    /** Constant-pool load observed lane @p elem with @p value. */
    virtual void onStreamLane(int inst_index, int stream,
                              std::size_t elem, Word value) = 0;
    /** Loop at @p inst_index finalized after @p iters iterations. */
    virtual void onTripCount(int inst_index, unsigned iters) = 0;
    /** Patch on @p stream finalized having seen @p observed lanes. */
    virtual void onLanes(int inst_index, int stream,
                         std::size_t observed) = 0;
    /** Permutation patch on @p stream (load or store side). */
    virtual void onPerm(int inst_index, int stream, bool is_store) = 0;
};

/** What a successful commit publishes. */
struct RuleCommit
{
    std::vector<Inst> insts;       ///< compacted, branch targets remapped
    std::vector<ConstVec> cvecs;   ///< constant pool of the region
    unsigned loopInsts = 0;        ///< insts inside verified loops
};

/** The Table-3 rule automaton for one capture at a time. */
class RuleAutomaton
{
  public:
    /**
     * @p config must outlive the automaton. A non-null @p stats
     * receives "idiomsRecognized", "loopsVerified" and
     * "instsCollapsed" as they happen; a non-null @p poly switches the
     * automaton into the width-polymorphic mode of WidthCheckSink.
     */
    RuleAutomaton(const TranslatorConfig &config, const Program &prog,
                  StatGroup *stats = nullptr,
                  WidthCheckSink *poly = nullptr);

    /** Start a capture bound at @p width lanes. */
    void begin(unsigned width);
    /** Drop the capture in flight, if any. */
    void reset();

    /** One retired instruction of the region. */
    void observe(const AbsRetire &info);

    /**
     * The region's ret retired (@p index: its static index, or -1):
     * abort inside a loop, otherwise compact the microcode buffer.
     * The automaton keeps its state until reset().
     */
    RuleCommit commit(int index);

    bool active() const { return mode_ != Mode::Idle; }
    unsigned width() const { return width_; }
    std::uint64_t observed() const { return observed_; }
    /** Loops verified by this capture. */
    unsigned loopsVerified() const { return loopsVerified_; }
    /** Scalar iterations across this capture's verified loops. */
    unsigned loopIters() const { return loopIters_; }
    /** Largest static index built so far, or -1. */
    int lastIndex() const
    {
        return ucodeStartOfStatic_.empty()
                   ? -1
                   : ucodeStartOfStatic_.rbegin()->first;
    }

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
    };

    /** Per-iteration values observed from one static load. */
    struct ValueStream
    {
        std::vector<Word> values;  ///< capped at width lanes
        int producerUcode = -1;    ///< tentative vld slot (collapsible)
        bool referenced = false;   ///< consumed as offsets/constants
    };

    /** Emitted microcode slot (pre-compaction buffer). */
    struct UcodeSlot
    {
        Inst inst;
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
    void build(const AbsRetire &info);
    void buildMov(const AbsRetire &info);
    void buildLoad(const AbsRetire &info);
    void buildStore(const AbsRetire &info);
    void buildDataProc(const AbsRetire &info);
    void buildCmp(const AbsRetire &info);
    void buildBranch(const AbsRetire &info);
    bool handleIdiom(const AbsRetire &info);

    // Verify-phase handlers.
    void verify(const AbsRetire &info);
    void finalizeLoop(int index);

    RegState &state(RegId reg);
    int newStream(int producer_ucode);
    int emit(Inst inst, int static_idx);
    void bump(StatGroup::Counter &c);

    const TranslatorConfig &config_;
    const Program &prog_;
    StatGroup *stats_;
    WidthCheckSink *poly_;

    /** Counters of *stats_, bound on first use. */
    struct Counters
    {
        StatGroup::Counter idiomsRecognized{"idiomsRecognized"};
        StatGroup::Counter loopsVerified{"loopsVerified"};
        StatGroup::Counter instsCollapsed{"instsCollapsed"};
    } ctr_;

    Mode mode_ = Mode::Idle;
    unsigned width_ = 0;
    std::uint64_t observed_ = 0;
    unsigned loopsVerified_ = 0;
    unsigned loopIters_ = 0;

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
};

} // namespace liquid

#endif // LIQUID_TRANSLATOR_RULE_AUTOMATON_HH
