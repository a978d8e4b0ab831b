/**
 * @file
 * Post-retirement dynamic translator (paper Section 4).
 *
 * The translator listens on the retire bus. When a bl into an outlined
 * function retires, it begins capturing; each retired scalar instruction
 * is pushed through the rule automaton of paper Table 3
 * (RuleAutomaton, rule_automaton.hh) to build SIMD microcode, and on
 * ret the compacted microcode is written to the microcode cache. Any
 * legality failure — unknown opcode, unsupported shuffle, trip count
 * not a multiple of the accelerator width, external interrupt — aborts
 * the capture.
 *
 * The rules themselves live in RuleAutomaton, which the static verifier
 * drives as well. This class is the hardware adapter around it: it
 * wraps each RetireInfo into a record with every value known, and owns
 * call binding, width fallback and the blacklist, re-translation
 * bookkeeping, self-modifying-code invalidation, and the UcodeEntry it
 * publishes (including when it becomes ready).
 */

#ifndef LIQUID_TRANSLATOR_TRANSLATOR_HH
#define LIQUID_TRANSLATOR_TRANSLATOR_HH

#include <cstdint>
#include <map>
#include <set>

#include "common/stats.hh"
#include "cpu/core.hh"
#include "memory/ucode_cache.hh"
#include "translator/abort_reason.hh"
#include "translator/rule_automaton.hh"

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
    /** Not copyable or movable: rules_ refers to config_ and stats_. */
    Translator(const Translator &) = delete;
    Translator &operator=(const Translator &) = delete;

    // RetireSink interface -------------------------------------------------
    void onCall(Addr callee_entry, bool hinted, unsigned width_hint,
                Cycles now) override;
    void onRetire(const RetireInfo &info, Cycles now) override;
    void onReturn(Cycles now) override;
    void onInterrupt(Cycles now) override;

    bool capturing() const { return rules_.active(); }
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
    void commit(Cycles now);
    void abort(AbortReason reason);
    void resetCapture();
    /** One past the last source byte the capture has observed. */
    Addr captureEnd() const;

    TranslatorConfig config_;
    UcodeCache &cache_;
    StatGroup stats_;

    using ReasonFamily = StatGroup::Family<
        AbortReason, static_cast<std::size_t>(AbortReason::NumReasons)>;

    /** Counters of stats_, bound on first use. */
    struct Counters
    {
        StatGroup::Counter instsObserved{"instsObserved"};
        StatGroup::Counter capturesStarted{"capturesStarted"};
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

    Addr regionEntry_ = invalidAddr;
    Cycles regionStart_ = 0;
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

    /** The Table-3 rules; bumps its counters in stats_. */
    RuleAutomaton rules_;

    std::set<Addr> blacklist_;
};

} // namespace liquid

#endif // LIQUID_TRANSLATOR_TRANSLATOR_HH
