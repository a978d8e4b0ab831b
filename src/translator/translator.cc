#include "translator/translator.hh"

#include <algorithm>

#include "common/bitfield.hh"

namespace liquid
{

Translator::Translator(const TranslatorConfig &config, const Program &prog,
                       UcodeCache &cache)
    : config_(config), cache_(cache), stats_("translator"),
      rules_(config_, prog, &stats_)
{
    LIQUID_ASSERT(isPowerOf2(config_.simdWidth) && config_.simdWidth >= 2,
                  "bad SIMD width");
}

void
Translator::resetCapture()
{
    regionEntry_ = invalidAddr;
    rules_.reset();
}

Addr
Translator::captureEnd() const
{
    // The region spans from its entry through the last static
    // instruction the capture observed (the ret retires one past the
    // largest recorded index).
    const int last = rules_.lastIndex();
    return last < 0 ? regionEntry_ + 4 : Program::instAddr(last + 2);
}

void
Translator::abort(AbortReason reason)
{
    lastAbort_ = reason;
    stats_.inc(ctr_.aborts);
    stats_.inc(ctr_.abort, reason);
    if (regionEntry_ != invalidAddr)
        pendingRetranslate_[regionEntry_] = reason;
    // Runtime-class aborts (interrupt, cache loss, SMC) are transient
    // properties of the environment, not of the code: never blacklist
    // or narrow the width for them.
    if (regionEntry_ != invalidAddr &&
        abortReasonClass(reason) != ReasonClass::Runtime) {
        // Width-dependent failures can succeed at a narrower binding:
        // the trip count may divide a smaller width, and a shuffle or
        // lane pattern that is not W-periodic may be W/2-periodic.
        if (config_.widthFallback && abortIsWidthDependent(reason) &&
            rules_.width() > 2) {
            retryWidth_[regionEntry_] = rules_.width() / 2;
            stats_.inc(ctr_.widthFallbacks);
        } else if (config_.blacklistOnAbort) {
            blacklist_.insert(regionEntry_);
        }
    }
    resetCapture();
}

void
Translator::onCall(Addr callee_entry, bool hinted, unsigned width_hint,
                   Cycles now)
{
    if (rules_.active()) {
        // A call retired inside a region being captured: the region
        // does not fit the outlined-loop format.
        abort(AbortReason::NestedCall);
        return;
    }
    if (config_.simdWidth == 0)
        return;
    if (config_.requireHint && !hinted)
        return;
    if (blacklist_.count(callee_entry))
        return;
    if (cache_.contains(callee_entry))
        return;

    // Bind at the accelerator width, capped by the compiled maximum
    // vectorizable width (data is only aligned that far — paper
    // Section 3.1) and by any previous width fallback.
    unsigned width = config_.simdWidth;
    if (width_hint != 0)
        width = std::min(width, width_hint);
    auto retry = retryWidth_.find(callee_entry);
    if (retry != retryWidth_.end())
        width = std::min(width, retry->second);
    if (width < 2)
        return;
    rules_.begin(width);
    regionEntry_ = callee_entry;
    regionStart_ = now;
    stats_.inc(ctr_.capturesStarted);
}

void
Translator::onInterrupt(Cycles now)
{
    (void)now;
    if (!rules_.active())
        return;
    // External abort from the pipeline (paper Figure 5's Abort input):
    // transient, so the region is not blacklisted and may be retried.
    abort(AbortReason::Interrupt);
}

void
Translator::noteTranslationLost(Addr entry, AbortReason reason)
{
    stats_.inc(ctr_.translationsLost);
    stats_.inc(ctr_.lost, reason);
    pendingRetranslate_[entry] = reason;
}

void
Translator::noteCodeInvalidated(Addr lo, Addr hi, AbortReason reason)
{
    // Overwritten code means every decision derived from the old bytes
    // is stale: a formerly untranslatable region may now translate, and
    // a narrower-width retry may no longer apply.
    for (auto it = blacklist_.begin(); it != blacklist_.end();) {
        if (*it >= lo && *it < hi)
            it = blacklist_.erase(it);
        else
            ++it;
    }
    for (auto it = retryWidth_.begin(); it != retryWidth_.end();) {
        if (it->first >= lo && it->first < hi)
            it = retryWidth_.erase(it);
        else
            ++it;
    }

    if (!rules_.active() || regionEntry_ == invalidAddr)
        return;
    if (lo < captureEnd() && hi > regionEntry_)
        abort(reason);
}

void
Translator::onReturn(Cycles now)
{
    if (!rules_.active())
        return;
    try {
        commit(now);
    } catch (const RuleAbort &a) {
        abort(a.reason);
    }
}

void
Translator::onRetire(const RetireInfo &info, Cycles now)
{
    (void)now;
    if (!rules_.active())
        return;
    stats_.inc(ctr_.instsObserved);
    if (info.index < 0) {
        abort(AbortReason::UnindexedInst);
        return;
    }

    // Hardware observes every value: no record is ever Top.
    const AbsRetire record{info.inst, info.index, AbsVal::of(info.value),
                           AbsVal::of(info.memAddr), info.branchTaken};
    try {
        rules_.observe(record);
    } catch (const RuleAbort &a) {
        abort(a.reason);
    }
}

// ---------------------------------------------------------------------------
// Commit: publish the compacted microcode to the cache.
// ---------------------------------------------------------------------------

void
Translator::commit(Cycles now)
{
    RuleCommit out = rules_.commit(-1);

    UcodeEntry entry;
    entry.entryAddr = regionEntry_;
    entry.insts = std::move(out.insts);
    entry.cvecs = std::move(out.cvecs);
    entry.simdWidth = rules_.width();
    // Source code range for SMC invalidation.
    entry.codeEnd = captureEnd();
    // The translator consumes the retire stream concurrently with
    // execution; it only delays readiness when its per-instruction
    // cost exceeds the core's effective CPI.
    entry.readyAt = std::max(
        now, regionStart_ + config_.latencyPerInst * rules_.observed());
    cache_.insert(std::move(entry));

    stats_.inc(ctr_.translations);
    stats_.inc(ctr_.instsTranslated, rules_.observed());

    // A commit that follows a recorded loss or abort of the same region
    // is a re-translation; count it keyed by what caused the redo.
    auto pending = pendingRetranslate_.find(regionEntry_);
    if (pending != pendingRetranslate_.end()) {
        stats_.inc(ctr_.retranslations);
        stats_.inc(ctr_.retranslate, pending->second);
        pendingRetranslate_.erase(pending);
    }
    resetCapture();
}

} // namespace liquid
