#include "sim/system.hh"

#include "common/logging.hh"
#include "translator/offline.hh"

namespace liquid
{

SystemConfig
SystemConfig::make(ExecMode mode, unsigned width)
{
    SystemConfig config;
    config.mode = mode;
    config.simdWidth = width;
    switch (mode) {
      case ExecMode::ScalarBaseline:
        config.core.simdWidth = 0;
        config.core.translationEnabled = false;
        break;
      case ExecMode::Liquid:
        config.core.simdWidth = width;
        config.core.translationEnabled = true;
        config.translator.simdWidth = width;
        break;
      case ExecMode::NativeSimd:
        config.core.simdWidth = width;
        config.core.translationEnabled = false;
        break;
    }
    return config;
}

System::System(const SystemConfig &config, const Program &prog)
    : config_(config), prog_(prog),
      mem_(MainMemory::forProgram(prog)), ucache_(config.ucodeCache)
{
    core_ = std::make_unique<Core>(config_.core, prog_, mem_);
    // Installed in every mode so scheduled events are always consumed;
    // without a microcode cache in use they are harmless no-ops.
    core_->setFaultHandler([this](const FaultEvent &event, Cycles now) {
        handleFault(event, now);
    });

    if (config_.mode == ExecMode::Liquid) {
        if (config_.pretranslate)
            pretranslateProgram(prog_, config_.simdWidth, ucache_);
        translator_ =
            std::make_unique<Translator>(config_.translator, prog_,
                                         ucache_);
        core_->setRetireSink(translator_.get());
        core_->setUcodeLookup([this](Addr entry, Cycles now) {
            return ucache_.fetch(entry, now);
        });
    }
}

void
System::handleFault(const FaultEvent &event, Cycles now)
{
    (void)now;
    switch (event.kind) {
      case FaultKind::UcodeFlush: {
        // Context switch: every cached translation is lost at once.
        const std::vector<Addr> lost = ucache_.entryAddrs();
        ucache_.flush();
        if (translator_) {
            for (Addr entry : lost) {
                translator_->noteTranslationLost(
                    entry, AbortReason::UcodeFlushed);
            }
        }
        return;
      }

      case FaultKind::UcodeEvict: {
        // Capacity pressure: drop one entry (the LRU victim when the
        // schedule names no address).
        const Addr victim = event.addr != invalidAddr
                                ? event.addr
                                : ucache_.lruEntryAddr();
        if (victim != invalidAddr && ucache_.invalidate(victim) &&
            translator_) {
            translator_->noteTranslationLost(victim,
                                             AbortReason::UcodeEvicted);
        }
        return;
      }

      case FaultKind::SmcStore: {
        // Self-modifying code: a store into translated code. The model
        // exercises the invalidation protocol — drop overlapping cache
        // entries and stale translator decisions. With no address the
        // store targets the most recently dispatched region, falling
        // back to the capture in flight.
        Addr lo = event.addr;
        if (lo == invalidAddr)
            lo = ucache_.mruEntryAddr();
        if (lo == invalidAddr && translator_)
            lo = translator_->captureRegion();
        if (lo == invalidAddr)
            return;
        const Addr hi = lo + 4;
        for (Addr entry : ucache_.invalidateRange(lo, hi)) {
            if (translator_) {
                translator_->noteTranslationLost(
                    entry, AbortReason::SmcInvalidated);
            }
        }
        if (translator_) {
            translator_->noteCodeInvalidated(lo, hi,
                                             AbortReason::SmcInvalidated);
        }
        return;
      }

      case FaultKind::Interrupt:
      case FaultKind::DcachePerturb:
      case FaultKind::NumKinds:
        break;
    }
    panic("fault kind not handled by the system");
}

void
System::run()
{
    core_->run();
}

Cycles
runProgram(const Program &prog, const SystemConfig &config)
{
    System sys(config, prog);
    sys.run();
    return sys.cycles();
}

} // namespace liquid
