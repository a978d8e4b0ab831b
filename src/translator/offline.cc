#include "translator/offline.hh"

#include "cpu/core.hh"
#include "translator/translator.hh"

namespace liquid
{

OfflineResult
translateOffline(const Program &prog, int entry_index, unsigned width,
                 unsigned width_hint)
{
    OfflineResult result;
    LIQUID_ASSERT(entry_index >= 0 &&
                  static_cast<std::size_t>(entry_index) <
                      prog.code().size());

    // Sandbox: pristine memory, a scratch core, and a private
    // translator/cache. Translation legality is data-independent (the
    // structure, the induction variable, and the read-only tables are
    // what matter), so interpreting over the initial image is
    // equivalent to observing the first real call.
    MainMemory mem = MainMemory::forProgram(prog);
    UcodeCacheConfig cache_config;
    cache_config.entries = 1;
    UcodeCache cache(cache_config);

    TranslatorConfig tconfig;
    tconfig.simdWidth = width;
    tconfig.requireHint = false;
    tconfig.latencyPerInst = 0;
    tconfig.widthFallback = false;  // the caller controls retries
    Translator translator(tconfig, prog, cache);

    CoreConfig cconfig;
    cconfig.simdWidth = 0;  // the sandbox executes the scalar form
    cconfig.translationEnabled = false;
    Core core(cconfig, prog, mem);
    core.setRetireSink(&translator);

    const Addr entry = Program::instAddr(entry_index);
    translator.onCall(entry, true, width_hint, 0);
    core.runRegion(entry_index);
    result.regionInsts = core.instsRetired();

    const UcodeEntry *uc = cache.lookup(entry, core.cycles() + 1);
    if (!uc) {
        result.ok = false;
        result.reason = translator.lastAbort();
        result.abortReason = result.reason == AbortReason::None
                                 ? "unknown"
                                 : abortReasonName(result.reason);
        return result;
    }

    result.ok = true;
    result.entry = *uc;
    result.entry.readyAt = 0;
    return result;
}

OfflineResult
translateWithFallback(const Program &prog, int entry_index, unsigned width,
                      unsigned width_hint)
{
    OfflineResult result;
    for (unsigned bind = bindWidth(width, width_hint); bind >= 2;
         bind = fallbackWidth(bind, result.reason)) {
        result = translateOffline(prog, entry_index, bind, width_hint);
        if (result.ok)
            break;
    }
    return result;
}

unsigned
pretranslateProgram(const Program &prog, unsigned width,
                    UcodeCache &cache)
{
    unsigned installed = 0;
    for (const HintedCall &call : prog.hintedCalls()) {
        OfflineResult r =
            translateWithFallback(prog, call.target, width, call.widthHint);
        if (r.ok) {
            cache.insert(std::move(r.entry));
            ++installed;
        }
    }
    return installed;
}

} // namespace liquid
