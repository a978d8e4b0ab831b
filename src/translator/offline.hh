/**
 * @file
 * Offline (static) binary translation — the alternative the paper
 * weighs against hardware translation in Section 2.
 *
 * An offline translator has the whole binary and its read-only data in
 * front of it, so it can bind every outlined region to a target SIMD
 * width before the program runs, DAISY/Dynamo-style: each region is
 * executed once in a sandbox (a scratch core over a pristine copy of
 * the program image) feeding the same rule automaton the hardware
 * translator uses, and the resulting microcode is installed with zero
 * runtime latency.
 *
 * The paper's objections to this approach — no transparency, multiple
 * binaries to manage, unclear accountability when translated code
 * misbehaves — are organizational, not functional; this implementation
 * exists to quantify the other side of that trade (the fig6
 * campaign's "ideal" column and the offline tests) and to cross-check the
 * hardware translator: both must produce identical microcode.
 */

#ifndef LIQUID_TRANSLATOR_OFFLINE_HH
#define LIQUID_TRANSLATOR_OFFLINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "memory/ucode_cache.hh"
#include "translator/abort_reason.hh"

namespace liquid
{

/** Outcome of statically translating one region. */
struct OfflineResult
{
    bool ok = false;
    AbortReason reason = AbortReason::None;  ///< set when !ok
    std::string abortReason;  ///< canonical reason name, set when !ok
    UcodeEntry entry;         ///< valid when ok (readyAt == 0)
    /** Scalar instructions the region retired in the sandbox run. */
    std::uint64_t regionInsts = 0;
};

/**
 * Statically translate the outlined region entered at instruction
 * @p entry_index for a @p width-lane accelerator.
 *
 * @param width_hint the region's compiled maximum vectorizable width
 *                   (0 = unknown), as carried by bl.simd<N>.
 */
OfflineResult translateOffline(const Program &prog, int entry_index,
                               unsigned width, unsigned width_hint = 0);

/**
 * Walk the width-binding cascade for the region at @p entry_index as
 * the dynamic translator's width fallback does: bind at
 * bindWidth(@p width, @p width_hint), then retry at fallbackWidth()
 * after each abort. Returns the first commit (its entry.simdWidth is
 * the bound width) or the abort that ended the cascade; a bound width
 * below 2 makes no attempt (ok false, reason None).
 */
OfflineResult translateWithFallback(const Program &prog, int entry_index,
                                    unsigned width,
                                    unsigned width_hint = 0);

/**
 * Scan @p prog for hinted calls and translate every distinct region
 * along the width-binding cascade (translateWithFallback()),
 * installing successful translations (ready immediately) into
 * @p cache. Returns the number of regions installed.
 */
unsigned pretranslateProgram(const Program &prog, unsigned width,
                             UcodeCache &cache);

} // namespace liquid

#endif // LIQUID_TRANSLATOR_OFFLINE_HH
