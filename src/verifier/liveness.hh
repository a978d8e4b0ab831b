/**
 * @file
 * Register-liveness dataflow over a RegionCfg plus the CFG facts the
 * whole-binary scanner's region-boundary contract needs (dominators,
 * reducibility). Each instruction's reads, writes and control class
 * come from the shared decoder's instEffects (cpu/decode.hh).
 *
 * The analysis is a classic backward may-liveness fixpoint over the
 * region's basic blocks. Registers are tracked by their flat number
 * (RegId::flat(), 0..63 across the four classes) in a 64-bit set, so
 * set operations are single machine words. Calls inside the region are
 * summarized by FnSummary (what the callee reads at entry, what it may
 * write), which lets the scanner solve all functions of a binary to a
 * joint fixpoint bottom-up.
 *
 * What this buys the scanner: the paper's region-boundary contract
 * (Section 3's outlining discipline) is a statement about liveness —
 * an outlined region is self-contained (no scalar live-ins), returns
 * results only through scalar registers the caller reads back
 * (accumulators), keeps its induction variables private, and never
 * spills inside the loop body. None of that is checkable from the
 * Table-1 rule mirror alone, which assumes the scalarizer already
 * enforced the discipline.
 */

#ifndef LIQUID_VERIFIER_LIVENESS_HH
#define LIQUID_VERIFIER_LIVENESS_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "cpu/decode.hh"
#include "verifier/cfg.hh"

namespace liquid
{

/**
 * The registers @p fx's instruction uses for liveness: what it reads,
 * plus the destination of a conditional write, whose old value
 * survives when the condition fails.
 */
RegSet liveUses(const InstEffects &fx);

/**
 * Liveness summary of a callee, used to transfer bl sites: a call
 * kills mayDef and then demands liveIn.
 */
struct FnSummary
{
    RegSet liveIn;   ///< registers the callee reads before writing
    RegSet mayDef;   ///< registers the callee may write
};

/** Backward may-liveness over one region CFG. */
class Liveness
{
  public:
    /**
     * Solve liveness for @p cfg. @p callees maps a bl target
     * instruction index to its summary; bl sites whose target is
     * absent are treated as no-ops (conservative for self-contained
     * kernels, exact once the scanner reaches its joint fixpoint).
     * @p exit_live is what the environment reads after the region
     * returns (ret and falls-off-end paths).
     */
    static Liveness run(const Program &prog, const RegionCfg &cfg,
                        const std::map<int, FnSummary> &callees = {},
                        const RegSet &exit_live = {});

    /** Live registers immediately before instruction @p index. */
    const RegSet &liveBefore(int index) const;

    /** Live registers immediately after instruction @p index. */
    const RegSet &liveAfter(int index) const;

    /** Live-in at the region entry (the region's demands on callers). */
    const RegSet &entryLiveIn() const;

    /** Union of defs over all reachable instructions (incl. callees). */
    const RegSet &mayDef() const { return mayDef_; }

    /** This region's callee summary. */
    FnSummary summary() const { return FnSummary{entryLiveIn(), mayDef_}; }

  private:
    std::map<int, RegSet> before_;
    std::map<int, RegSet> after_;
    RegSet entryLive_;
    RegSet mayDef_;
    RegSet emptySet_;
};

/**
 * Whole-program joint liveness solution: every bl target (hinted or
 * not) is an outlined function under the bl/ret convention, and all
 * functions plus the program entry are solved to a fixpoint where each
 * call site kills the callee's mayDef and demands its liveIn, while
 * each callee's exit-liveness is the union of what its callers read
 * after the bl (the `demand` map — the region's live-out contract).
 *
 * Shared by the whole-binary scanner (region-boundary contract checks)
 * and the translation-validation prover (which registers a proof must
 * show equal after scalar and microcode execution).
 */
struct ProgramLiveness
{
    /** Discovery facts about one bl target. */
    struct FnFacts
    {
        unsigned callSites = 0;
        bool hinted = false;      ///< some call site carried bl.simd
        unsigned widthHint = 0;   ///< largest bl.simd width seen
    };

    std::map<int, FnFacts> fns;       ///< discovered bl targets
    std::set<int> entries;            ///< fns plus the program entry
    std::map<int, RegionCfg> cfgs;    ///< per-entry region CFG
    std::map<int, Liveness> live;     ///< per-entry solved liveness
    std::map<int, FnSummary> summaries;
    /** Demanded live-outs: registers some caller reads after a bl. */
    std::map<int, RegSet> demand;

    /** Demanded live-out set of one entry; empty if never called. */
    RegSet demandAt(int entry_index) const;
};

/** Solve @p prog's interprocedural liveness to a joint fixpoint. */
ProgramLiveness solveProgramLiveness(const Program &prog);

/**
 * Dominator sets of @p cfg's blocks: result[b] lists the blocks that
 * dominate block b (including b itself). Entry block is block 0's
 * containing block of the region entry.
 */
std::vector<std::vector<bool>> blockDominators(const RegionCfg &cfg);

/**
 * True if @p loop is a natural (reducible) loop: its head dominates
 * its latch. A back edge whose target does not dominate its source
 * means control enters the loop body around the head — irreducible
 * flow the translator's single-entry capture cannot represent.
 */
bool loopIsReducible(const RegionCfg &cfg, const CfgLoop &loop,
                     const std::vector<std::vector<bool>> &dominators);

} // namespace liquid

#endif // LIQUID_VERIFIER_LIVENESS_HH
