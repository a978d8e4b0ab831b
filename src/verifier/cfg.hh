/**
 * @file
 * Control-flow graph over one outlined region, reconstructed purely
 * from the program text (no execution).
 *
 * The region is everything reachable from the hinted bl target by
 * following fallthrough edges and branch targets, terminated by ret or
 * halt. A bl inside the region is kept as a fallthrough edge (the call
 * returns) but recorded so the rule checkers can flag it. Which of
 * these an instruction is comes from the shared decoder's control
 * class (instEffects, cpu/decode.hh). Natural loops are found from DFS
 * back edges; the translator only accepts single-block do-while loops,
 * so the CFG's loop set is what the dataflow pass walks and what the
 * diagnostics describe.
 */

#ifndef LIQUID_VERIFIER_CFG_HH
#define LIQUID_VERIFIER_CFG_HH

#include <vector>

#include "asm/program.hh"
#include "cpu/decode.hh"

namespace liquid
{

/** One basic block: instructions [first, last], in program order. */
struct BasicBlock
{
    int first = -1;
    int last = -1;
    std::vector<int> succs;   ///< successor block ids
    std::vector<int> preds;   ///< predecessor block ids
    /** The function ends here: a ret or halt, or no successor. */
    bool exits = false;
};

/** A natural loop, identified by its back edge. */
struct CfgLoop
{
    int headBlock = -1;    ///< loop entry block
    int latchBlock = -1;   ///< block whose terminator is the back edge
    int backedgeIndex = -1;  ///< instruction index of the back edge
};

/** The reconstructed CFG of one region. */
class RegionCfg
{
  public:
    /** Build the CFG for the region entered at @p entry_index. */
    static RegionCfg build(const Program &prog, int entry_index);

    int entryIndex() const { return entry_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<CfgLoop> &loops() const { return loops_; }

    /** Reachable instruction indices, ascending. */
    const std::vector<int> &instructions() const { return insts_; }

    bool contains(int index) const;

    /** Block containing instruction @p index; -1 if unreachable. */
    int blockOf(int index) const;

    /** Indices of bl instructions inside the region. */
    const std::vector<int> &calls() const { return calls_; }

    /** True if some reachable path runs past the last instruction. */
    bool fallsOffEnd() const { return fallsOffEnd_; }

  private:
    int entry_ = -1;
    std::vector<int> insts_;
    std::vector<BasicBlock> blocks_;
    std::vector<CfgLoop> loops_;
    std::vector<int> calls_;
    bool fallsOffEnd_ = false;
};

} // namespace liquid

#endif // LIQUID_VERIFIER_CFG_HH
