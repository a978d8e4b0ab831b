#include "verifier/cfg.hh"

#include <algorithm>
#include <map>
#include <set>

namespace liquid
{

namespace
{

/** Instruction-level successors within the program text. */
std::vector<int>
instSuccessors(const Program &prog, int index, bool &falls_off)
{
    const auto &code = prog.code();
    const Inst &inst = code[index];
    const InstEffects fx = instEffects(inst);

    std::vector<int> succs;
    if (fx.control == Control::Branch && inst.target >= 0 &&
        inst.target < static_cast<int>(code.size()))
        succs.push_back(inst.target);
    if (fx.fallsThrough()) {
        if (index + 1 < static_cast<int>(code.size()))
            succs.push_back(index + 1);
        else
            falls_off = true;
    }
    return succs;
}

/** A CFG block ends at a branch, ret or halt (a bl returns inline). */
bool
endsBlock(const InstEffects &fx)
{
    return fx.control != Control::Next && fx.control != Control::Call;
}

} // namespace

RegionCfg
RegionCfg::build(const Program &prog, int entry_index)
{
    RegionCfg cfg;
    cfg.entry_ = entry_index;
    const auto &code = prog.code();
    if (entry_index < 0 || entry_index >= static_cast<int>(code.size()))
        return cfg;

    // Reachability sweep, collecting leaders as we go.
    std::set<int> reachable;
    std::set<int> leaders{entry_index};
    std::vector<int> work{entry_index};
    while (!work.empty()) {
        const int i = work.back();
        work.pop_back();
        if (!reachable.insert(i).second)
            continue;
        const InstEffects fx = instEffects(code[i]);
        if (fx.control == Control::Call)
            cfg.calls_.push_back(i);
        const auto succs = instSuccessors(prog, i, cfg.fallsOffEnd_);
        for (const int s : succs) {
            work.push_back(s);
            // A branch target starts a block; so does the instruction
            // after any branch.
            if (fx.control == Control::Branch)
                leaders.insert(s);
        }
    }
    cfg.insts_.assign(reachable.begin(), reachable.end());
    std::sort(cfg.calls_.begin(), cfg.calls_.end());

    // Split reachable instructions into blocks at leaders and
    // control-transfer boundaries.
    std::map<int, int> blockOfLeader;
    for (std::size_t p = 0; p < cfg.insts_.size(); ++p) {
        const int i = cfg.insts_[p];
        const bool prev_adjacent =
            p > 0 && cfg.insts_[p - 1] == i - 1;
        const bool prev_flows =
            prev_adjacent && instEffects(code[i - 1]).fallsThrough();
        const bool starts =
            cfg.blocks_.empty() || leaders.count(i) || !prev_flows ||
            !prev_adjacent;
        if (starts) {
            BasicBlock bb;
            bb.first = bb.last = i;
            blockOfLeader[i] = static_cast<int>(cfg.blocks_.size());
            cfg.blocks_.push_back(bb);
        } else {
            cfg.blocks_.back().last = i;
        }
        // A branch (or region exit) ends its block; the *next*
        // reachable instruction starts a new one even if not a leader.
        if (endsBlock(instEffects(code[i])))
            leaders.insert(i + 1);
    }

    // Block-level edges.
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
        BasicBlock &bb = cfg.blocks_[b];
        bool dummy = false;
        for (const int s : instSuccessors(prog, bb.last, dummy)) {
            auto it = blockOfLeader.find(s);
            if (it == blockOfLeader.end()) {
                // Successor is mid-block (a branch into a block body):
                // find the containing block.
                const int sb = cfg.blockOf(s);
                if (sb >= 0)
                    bb.succs.push_back(sb);
                continue;
            }
            bb.succs.push_back(it->second);
        }
        for (const int s : bb.succs)
            cfg.blocks_[static_cast<std::size_t>(s)].preds.push_back(
                static_cast<int>(b));
        bb.exits = bb.succs.empty() || instEffects(code[bb.last]).exitsFn();
    }

    // Back edges via iterative DFS (edge to a block on the stack).
    enum class Color : std::uint8_t { White, Grey, Black };
    std::vector<Color> color(cfg.blocks_.size(), Color::White);
    struct Frame
    {
        int block;
        std::size_t next = 0;
    };
    std::vector<Frame> stack;
    if (!cfg.blocks_.empty()) {
        stack.push_back(Frame{0});
        color[0] = Color::Grey;
    }
    while (!stack.empty()) {
        Frame &f = stack.back();
        const BasicBlock &bb =
            cfg.blocks_[static_cast<std::size_t>(f.block)];
        if (f.next < bb.succs.size()) {
            const int s = bb.succs[f.next++];
            if (color[static_cast<std::size_t>(s)] == Color::Grey) {
                cfg.loops_.push_back(
                    CfgLoop{s, f.block, bb.last});
            } else if (color[static_cast<std::size_t>(s)] ==
                       Color::White) {
                color[static_cast<std::size_t>(s)] = Color::Grey;
                stack.push_back(Frame{s});
            }
        } else {
            color[static_cast<std::size_t>(f.block)] = Color::Black;
            stack.pop_back();
        }
    }

    return cfg;
}

bool
RegionCfg::contains(int index) const
{
    return std::binary_search(insts_.begin(), insts_.end(), index);
}

int
RegionCfg::blockOf(int index) const
{
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if (index >= blocks_[b].first && index <= blocks_[b].last)
            return static_cast<int>(b);
    }
    return -1;
}

} // namespace liquid
