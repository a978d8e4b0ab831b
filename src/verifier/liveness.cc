#include "verifier/liveness.hh"

#include <algorithm>

#include "verifier/fixpoint.hh"

namespace liquid
{

RegSet
liveUses(const InstEffects &fx)
{
    RegSet uses = fx.reads;
    if (fx.cond != Cond::AL)
        uses |= fx.writes;
    return uses;
}

namespace
{

/** Liveness transfer of one instruction, applied backward. */
void
transferInst(const Inst &inst, const std::map<int, FnSummary> &callees,
             RegSet &live)
{
    const InstEffects fx = instEffects(inst);
    if (fx.control == Control::Call) {
        auto it = callees.find(inst.target);
        if (it != callees.end()) {
            live = live.minus(it->second.mayDef);
            live |= it->second.liveIn;
        }
        return;
    }
    live = live.minus(fx.writes);
    live |= liveUses(fx);
}

/** Backward liveness as a fixpoint.hh problem (lattice: RegSet). */
struct LivenessProblem
{
    using State = RegSet;
    static constexpr bool forward = false;

    const Program &prog;
    const RegionCfg &cfg;
    const std::map<int, FnSummary> &callees;
    const RegSet &exitLive;

    State initial(std::size_t) const { return {}; }
    bool isBoundary(std::size_t b) const { return cfg.blocks()[b].exits; }
    State boundary(std::size_t) const { return exitLive; }
    bool pinBoundary() const { return false; }
    State noEdges(std::size_t) const { return {}; }
    void join(State &acc, const State &other) const { acc |= other; }
    void edge(std::size_t, std::size_t, State &) const {}
    bool
    equal(const State &a, const State &b) const
    {
        return a == b;
    }
    bool widenAt(std::size_t) const { return false; }
    void widen(State &, const State &) const {}

    State
    transfer(std::size_t b, const State &out) const
    {
        const BasicBlock &bb = cfg.blocks()[b];
        RegSet in = out;
        for (int i = bb.last; i >= bb.first; --i)
            transferInst(prog.code()[static_cast<std::size_t>(i)],
                         callees, in);
        return in;
    }
};

/** Forward dominator sets as a fixpoint.hh problem (meet: AND). */
struct DominatorProblem
{
    using State = std::vector<bool>;
    static constexpr bool forward = true;

    std::size_t n;
    std::size_t entry;

    State initial(std::size_t) const { return State(n, true); }
    bool isBoundary(std::size_t b) const { return b == entry; }
    State boundary(std::size_t) const { return State(n, false); }
    bool pinBoundary() const { return true; }
    State noEdges(std::size_t) const { return State(n, false); }

    void
    join(State &acc, const State &other) const
    {
        for (std::size_t i = 0; i < n; ++i)
            acc[i] = acc[i] && other[i];
    }

    void edge(std::size_t, std::size_t, State &) const {}

    State
    transfer(std::size_t b, const State &gathered) const
    {
        State dom = gathered;
        dom[b] = true;
        return dom;
    }

    bool
    equal(const State &a, const State &b) const
    {
        return a == b;
    }

    bool widenAt(std::size_t) const { return false; }
    void widen(State &, const State &) const {}
};

} // namespace

Liveness
Liveness::run(const Program &prog, const RegionCfg &cfg,
              const std::map<int, FnSummary> &callees,
              const RegSet &exit_live)
{
    Liveness lv;
    const auto &blocks = cfg.blocks();
    const auto &code = prog.code();
    if (blocks.empty())
        return lv;

    // mayDef: every reachable def plus callee effects.
    for (const int i : cfg.instructions()) {
        const Inst &inst = code[static_cast<std::size_t>(i)];
        const InstEffects fx = instEffects(inst);
        if (fx.control == Control::Call) {
            auto it = callees.find(inst.target);
            if (it != callees.end())
                lv.mayDef_ |= it->second.mayDef;
            continue;
        }
        lv.mayDef_ |= fx.writes;
    }

    // Per-block fixpoint: liveOut(b) = U liveIn(succ), region exits
    // (ret / falls off the text) see exit_live. The round-robin
    // solver lives in fixpoint.hh, shared with the range analysis.
    LivenessProblem problem{prog, cfg, callees, exit_live};
    FixSolution<RegSet> sol = fixSolve(cfg, problem);

    // Materialize per-instruction sets from the solved block frames.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        RegSet live = sol.in[b];
        for (int i = bb.last; i >= bb.first; --i) {
            if (!cfg.contains(i))
                continue;
            lv.after_[i] = live;
            transferInst(code[static_cast<std::size_t>(i)], callees,
                         live);
            lv.before_[i] = live;
        }
    }

    const int entry_block = cfg.blockOf(cfg.entryIndex());
    if (entry_block >= 0)
        lv.entryLive_ =
            sol.out[static_cast<std::size_t>(entry_block)];
    return lv;
}

const RegSet &
Liveness::liveBefore(int index) const
{
    auto it = before_.find(index);
    return it == before_.end() ? emptySet_ : it->second;
}

const RegSet &
Liveness::liveAfter(int index) const
{
    auto it = after_.find(index);
    return it == after_.end() ? emptySet_ : it->second;
}

const RegSet &
Liveness::entryLiveIn() const
{
    return entryLive_;
}

std::vector<std::vector<bool>>
blockDominators(const RegionCfg &cfg)
{
    const std::size_t n = cfg.blocks().size();
    if (n == 0)
        return {};

    const std::size_t entry = static_cast<std::size_t>(
        std::max(cfg.blockOf(cfg.entryIndex()), 0));
    DominatorProblem problem{n, entry};
    FixSolution<std::vector<bool>> sol = fixSolve(cfg, problem);
    return std::move(sol.out);
}

bool
loopIsReducible(const RegionCfg &cfg, const CfgLoop &loop,
                const std::vector<std::vector<bool>> &dominators)
{
    (void)cfg;
    if (loop.headBlock < 0 || loop.latchBlock < 0)
        return false;
    const auto &latch_dom =
        dominators[static_cast<std::size_t>(loop.latchBlock)];
    return latch_dom[static_cast<std::size_t>(loop.headBlock)];
}

RegSet
ProgramLiveness::demandAt(int entry_index) const
{
    auto it = demand.find(entry_index);
    return it != demand.end() ? it->second : RegSet{};
}

ProgramLiveness
solveProgramLiveness(const Program &prog)
{
    ProgramLiveness pl;
    const auto &code = prog.code();
    if (code.empty())
        return pl;

    // Discovery: every bl target is an outlined function under the
    // bl/ret convention. The program entry participates as a caller
    // (its liveness after each bl is what a region's results must
    // satisfy).
    for (const Inst &inst : code) {
        if (instEffects(inst).control != Control::Call ||
            inst.target < 0 ||
            inst.target >= static_cast<int>(code.size()))
            continue;
        ProgramLiveness::FnFacts &fi = pl.fns[inst.target];
        ++fi.callSites;
        if (inst.hinted) {
            fi.hinted = true;
            fi.widthHint = std::max(fi.widthHint,
                                    unsigned{inst.blWidthHint});
        }
    }

    const int mainEntry =
        prog.hasLabel("main") ? prog.labelIndex("main") : 0;
    pl.entries.insert(mainEntry);
    for (const auto &[entry, fi] : pl.fns)
        pl.entries.insert(entry);

    for (const int e : pl.entries)
        pl.cfgs.emplace(e, RegionCfg::build(prog, e));

    // Joint fixpoint: alternate per-function solves with call-site
    // demand propagation until summaries and demands stabilize. The
    // call graph is acyclic in practice (outlined leaf regions), so
    // entries+3 rounds bound the chain depth comfortably.
    const std::size_t maxIters = pl.entries.size() + 3;
    for (std::size_t iter = 0; iter < maxIters; ++iter) {
        bool changed = false;
        for (const int e : pl.entries) {
            Liveness lv = Liveness::run(prog, pl.cfgs.at(e),
                                        pl.summaries, pl.demand[e]);
            if (pl.fns.count(e)) {
                const FnSummary next = lv.summary();
                auto it = pl.summaries.find(e);
                if (it == pl.summaries.end() ||
                    !(it->second.liveIn == next.liveIn) ||
                    !(it->second.mayDef == next.mayDef)) {
                    pl.summaries[e] = next;
                    changed = true;
                }
            }
            pl.live.insert_or_assign(e, std::move(lv));
        }

        std::map<int, RegSet> nextDemand;
        for (const int e : pl.entries) {
            const RegionCfg &cfg = pl.cfgs.at(e);
            const Liveness &lv = pl.live.at(e);
            for (const int c : cfg.calls()) {
                const int target =
                    code[static_cast<std::size_t>(c)].target;
                auto it = pl.summaries.find(target);
                if (it == pl.summaries.end())
                    continue;
                RegSet d = lv.liveAfter(c);
                d &= it->second.mayDef;
                nextDemand[target] |= d;
            }
        }
        for (const auto &[e, d] : nextDemand) {
            if (!(pl.demand[e] == d)) {
                pl.demand[e] = d;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return pl;
}

} // namespace liquid
