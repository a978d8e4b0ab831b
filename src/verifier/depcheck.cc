#include "verifier/depcheck.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "verifier/cfg.hh"
#include "verifier/dataflow.hh"

namespace liquid
{

namespace
{

/** Instruction range [first, last] of one natural loop. */
struct LoopRange
{
    int first;
    int last;  ///< the backedge instruction
};

/** Innermost loop whose range contains @p index; -1 if none. */
int
loopOf(const std::vector<LoopRange> &loops, int index)
{
    int best = -1;
    int bestSpan = 0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const LoopRange &l = loops[i];
        if (index < l.first || index > l.last)
            continue;
        const int span = l.last - l.first;
        if (best < 0 || span < bestSpan) {
            best = static_cast<int>(i);
            bestSpan = span;
        }
    }
    return best;
}

/** Walk failure: names the runtime condition, like the rule mirror. */
struct WalkStop
{
    std::string why;
    int index;
    DepReason reason;
};

/**
 * Execute the region abstractly and collect the memory-event trace.
 * Throws WalkStop when an address, predicate or branch is
 * runtime-dependent (the cases the rule mirror reports as Warn, plus
 * predicated memory accesses, which the translator vectorizes
 * unconditionally and so are never provably order-safe).
 */
std::vector<DepEvent>
walkRegion(const Program &prog, int entry_index,
           const std::vector<LoopRange> &loops,
           const DepcheckOptions &opts, AbsMachine &machine)
{
    std::vector<DepEvent> events;
    std::vector<unsigned> iterOf(loops.size(), 0);

    const auto &code = prog.code();
    int pc = entry_index;
    unsigned long steps = 0;

    for (;;) {
        if (++steps > opts.stepBudget)
            throw WalkStop{"region exceeds the analysis step budget",
                           pc, DepReason::StepBudget};
        if (pc < 0 || pc >= static_cast<int>(code.size()))
            throw WalkStop{"control flow leaves the program text", pc,
                           DepReason::LeavesText};

        const Inst &inst = code[pc];
        if (inst.op == Opcode::Ret || inst.op == Opcode::Halt)
            break;
        if (inst.op == Opcode::Bl)
            throw WalkStop{"call inside the region", pc,
                           DepReason::NestedCall};

        Taken taken = Taken::No;
        const AbsRetire ri = machine.step(inst, pc, taken);
        if (inst.op == Opcode::B && taken == Taken::Unknown)
            throw WalkStop{"branch depends on runtime data", pc,
                           DepReason::RuntimeBranch};

        const OpInfo &info = inst.info();
        if (info.isLoad || info.isStore) {
            const int loop = loopOf(loops, pc);
            if (loop >= 0) {
                if (inst.cond != Cond::AL) {
                    throw WalkStop{
                        "predicated memory access inside a loop: the "
                        "translated microcode executes it on every "
                        "lane",
                        pc, DepReason::PredicatedAccess};
                }
                if (!ri.memAddr.known) {
                    throw WalkStop{
                        "memory address depends on runtime data", pc,
                        DepReason::RuntimeAddress};
                }
                events.push_back(DepEvent{
                    loop, iterOf[static_cast<std::size_t>(loop)], pc,
                    ri.memAddr.value, info.memElemSize, info.isStore});
            }
        }

        if (inst.op == Opcode::B && ri.branchTaken) {
            const int loop = loopOf(loops, pc);
            if (loop >= 0 && loops[static_cast<std::size_t>(loop)].last == pc)
                ++iterOf[static_cast<std::size_t>(loop)];
            pc = inst.target;
        } else {
            ++pc;
        }
    }
    return events;
}

/** Classify each static access from its per-iteration address trace. */
std::vector<MemAccess>
classifyAccesses(const Program &prog, const std::vector<DepEvent> &events)
{
    std::map<int, MemAccess> byInst;
    std::map<int, Addr> lastEa;
    std::map<int, bool> affine;
    std::map<int, unsigned> lastIter;

    for (const DepEvent &e : events) {
        auto it = byInst.find(e.pos);
        if (it == byInst.end()) {
            MemAccess a;
            a.instIndex = e.pos;
            a.isStore = e.isStore;
            a.elemSize = e.size;
            a.firstEa = e.ea;
            a.minEa = e.ea;
            a.maxEnd = e.ea + e.size;
            a.events = 1;
            a.arrayName = prog.symbolAt(e.ea);
            byInst.emplace(e.pos, std::move(a));
            lastEa[e.pos] = e.ea;
            lastIter[e.pos] = e.iter;
            affine[e.pos] = true;
            continue;
        }
        MemAccess &a = it->second;
        // Affine fit: a constant byte delta per iteration step. A
        // repeated iteration (nested execution) is never affine.
        const std::int64_t delta =
            static_cast<std::int64_t>(e.ea) -
            static_cast<std::int64_t>(lastEa[e.pos]);
        const unsigned dIter = e.iter - lastIter[e.pos];
        if (dIter == 0) {
            affine[e.pos] = false;
        } else if (a.events == 1) {
            a.strideBytes = delta / static_cast<std::int64_t>(dIter);
            if (a.strideBytes * dIter != delta)
                affine[e.pos] = false;
        } else if (delta != a.strideBytes *
                                static_cast<std::int64_t>(dIter)) {
            affine[e.pos] = false;
        }
        lastEa[e.pos] = e.ea;
        lastIter[e.pos] = e.iter;
        ++a.events;
        a.minEa = std::min(a.minEa, e.ea);
        a.maxEnd = std::max(a.maxEnd, e.ea + e.size);
    }

    std::vector<MemAccess> out;
    out.reserve(byInst.size());
    for (auto &[pos, a] : byInst) {
        if (!affine[pos]) {
            a.cls = AccessClass::GatherScatter;
            a.strideBytes = 0;
        } else if (a.events > 1 &&
                   a.strideBytes ==
                       static_cast<std::int64_t>(a.elemSize)) {
            a.cls = AccessClass::UnitStride;
        } else {
            a.cls = AccessClass::Strided;
        }
        out.push_back(a);
    }
    return out;
}

bool
overlaps(const DepEvent &a, const DepEvent &b)
{
    return a.ea < b.ea + b.size && b.ea < a.ea + a.size;
}

/**
 * The width-independent filters on store @p i and partner @p j: store
 * pairs are tested once, and a pair inside one iteration never breaks.
 */
bool
carriedCandidate(const std::vector<DepEvent> &evs, std::uint32_t i,
                 std::uint32_t j)
{
    return !(evs[j].isStore && j < i) && evs[j].iter != evs[i].iter;
}

/**
 * The events of store @p i's loop that overlap it, other than itself,
 * in ascending index order, into @p out.
 */
void
overlapsOf(const std::vector<DepEvent> &evs, const DepIndex &index,
           std::uint32_t i, std::vector<std::uint32_t> &out)
{
    const DepEvent &a = evs[i];
    const unsigned maxSize =
        index.maxSize[static_cast<std::size_t>(a.loop)];
    const std::uint64_t from = a.ea + std::uint64_t{1} > maxSize
                                   ? a.ea + std::uint64_t{1} - maxSize
                                   : 0;
    const std::uint64_t to = std::uint64_t{a.ea} + a.size;
    auto it = std::lower_bound(
        index.byAddr.begin(), index.byAddr.end(), from,
        [&](std::uint32_t k, std::uint64_t ea) {
            const DepEvent &e = evs[k];
            return e.loop != a.loop ? e.loop < a.loop : e.ea < ea;
        });
    out.clear();
    for (; it != index.byAddr.end(); ++it) {
        const DepEvent &b = evs[*it];
        if (b.loop != a.loop || b.ea >= to)
            break;
        if (*it != i && overlaps(a, b))
            out.push_back(*it);
    }
    std::sort(out.begin(), out.end());
}

WidthVerdict
budgetDiedAtWidth()
{
    WidthVerdict v;
    v.kind = WidthVerdict::Kind::Unknown;
    v.why = "dependence pair-test budget exhausted at this width";
    v.reason = DepReason::PairBudgetAtWidth;
    return v;
}

} // namespace

const char *
accessClassName(AccessClass cls)
{
    switch (cls) {
      case AccessClass::UnitStride: return "unit-stride";
      case AccessClass::Strided: return "strided";
      case AccessClass::GatherScatter: return "gather/scatter";
      case AccessClass::Unknown: return "unknown";
    }
    return "unknown";
}

const char *
depReasonName(DepReason reason)
{
    switch (reason) {
      case DepReason::None: return "none";
      case DepReason::StepBudget: return "stepBudget";
      case DepReason::LeavesText: return "leavesText";
      case DepReason::NestedCall: return "nestedCall";
      case DepReason::RuntimeBranch: return "runtimeBranch";
      case DepReason::PredicatedAccess: return "predicatedAccess";
      case DepReason::RuntimeAddress: return "runtimeAddress";
      case DepReason::PairBudgetAtWidth: return "pairBudgetAtWidth";
      case DepReason::PairBudgetBefore: return "pairBudgetBefore";
      case DepReason::OutsideLadder: return "outsideLadder";
    }
    return "none";
}

const WidthVerdict &
DepcheckResult::verdictAt(unsigned width) const
{
    for (std::size_t i = 0; i < widths.size(); ++i) {
        if (widths[i] == width)
            return byWidth[i];
    }
    // Widths outside the ladder are never proven.
    static const WidthVerdict unknown{
        WidthVerdict::Kind::Unknown, DepPair{},
        "width outside the analyzed ladder",
        DepReason::OutsideLadder};
    return unknown;
}

bool
DepcheckResult::safeAt(unsigned width) const
{
    return verdictAt(width).kind == WidthVerdict::Kind::Safe;
}

std::string
DepcheckResult::proofSummary(unsigned width) const
{
    unsigned unit = 0, strided = 0, gather = 0;
    for (const MemAccess &a : accesses) {
        switch (a.cls) {
          case AccessClass::UnitStride: ++unit; break;
          case AccessClass::Strided: ++strided; break;
          default: ++gather; break;
        }
    }
    std::ostringstream os;
    os << "dependence-safe at width " << width << ": " << unit
       << " unit-stride, " << strided << " strided, " << gather
       << " gather/scatter access(es); ";
    if (carriedPairs == 0) {
        os << "no loop-carried overlap within any " << width
           << "-iteration group";
    } else {
        os << carriedPairs << " carried overlap pair(s), min distance "
           << minDistance << ", none order-breaking at this width";
    }
    return os.str();
}

DepTrace
traceDeps(const Program &prog, int entry_index, const RegionCfg &cfg,
          const DepcheckOptions &opts)
{
    DepTrace trace;
    if (cfg.loops().empty()) {
        // No loops: every access executes once, in textual order, in
        // both scalar and microcode form.
        trace.resolved = true;
        return trace;
    }
    trace.analyzed = true;

    std::vector<LoopRange> loops;
    loops.reserve(cfg.loops().size());
    for (const CfgLoop &l : cfg.loops()) {
        loops.push_back(LoopRange{
            cfg.blocks()[static_cast<std::size_t>(l.headBlock)].first,
            l.backedgeIndex});
    }
    trace.loopsAnalyzed = static_cast<unsigned>(loops.size());

    AbsMachine machine(prog, opts.facts);
    try {
        trace.events = walkRegion(prog, entry_index, loops, opts, machine);
    } catch (const WalkStop &stop) {
        trace.unresolvedWhy = stop.why;
        trace.unresolvedReason = stop.reason;
        trace.unresolvedIndex = stop.index;
        trace.factsUsed = machine.factsUsed();
        return trace;
    }
    trace.resolved = true;
    trace.factsUsed = machine.factsUsed();
    trace.accesses = classifyAccesses(prog, trace.events);
    for (const DepEvent &e : trace.events)
        trace.maxIter = std::max(trace.maxIter, e.iter);
    return trace;
}

std::uint64_t
indexDeps(DepTrace &trace, std::uint64_t budget)
{
    const std::vector<DepEvent> &evs = trace.events;
    DepIndex index;
    index.byAddr.resize(evs.size());
    std::iota(index.byAddr.begin(), index.byAddr.end(), 0u);
    std::sort(index.byAddr.begin(), index.byAddr.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                  const DepEvent &a = evs[x];
                  const DepEvent &b = evs[y];
                  if (a.loop != b.loop)
                      return a.loop < b.loop;
                  return a.ea != b.ea ? a.ea < b.ea : x < y;
              });
    index.maxSize.assign(trace.loopsAnalyzed, 0);
    for (const DepEvent &e : evs) {
        unsigned &m = index.maxSize[static_cast<std::size_t>(e.loop)];
        m = std::max(m, e.size);
    }
    // A store none of whose overlapping partners is a carried
    // candidate can never yield a hit.
    std::uint64_t visited = 0;
    std::vector<std::uint32_t> partners;
    for (std::uint32_t i = 0; i < evs.size(); ++i) {
        if (!evs[i].isStore)
            continue;
        overlapsOf(evs, index, i, partners);
        visited += partners.size();
        if (visited > budget)
            return visited;
        if (std::any_of(partners.begin(), partners.end(),
                        [&](std::uint32_t j) {
                            return carriedCandidate(evs, i, j);
                        }))
            index.stores.push_back(i);
    }
    std::stable_sort(index.stores.begin(), index.stores.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                         return evs[x].loop < evs[y].loop;
                     });
    trace.index = std::move(index);
    return visited;
}

unsigned
iterDistance(const DepEvent &a, const DepEvent &b)
{
    return a.iter > b.iter ? a.iter - b.iter : b.iter - a.iter;
}

bool
sameGroup(const DepEvent &a, const DepEvent &b, unsigned n)
{
    return a.iter / n == b.iter / n;
}

bool
orderFlips(const DepEvent &a, const DepEvent &b)
{
    return (a.iter < b.iter && a.pos > b.pos) ||
           (b.iter < a.iter && b.pos > a.pos);
}

WidthScan
scanWidth(const DepTrace &trace, unsigned n, std::uint64_t &spent,
          std::uint64_t budget, const PairTests &tests)
{
    LIQUID_ASSERT(trace.index, "scanWidth needs an indexed trace");
    const std::vector<DepEvent> &evs = trace.events;
    WidthScan scan;
    scan.verdict.kind = WidthVerdict::Kind::Safe;
    std::vector<std::uint32_t> partners;
    for (const std::uint32_t i : trace.index->stores) {
        const DepEvent &a = evs[i];
        overlapsOf(evs, *trace.index, i, partners);
        for (const std::uint32_t j : partners) {
            if (++spent > budget) {
                scan.verdict = budgetDiedAtWidth();
                return scan;
            }
            const DepEvent &b = evs[j];
            if (!carriedCandidate(evs, i, j) || !tests.together(a, b, n))
                continue;
            const unsigned dist = iterDistance(a, b);
            if (scan.minDistance == 0 || dist < scan.minDistance)
                scan.minDistance = dist;
            ++scan.carriedPairs;
            if (!tests.breaks(a, b))
                continue;
            DepPair &pair = scan.verdict.pair;
            pair.storeIndex = a.pos;
            pair.otherIndex = b.pos;
            pair.otherIsStore = b.isStore;
            pair.distance = dist;
            pair.addr = std::max(a.ea, b.ea);
            pair.orderFlips = orderFlips(a, b);
            scan.verdict.kind = WidthVerdict::Kind::Unsafe;
            return scan;
        }
    }
    return scan;
}

DepcheckResult
analyzeDeps(const Program &prog, int entry_index, const RegionCfg &cfg,
            const DepcheckOptions &opts)
{
    DepcheckResult result;
    DepTrace trace = traceDeps(prog, entry_index, cfg, opts);
    result.analyzed = trace.analyzed;
    result.resolved = trace.resolved;
    result.unresolvedWhy = trace.unresolvedWhy;
    result.unresolvedReason = trace.unresolvedReason;
    result.unresolvedIndex = trace.unresolvedIndex;
    result.factsUsed = std::move(trace.factsUsed);
    result.loopsAnalyzed = trace.loopsAnalyzed;
    if (!trace.analyzed) {
        for (auto &v : result.byWidth)
            v.kind = WidthVerdict::Kind::Safe;
        return result;
    }
    if (!trace.resolved) {
        for (auto &v : result.byWidth) {
            v.kind = WidthVerdict::Kind::Unknown;
            v.why = trace.unresolvedWhy;
            v.reason = trace.unresolvedReason;
        }
        return result;
    }
    result.eventCount = static_cast<unsigned>(trace.events.size());
    result.accesses = std::move(trace.accesses);

    // Widths ascend so a drained budget costs the wide verdicts first;
    // the index build spends width 2's budget.
    result.pairsExamined = indexDeps(trace, opts.pairBudget);
    bool budgetDry = false;
    for (std::size_t wi = 0; wi < DepcheckResult::widths.size(); ++wi) {
        WidthVerdict &verdict = result.byWidth[wi];
        if (budgetDry) {
            verdict.kind = WidthVerdict::Kind::Unknown;
            verdict.why = "dependence pair-test budget exhausted "
                          "before this width";
            verdict.reason = DepReason::PairBudgetBefore;
            continue;
        }
        if (!trace.index) {
            verdict = budgetDiedAtWidth();
            budgetDry = true;
            continue;
        }
        const WidthScan scan =
            scanWidth(trace, DepcheckResult::widths[wi],
                      result.pairsExamined, opts.pairBudget);
        verdict = scan.verdict;
        budgetDry = verdict.reason == DepReason::PairBudgetAtWidth;
        // Groups at width 2N contain the groups at width N, so a
        // completed wider scan accepts a superset of the narrower
        // one's pairs: the running max is "pairs within the widest
        // resolved window", the number the Ok proof quotes.
        result.carriedPairs =
            std::max(result.carriedPairs, scan.carriedPairs);
        if (scan.minDistance != 0 &&
            (result.minDistance == 0 ||
             scan.minDistance < result.minDistance))
            result.minDistance = scan.minDistance;
    }
    return result;
}

} // namespace liquid
