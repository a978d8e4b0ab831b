/**
 * @file
 * Width-polymorphic verification: one recording walk, a verdict that
 * is a predicate on N. See poly.hh for the exactness contract.
 */

#include "verifier/poly.hh"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "isa/perm.hh"
#include "translator/abort_reason.hh"
#include "verifier/cfg.hh"
#include "verifier/symexec.hh"
#include "verifier/verifier.hh"

namespace liquid
{

namespace
{

/** Probing past this width is pointless for any workload we model. */
constexpr unsigned maxHorizon = 4096;

bool
sabOn(unsigned mask, PolySabotage bit)
{
    return (mask & static_cast<unsigned>(bit)) != 0;
}

/** The recording sink: turns the rule automaton's width checks into events. */
class Recorder : public WidthCheckSink
{
  public:
    explicit Recorder(PolyRegion &region) : region_(region) {}

    void
    onStreamSeed(int stream, Word value) override
    {
        if (region_.streams.size() <= static_cast<std::size_t>(stream))
            region_.streams.resize(
                static_cast<std::size_t>(stream) + 1);
        region_.streams[static_cast<std::size_t>(stream)]
            .values.push_back(value);
    }

    void
    onStreamLane(int inst_index, int stream, std::size_t elem,
                 Word value) override
    {
        PolyRegion::Event e;
        e.kind = PolyRegion::Event::Kind::StreamLane;
        e.instIndex = inst_index;
        e.stream = stream;
        e.elem = static_cast<std::uint32_t>(elem);
        e.value = value;
        region_.events.push_back(e);
        region_.streams[static_cast<std::size_t>(stream)]
            .values.push_back(value);
    }

    void
    onTripCount(int inst_index, unsigned iters) override
    {
        PolyRegion::Event e;
        e.kind = PolyRegion::Event::Kind::TripCount;
        e.instIndex = inst_index;
        e.iters = iters;
        region_.events.push_back(e);
    }

    void
    onLanes(int inst_index, int stream, std::size_t observed) override
    {
        PolyRegion::Event e;
        e.kind = PolyRegion::Event::Kind::Lanes;
        e.instIndex = inst_index;
        e.stream = stream;
        e.observed = static_cast<std::uint32_t>(observed);
        region_.events.push_back(e);
    }

    void
    onPerm(int inst_index, int stream, bool is_store) override
    {
        PolyRegion::Event e;
        e.kind = PolyRegion::Event::Kind::Perm;
        e.instIndex = inst_index;
        e.stream = stream;
        e.isStore = is_store;
        region_.events.push_back(e);
    }

  private:
    PolyRegion &region_;
};

bool
depOverlaps(const DepEvent &a, const DepEvent &b)
{
    return a.ea < b.ea + b.size && b.ea < a.ea + a.size;
}

unsigned
iterDistance(const DepEvent &a, const DepEvent &b)
{
    return a.iter > b.iter ? a.iter - b.iter : b.iter - a.iter;
}

/** Textual order opposes iteration order: any grouping breaks it. */
bool
orderFlips(const DepEvent &a, const DepEvent &b)
{
    return (a.iter < b.iter && a.pos > b.pos) ||
           (b.iter < a.iter && b.pos > a.pos);
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
overlapsOf(const PolyDeps &deps, const PolyRegion::DepIndex &index,
           std::uint32_t i, std::vector<std::uint32_t> &out)
{
    const std::vector<DepEvent> &evs = deps.events;
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
        if (*it != i && depOverlaps(a, b))
            out.push_back(*it);
    }
    std::sort(out.begin(), out.end());
}

/** Build the address index of @p deps (PolyRegion::depIndex). */
PolyRegion::DepIndex
indexDeps(const PolyDeps &deps)
{
    const std::vector<DepEvent> &evs = deps.events;
    PolyRegion::DepIndex index;
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
    index.maxSize.assign(deps.loopsAnalyzed, 0);
    for (const DepEvent &e : evs) {
        unsigned &m = index.maxSize[static_cast<std::size_t>(e.loop)];
        m = std::max(m, e.size);
    }
    // A store none of whose overlapping partners is a carried
    // candidate can never yield a hit.
    std::vector<std::uint32_t> partners;
    for (std::uint32_t i = 0; i < evs.size(); ++i) {
        if (!evs[i].isStore)
            continue;
        overlapsOf(deps, index, i, partners);
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
    return index;
}

/**
 * The pair scan analyzeDeps runs, replayed on the recorded trace:
 * loops ascending, store events ascending, their partners ascending,
 * and the first cross-iteration pair @p accept takes wins — within one
 * group the two iteration orders coincide because group runs are
 * contiguous. Only the index's stores and their overlapping partners
 * are visited; every pair skipped that way is one carriedCandidate or
 * depOverlaps rejects, so the first hit is the whole-loop scan's.
 * @p examined counts the visited pairs.
 */
template <typename Accept>
std::optional<std::pair<const DepEvent *, const DepEvent *>>
firstPair(const PolyDeps &deps, const PolyRegion::DepIndex &index,
          std::uint64_t &examined, Accept accept)
{
    std::vector<std::uint32_t> partners;
    for (const std::uint32_t i : index.stores) {
        const DepEvent &a = deps.events[i];
        overlapsOf(deps, index, i, partners);
        for (const std::uint32_t j : partners) {
            ++examined;
            const DepEvent &b = deps.events[j];
            if (carriedCandidate(deps.events, i, j) && accept(a, b))
                return std::make_pair(&a, &b);
        }
    }
    return std::nullopt;
}

struct DepScanHit
{
    bool unsafe = false;
    DepPair pair;
};

/**
 * analyzeDeps' verdict at width @p n: the first pair that flips order
 * inside one vector group. The sabotage knobs seed the --sabotage bugs
 * into this evaluator.
 */
DepScanHit
scanDepsAt(const PolyRegion &r, unsigned n, unsigned sabotage,
           std::uint64_t &examined)
{
    auto breaks = [&](const DepEvent &a, const DepEvent &b) {
        if (!sabOn(sabotage, PolySabotage::FlipIgnore) &&
            !orderFlips(a, b))
            return false;
        return sabOn(sabotage, PolySabotage::GroupCollide)
                   ? iterDistance(a, b) < n
                   : a.iter / n == b.iter / n;
    };
    const auto found = firstPair(r.deps, r.depIndex, examined, breaks);
    DepScanHit hit;
    if (!found)
        return hit;
    const DepEvent &a = *found->first;
    const DepEvent &b = *found->second;
    hit.unsafe = true;
    hit.pair.storeIndex = a.pos;
    hit.pair.otherIndex = b.pos;
    hit.pair.otherIsStore = b.isStore;
    hit.pair.distance = iterDistance(a, b);
    hit.pair.addr = std::max(a.ea, b.ea);
    hit.pair.orderFlips = orderFlips(a, b);
    return hit;
}

/** Does any order-breaking carried pair exist at *some* width? */
bool
anyFlippingPair(const PolyRegion &r, std::uint64_t &examined)
{
    return firstPair(r.deps, r.depIndex, examined, orderFlips)
        .has_value();
}

/**
 * Symbolic carried distance between two affine accesses, derived with
 * symexec's Lane-mode address algebra: both addresses are expressed
 * as polynomials base + stride·iter over a shared iteration
 * parameter, and TermPool::affineDiff (the Lane-mode alias test)
 * reduces their difference to a constant byte delta when the strides
 * agree. delta / stride is then the iteration distance — the k in the
 * symbolic inequality `distance >= k implies safe for N <= k`.
 */
std::optional<unsigned>
symbolicCarriedDistance(const MemAccess &store, const MemAccess &other)
{
    if (store.strideBytes == 0 ||
        store.strideBytes != other.strideBytes)
        return std::nullopt;
    sym::TermPool pool;
    const sym::TermRef iter = pool.param("iter");
    auto addrPoly = [&](const MemAccess &a) {
        const sym::TermRef stride =
            pool.konst(static_cast<Word>(a.strideBytes));
        return pool.bin(Opcode::Add,
                        pool.konst(static_cast<Word>(a.firstEa)),
                        pool.bin(Opcode::Mul, stride, iter, false),
                        false);
    };
    const std::optional<SWord> delta =
        pool.affineDiff(addrPoly(store), addrPoly(other));
    if (!delta)
        return std::nullopt;
    const auto stride = static_cast<SWord>(store.strideBytes);
    if (*delta % stride != 0)
        return std::nullopt;
    const SWord d = *delta / stride;
    return static_cast<unsigned>(d < 0 ? -d : d);
}

/** Smallest p >= 1 with values[i] == values[i % p] for all i. */
unsigned
fundamentalPeriod(const std::vector<Word> &values)
{
    for (unsigned p = 1; p < values.size(); ++p) {
        bool ok = true;
        for (std::size_t i = p; i < values.size() && ok; ++i)
            ok = values[i] == values[i % p];
        if (ok)
            return p;
    }
    return values.empty() ? 1
                          : static_cast<unsigned>(values.size());
}

const MemAccess *
accessAt(const std::vector<MemAccess> &accesses, int inst_index)
{
    for (const MemAccess &a : accesses) {
        if (a.instIndex == inst_index)
            return &a;
    }
    return nullptr;
}

} // namespace

const char *
polySabotageName(PolySabotage s)
{
    switch (s) {
      case PolySabotage::None: return "none";
      case PolySabotage::GroupCollide: return "groupCollide";
      case PolySabotage::FlipIgnore: return "flipIgnore";
      case PolySabotage::TripDivisor: return "tripDivisor";
      case PolySabotage::TripEqual: return "tripEqual";
      case PolySabotage::StreamPeriod: return "streamPeriod";
    }
    return "none";
}

std::string
NConstraint::render() const
{
    std::ostringstream os;
    bool wrote = false;
    if (!cg.isTop() && cg.mod >= 2 && cg.rem == 0) {
        os << cg.mod << " | N";
        wrote = true;
    }
    if (!iv.isTop() && !iv.empty()) {
        if (wrote)
            os << " and ";
        if (iv.lo > 2 && iv.hi < INT64_MAX)
            os << iv.lo << " <= N <= " << iv.hi;
        else if (iv.hi < INT64_MAX)
            os << "N <= " << iv.hi;
        else
            os << "N >= " << iv.lo;
        wrote = true;
    }
    if (!wrote)
        os << "any N";
    if (!why.empty())
        os << " (" << why << ")";
    return os.str();
}

bool
PolyValidity::okAt(unsigned n) const
{
    if (n > horizon)
        return tail.verdict == Severity::Ok;
    return std::find(okWidths.begin(), okWidths.end(), n) !=
           okWidths.end();
}

PolyWidthOutcome
PolyRegion::instantiate(unsigned n, unsigned sabotage) const
{
    PolyWidthOutcome out;
    if (n < 2) {
        // Mirrors verifyRegion's bind-below-2 refusal.
        out.verdict = Severity::Warn;
        out.instIndex = entryIndex;
        out.note = "effective width below 2: the translator never "
                   "captures this region";
        return out;
    }

    auto fail = [&](AbortReason reason, int index) {
        out.verdict = Severity::Error;
        out.reason = reason;
        out.instIndex = index;
    };

    // Replay the width checks in recorded (= program) order; the
    // first failure is what the width-bound walk would abort with.
    std::vector<std::uint32_t> lanesSeen(streams.size(), 1);
    for (const Event &e : events) {
        switch (e.kind) {
          case Event::Kind::StreamLane: {
            auto &seen = lanesSeen[static_cast<std::size_t>(e.stream)];
            const auto &vals =
                streams[static_cast<std::size_t>(e.stream)].values;
            if (seen < n) {
                if (!laneRepresentable(e.value)) {
                    fail(AbortReason::ValueTooWide, e.instIndex);
                    return out;
                }
                ++seen;
            } else {
                const std::size_t idx =
                    sabOn(sabotage, PolySabotage::StreamPeriod)
                        ? 0
                        : e.elem % n;
                if (e.value != vals[idx]) {
                    fail(AbortReason::ValueMismatch, e.instIndex);
                    return out;
                }
            }
            break;
          }
          case Event::Kind::TripCount: {
            bool bad = sabOn(sabotage, PolySabotage::TripEqual)
                           ? e.iters <= n
                           : e.iters < n;
            if (!sabOn(sabotage, PolySabotage::TripDivisor))
                bad = bad || e.iters % n != 0;
            if (bad) {
                fail(AbortReason::TripCount, e.instIndex);
                return out;
            }
            break;
          }
          case Event::Kind::Lanes:
            if (e.observed < n) {
                fail(AbortReason::LanesIncomplete, e.instIndex);
                return out;
            }
            break;
          case Event::Kind::Perm: {
            const auto &vals =
                streams[static_cast<std::size_t>(e.stream)].values;
            std::vector<std::int32_t> offsets;
            offsets.reserve(n);
            for (unsigned i = 0; i < n; ++i)
                offsets.push_back(static_cast<std::int32_t>(
                    static_cast<SWord>(vals[i])));
            if (!permCamLookup(offsets, n, permRepertoire)) {
                fail(AbortReason::UnsupportedShuffle, e.instIndex);
                return out;
            }
            break;
          }
        }
    }

    // Width checks pass: the width-independent terminal decides.
    if (terminal.verdict == Severity::Error) {
        fail(terminal.reason, terminal.reasonIndex);
        if (terminal.reason == AbortReason::MemoryDependence &&
            deps.resolved) {
            // verifyRegion runs depcheck on interval-test aborts too
            // (the conservative-abort note); mirror its verdict.
            out.depRan = true;
            const DepScanHit hit =
                scanDepsAt(*this, n, sabotage, out.pairsExamined);
            out.depKind = hit.unsafe ? WidthVerdict::Kind::Unsafe
                                     : WidthVerdict::Kind::Safe;
            out.pair = hit.pair;
        }
        return out;
    }
    if (terminal.verdict == Severity::Warn) {
        out.verdict = Severity::Warn;
        out.instIndex = terminal.reasonIndex;
        out.note = terminal.warnCondition;
        return out;
    }

    // Rules commit at this width; the dependence scan decides.
    out.depRan = true;
    if (!deps.analyzed) {
        out.depKind = WidthVerdict::Kind::Safe;
        return out;  // no loops: Ok
    }
    if (!deps.resolved) {
        out.verdict = Severity::Warn;
        out.depKind = WidthVerdict::Kind::Unknown;
        out.depReason = deps.unresolvedReason;
        out.instIndex = deps.unresolvedIndex;
        out.note = "memoryDependence: " + deps.unresolvedWhy;
        return out;
    }
    const DepScanHit hit =
        scanDepsAt(*this, n, sabotage, out.pairsExamined);
    if (hit.unsafe) {
        out.verdict = Severity::Error;
        out.reason = AbortReason::MemoryDependence;
        out.depMiscompile = true;
        out.depKind = WidthVerdict::Kind::Unsafe;
        out.pair = hit.pair;
        out.instIndex = hit.pair.storeIndex;
        return out;
    }
    out.depKind = WidthVerdict::Kind::Safe;
    return out;
}

namespace
{

/** Render {2,4,8,16,...} compactly; detects the divisor pattern. */
std::string
renderOkSet(const std::vector<unsigned> &ok, unsigned horizon,
            const std::vector<unsigned> &trips)
{
    if (trips.size() == 1) {
        const unsigned t = trips[0];
        bool divisorSet = true;
        std::size_t k = 0;
        for (unsigned n = 2; n <= horizon && divisorSet; ++n) {
            const bool isOk = k < ok.size() && ok[k] == n;
            if (isOk)
                ++k;
            if (isOk != (n <= t && t % n == 0))
                divisorSet = false;
        }
        if (divisorSet && k == ok.size())
            return "N | " + std::to_string(t);
    }
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < ok.size(); ++i)
        os << (i != 0 ? "," : "") << ok[i];
    os << "}";
    return os.str();
}

} // namespace

PolyRegion
analyzePoly(const Program &prog, int entry_index,
            const TranslatorConfig &config,
            const DepcheckOptions &depOpts)
{
    PolyRegion r;
    r.entryIndex = entry_index;
    r.entryLabel = prog.labelAt(entry_index);
    r.permRepertoire = config.permRepertoire;

    // One width-independent recording walk. The capture width passed
    // here scales only emitted IV strides (verdict-irrelevant).
    Recorder rec(r);
    r.terminal = analyzeRegion(prog, entry_index, config, 16,
                               depOpts.facts, &rec);

    const RegionCfg cfg = RegionCfg::build(prog, entry_index);
    r.deps = analyzePolyDeps(prog, entry_index, cfg, depOpts);
    r.depIndex = indexDeps(r.deps);

    // ---- validity set: probe to the data horizon ---------------------
    PolyValidity &v = r.validity;
    std::uint64_t need = 16;
    std::vector<unsigned> trips;
    for (const PolyRegion::Event &e : r.events) {
        switch (e.kind) {
          case PolyRegion::Event::Kind::StreamLane:
            need = std::max<std::uint64_t>(need, e.elem + 1);
            break;
          case PolyRegion::Event::Kind::TripCount:
            need = std::max<std::uint64_t>(need, e.iters);
            if (std::find(trips.begin(), trips.end(), e.iters) ==
                trips.end())
                trips.push_back(e.iters);
            break;
          case PolyRegion::Event::Kind::Lanes:
            need = std::max<std::uint64_t>(need, e.observed);
            break;
          case PolyRegion::Event::Kind::Perm:
            break;
        }
    }
    need = std::max<std::uint64_t>(need, r.deps.maxIter + 1);
    v.horizon = static_cast<unsigned>(
        std::min<std::uint64_t>(need, maxHorizon));
    v.tailExact = need <= maxHorizon;
    auto probe = [&r](unsigned n) {
        PolyWidthOutcome o = r.instantiate(n);
        r.pairsExamined += o.pairsExamined;
        return o;
    };
    for (unsigned n = 2; n <= v.horizon; ++n) {
        if (probe(n).verdict == Severity::Ok)
            v.okWidths.push_back(n);
    }
    // Beyond the horizon every recorded check saturates (trip and
    // lane counts are exceeded, streams stay in capture mode, every
    // dependence pair shares group 0), so one probe is the whole tail.
    v.tail = probe(v.horizon + 1);

    // ---- structural view: trip data factored out ---------------------
    bool structural = r.terminal.verdict == Severity::Ok;
    if (structural) {
        // Streams must be genuinely periodic for lanes beyond the
        // observed data to repeat; the fundamental period becomes the
        // congruence constraint p | N.
        std::uint64_t periodLcm = 1;
        bool aperiodic = false;
        for (const PolyRegion::Stream &s : r.streams) {
            if (s.values.size() <= 1)
                continue;
            const unsigned p = fundamentalPeriod(s.values);
            if (p == s.values.size()) {
                aperiodic = true;
                continue;
            }
            periodLcm = std::lcm<std::uint64_t>(periodLcm, p);
        }
        bool permBound = false;
        for (const PolyRegion::Event &e : r.events)
            permBound |= e.kind == PolyRegion::Event::Kind::Perm;

        if (aperiodic || permBound) {
            structural = false;
            NConstraint c;
            c.iv = Interval::make(
                2, v.okWidths.empty()
                       ? 1
                       : static_cast<std::int64_t>(v.okWidths.back()));
            c.why = permBound ? "permutation repertoire"
                              : "aperiodic constant stream";
            v.constraints.push_back(std::move(c));
        } else if (periodLcm > 1) {
            NConstraint c;
            c.cg = Congruence::make(periodLcm, 0);
            c.why = "stream period";
            v.constraints.push_back(std::move(c));
        }

        if (!r.deps.analyzed) {
            // no loops, no carried dependences
        } else if (!r.deps.resolved) {
            structural = false;
            NConstraint c;
            c.iv = Interval::bottom();
            c.why = "unresolved dependence walk: " +
                    r.deps.unresolvedWhy;
            v.constraints.push_back(std::move(c));
        } else if (anyFlippingPair(r, r.pairsExamined)) {
            structural = false;
            // Name the symbolic distance bound when the first
            // offending pair is affine (Lane-mode address algebra).
            const DepScanHit wide =
                scanDepsAt(r, v.horizon + 1, 0, r.pairsExamined);
            NConstraint c;
            c.iv = Interval::make(
                2, v.okWidths.empty()
                       ? 1
                       : static_cast<std::int64_t>(v.okWidths.back()));
            std::ostringstream why;
            why << "carried distance " << wide.pair.distance;
            if (wide.unsafe) {
                const MemAccess *st =
                    accessAt(r.deps.accesses, wide.pair.storeIndex);
                const MemAccess *ot =
                    accessAt(r.deps.accesses, wide.pair.otherIndex);
                if (st != nullptr && ot != nullptr) {
                    const std::optional<unsigned> symd =
                        symbolicCarriedDistance(*st, *ot);
                    if (symd)
                        why << " (symbolic: |Δbase|/stride = "
                            << *symd << ")";
                }
            }
            c.why = why.str();
            v.constraints.push_back(std::move(c));
        }
    }
    v.structuralUnbounded = structural;

    // ---- one-line summary --------------------------------------------
    std::ostringstream os;
    if (r.terminal.verdict == Severity::Warn && v.okWidths.empty()) {
        os << "warn for all N: " << r.terminal.warnCondition;
    } else if (v.okWidths.empty()) {
        const PolyWidthOutcome two = probe(2);
        os << "error for all N";
        if (two.verdict == Severity::Error) {
            os << ": " << abortReasonName(two.reason);
            if (two.depMiscompile)
                os << " (depMiscompile, distance "
                   << two.pair.distance << ")";
        }
    } else if (v.structuralUnbounded) {
        os << "safe for all N";
        for (const NConstraint &c : v.constraints)
            os << " with " << c.render();
        os << " (observed trip: "
           << renderOkSet(v.okWidths, v.horizon, trips) << ")";
    } else {
        os << "safe for N in "
           << renderOkSet(v.okWidths, v.horizon, trips);
        // Detect the upward-closed failure pattern "error for N >= x".
        const unsigned last = v.okWidths.back();
        const PolyWidthOutcome after = probe(last + 1);
        bool upward = after.verdict == Severity::Error &&
                      v.tail.verdict == Severity::Error &&
                      v.tail.reason == after.reason;
        for (unsigned n = last + 1; upward && n <= v.horizon; ++n) {
            const PolyWidthOutcome o = probe(n);
            upward = o.verdict == Severity::Error &&
                     o.reason == after.reason;
        }
        if (upward) {
            os << "; error for N >= " << last + 1 << ": "
               << abortReasonName(after.reason);
            if (after.depMiscompile)
                os << " (depMiscompile, distance "
                   << after.pair.distance << ")";
        }
    }
    v.summary = os.str();
    return r;
}

namespace
{

std::string
describeOutcome(Severity sev, AbortReason reason, int index,
                bool miscompile)
{
    std::ostringstream os;
    os << severityName(sev) << "/" << abortReasonName(reason)
       << "@inst" << index << (miscompile ? " depMiscompile" : "");
    return os.str();
}

std::string
describePair(const DepPair &p)
{
    std::ostringstream os;
    os << "store@" << p.storeIndex << " vs "
       << (p.otherIsStore ? "store@" : "load@") << p.otherIndex
       << " dist " << p.distance << " addr 0x" << std::hex << p.addr
       << std::dec << (p.orderFlips ? " flips" : " inorder");
    return os.str();
}

} // namespace

PolyDiff
diffRegion(const Program &prog, int entry_index,
           const TranslatorConfig &config, unsigned sabotage)
{
    PolyDiff diff;
    diff.entryIndex = entry_index;
    diff.entryLabel = prog.labelAt(entry_index);

    const PolyRegion region = analyzePoly(prog, entry_index, config);

    for (const unsigned n : DepcheckResult::widths) {
        VerifyOptions vo;
        vo.config = config;
        vo.config.simdWidth = n;
        vo.widthFallback = false;
        vo.prove = false;
        vo.ranges = nullptr;
        const RegionReport rep = verifyRegion(prog, entry_index, vo, 0);

        // Budget exhaustion is the one concrete outcome the symbolic
        // replay does not model; exclude it from the contract.
        if (rep.depAnalyzed &&
            (rep.dep.verdictAt(n).reason ==
                 DepReason::PairBudgetAtWidth ||
             rep.dep.verdictAt(n).reason ==
                 DepReason::PairBudgetBefore))
            continue;

        const PolyWidthOutcome got = region.instantiate(n, sabotage);

        auto mismatch = [&](const std::string &field,
                            const std::string &expect,
                            const std::string &gotStr) {
            diff.mismatches.push_back(
                PolyMismatch{n, field, expect, gotStr});
        };

        if (rep.verdict != got.verdict || rep.reason != got.reason ||
            rep.depMiscompile != got.depMiscompile) {
            int expectIndex = -1;
            for (const Diagnostic &d : rep.diags) {
                if (d.severity == rep.verdict) {
                    expectIndex = d.instIndex;
                    break;
                }
            }
            mismatch("verdict",
                     describeOutcome(rep.verdict, rep.reason,
                                     expectIndex, rep.depMiscompile),
                     describeOutcome(got.verdict, got.reason,
                                     got.instIndex,
                                     got.depMiscompile));
            continue;
        }
        if (got.verdict == Severity::Error) {
            bool found = false;
            for (const Diagnostic &d : rep.diags) {
                if (d.severity == Severity::Error) {
                    found = d.reason == got.reason &&
                            d.instIndex == got.instIndex;
                    break;
                }
            }
            if (!found)
                mismatch("errorDiag", "error diag at matching inst",
                         describeOutcome(got.verdict, got.reason,
                                         got.instIndex,
                                         got.depMiscompile));
        }
        if (got.verdict == Severity::Warn) {
            bool found = false;
            for (const Diagnostic &d : rep.diags) {
                if (d.severity == Severity::Warn &&
                    d.instIndex == got.instIndex &&
                    d.message == got.note) {
                    found = true;
                    break;
                }
            }
            if (!found)
                mismatch("warnDiag",
                         "warn diag with matching index+message",
                         "inst " + std::to_string(got.instIndex) +
                             ": " + got.note);
        }
        if (rep.depAnalyzed) {
            const WidthVerdict &wv = rep.dep.verdictAt(n);
            if (!got.depRan) {
                mismatch("depRan", "dep verdict at width", "not run");
                continue;
            }
            if (wv.kind != got.depKind ||
                wv.reason != got.depReason) {
                mismatch("depVerdict",
                         std::string(depReasonName(wv.reason)),
                         depReasonName(got.depReason));
                continue;
            }
            if (wv.kind == WidthVerdict::Kind::Unsafe) {
                const DepPair &e = wv.pair;
                const DepPair &g = got.pair;
                if (e.storeIndex != g.storeIndex ||
                    e.otherIndex != g.otherIndex ||
                    e.otherIsStore != g.otherIsStore ||
                    e.distance != g.distance || e.addr != g.addr ||
                    e.orderFlips != g.orderFlips)
                    mismatch("depPair", describePair(e),
                             describePair(g));
            }
        }
    }
    return diff;
}

std::vector<PolyDiff>
diffProgram(const Program &prog, const TranslatorConfig &config,
            unsigned sabotage)
{
    std::vector<PolyDiff> out;
    std::vector<int> seen;
    for (const HintedCall &call : prog.hintedCalls()) {
        if (std::find(seen.begin(), seen.end(), call.target) !=
            seen.end())
            continue;
        seen.push_back(call.target);
        out.push_back(diffRegion(prog, call.target, config, sabotage));
    }
    return out;
}

} // namespace liquid
