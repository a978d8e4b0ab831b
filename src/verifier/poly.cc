/**
 * @file
 * Width-polymorphic verification: one recording walk, a verdict that
 * is a predicate on N. See poly.hh for the exactness contract.
 */

#include "verifier/poly.hh"

#include <algorithm>
#include <climits>
#include <limits>
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

/**
 * analyzeDeps' scan at width @p n, with the seeded bugs of @p sabotage
 * swapped into its pair tests. The trace is never budgeted here.
 */
WidthScan
scanDepsAt(const PolyRegion &r, unsigned n, unsigned sabotage,
           std::uint64_t &examined)
{
    PairTests tests;
    if (sabOn(sabotage, PolySabotage::GroupCollide)) {
        tests.together = [](const DepEvent &a, const DepEvent &b,
                            unsigned w) { return iterDistance(a, b) < w; };
    }
    if (sabOn(sabotage, PolySabotage::FlipIgnore))
        tests.breaks = [](const DepEvent &, const DepEvent &) {
            return true;
        };
    return scanWidth(r.deps, n, examined,
                     std::numeric_limits<std::uint64_t>::max(), tests);
}

/**
 * Does any order-breaking carried pair exist at *some* width? At an
 * unbounded width every pair shares group 0.
 */
bool
anyFlippingPair(const PolyRegion &r, std::uint64_t &examined)
{
    return scanDepsAt(r, UINT_MAX, 0, examined).verdict.kind ==
           WidthVerdict::Kind::Unsafe;
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
            const WidthScan scan =
                scanDepsAt(*this, n, sabotage, out.pairsExamined);
            out.depKind = scan.verdict.kind;
            out.pair = scan.verdict.pair;
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
    const WidthScan scan =
        scanDepsAt(*this, n, sabotage, out.pairsExamined);
    out.depKind = scan.verdict.kind;
    if (scan.verdict.kind == WidthVerdict::Kind::Unsafe) {
        out.verdict = Severity::Error;
        out.reason = AbortReason::MemoryDependence;
        out.depMiscompile = true;
        out.pair = scan.verdict.pair;
        out.instIndex = scan.verdict.pair.storeIndex;
    }
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
    r.deps = traceDeps(prog, entry_index, cfg, depOpts);
    // Only a terminal that lets the dependence verdict through scans
    // the trace, so only those regions pay for its index (on accesses
    // sharing one address the build is quadratic).
    if (r.deps.resolved &&
        (r.terminal.verdict == Severity::Ok ||
         (r.terminal.verdict == Severity::Error &&
          r.terminal.reason == AbortReason::MemoryDependence)))
        indexDeps(r.deps);

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
            const WidthScan wide =
                scanDepsAt(r, v.horizon + 1, 0, r.pairsExamined);
            NConstraint c;
            c.iv = Interval::make(
                2, v.okWidths.empty()
                       ? 1
                       : static_cast<std::int64_t>(v.okWidths.back()));
            std::ostringstream why;
            const DepPair &pair = wide.verdict.pair;
            why << "carried distance " << pair.distance;
            if (wide.verdict.kind == WidthVerdict::Kind::Unsafe) {
                const MemAccess *st =
                    accessAt(r.deps.accesses, pair.storeIndex);
                const MemAccess *ot =
                    accessAt(r.deps.accesses, pair.otherIndex);
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
    for (const HintedCall &call : prog.hintedCalls())
        out.push_back(diffRegion(prog, call.target, config, sabotage));
    return out;
}

} // namespace liquid
