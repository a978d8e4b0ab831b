/**
 * @file
 * Width-polymorphic verifier (liquid-poly) tests: the differential
 * exactness contract against the concrete verifier, the sabotage
 * self-test, validity-set rendering, the shared dependence scan
 * against two test-local references (an O(E^2) pair enumeration and a
 * direct per-group pair scan), and the liquid-verify-v3 JSON
 * back-compat guarantee for v2 consumers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "verifier/cfg.hh"
#include "verifier/poly.hh"
#include "verifier/verifier.hh"
#include "workloads/kernel_corpus.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/**
 * The random kernels the three differential sweeps below share, with
 * their corpus index; a kernel the scalarizer rejects is left out.
 */
std::vector<std::pair<unsigned, Program>>
randomPrograms()
{
    KernelCorpus corpus(0xC0FFEEull);
    Rng dataRng(0xF00Dull);
    std::vector<std::pair<unsigned, Program>> progs;
    for (unsigned i = 0; i < 25; ++i) {
        corpus.next();
        auto prog = corpus.build(dataRng, EmitOptions::Mode::Scalarized, 8);
        if (prog)
            progs.emplace_back(i, std::move(*prog));
    }
    return progs;
}

/** Mixed element sizes (ldh vs stw) give overlapping carried pairs at
 *  non-uniform distances — the dep-scan stressor. */
const char *kernMixedSrc =
    "        .data c 128\n"
    "kern_mixed:\n"
    "        mov r0, #0\n"
    "        mov r5, #5\n"
    "top:\n"
    "        ldh r1, [c + r5]\n"
    "        add r2, r1, #1\n"
    "        stw [c + r0], r2\n"
    "        add r5, r5, #1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #16\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_mixed\n"
    "        halt\n";

/** Trip count 24: not a multiple of 16, so the ladder's widest width
 *  aborts while 2/4/8 commit. */
const char *kernTrip24Src =
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18"
    " 19 20 21 22 23 24\n"
    "        .data a 96\n"
    "kern_trip24:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [x + r0]\n"
    "        add r2, r1, #1\n"
    "        stw [a + r0], r2\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #24\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_trip24\n"
    "        halt\n";

/** Period-2 read-only constant stream: the stream check binds N to
 *  the congruence 2 | N. */
const char *kernStreamSrc =
    "        .rowords kco 5 7 5 7 5 7 5 7 5 7 5 7 5 7 5 7\n"
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n"
    "        .data a 64\n"
    "kern_stream:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [kco + r0]\n"
    "        ldw r2, [x + r0]\n"
    "        add r3, r2, r1\n"
    "        stw [a + r0], r3\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #16\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_stream\n"
    "        halt\n";

const char *saxpySrc =
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18"
    " 19 20 21 22 23 24 25 26 27 28 29 30 31 32\n"
    "        .data a 128\n"
    "saxpy:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [x + r0]\n"
    "        mul r1, r1, #3\n"
    "        add r1, r1, #100\n"
    "        stw [a + r0], r1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #32\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd saxpy\n"
    "        halt\n";

/** Every iteration loads and stores the one cell `acc`, so every
 *  event pair overlaps and every cross-iteration load/store pair
 *  flips: the densest trace the dependence scan can meet. */
const char *kernMemReduceSrc =
    "        .words acc 0\n"
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n"
    "kern_memreduce:\n"
    "        mov r0, #0\n"
    "        mov r4, #0\n"
    "top:\n"
    "        ldw r1, [acc + r4]\n"
    "        ldw r2, [x + r0]\n"
    "        add r1, r1, r2\n"
    "        stw [acc + r4], r1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #16\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_memreduce\n"
    "        halt\n";

/** `c` sits one byte above `lo`, so each stw at c+4i is straddled by
 *  ldh loads at odd offsets from it. The first breaking pair is the
 *  first store against the next iteration's ldh, which starts one
 *  byte *below* the store: the scan has to look back by the loop's
 *  largest access size to find it. */
const char *kernStraddleSrc =
    "        .data lo 1 1\n"
    "        .data c 127 1\n"
    "kern_straddle:\n"
    "        mov r0, #1\n"
    "        mov r5, #1\n"
    "top:\n"
    "        ldh r1, [lo + r5]\n"
    "        add r2, r1, #1\n"
    "        stw [c + r0], r2\n"
    "        add r5, r5, #1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #17\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_straddle\n"
    "        halt\n";

std::vector<PolyDiff>
diffSource(const char *src, unsigned sabotage = 0)
{
    const Program prog = assemble(src);
    const TranslatorConfig config;
    return diffProgram(prog, config, sabotage);
}

unsigned
mismatchCount(const std::vector<PolyDiff> &diffs)
{
    unsigned n = 0;
    for (const PolyDiff &d : diffs)
        n += static_cast<unsigned>(d.mismatches.size());
    return n;
}

PolyRegion
analyzeSource(const char *src)
{
    const Program prog = assemble(src);
    const TranslatorConfig config;
    const auto calls = prog.hintedCalls();
    EXPECT_FALSE(calls.empty());
    return analyzePoly(prog, calls.front().target, config);
}

TEST(Poly, MiniKernelsDifferentialClean)
{
    for (const char *src : {kernMixedSrc, kernTrip24Src, kernStreamSrc,
                            saxpySrc, kernMemReduceSrc, kernStraddleSrc})
        EXPECT_EQ(mismatchCount(diffSource(src)), 0u);
}

TEST(Poly, SuiteDifferentialClean)
{
    const TranslatorConfig config;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const auto diffs = diffProgram(build.prog, config);
        EXPECT_EQ(mismatchCount(diffs), 0u) << wl->name();
    }
}

TEST(Poly, EverySabotageMutationDiverges)
{
    for (unsigned bit = 0; bit < polySabotageCount; ++bit) {
        unsigned total = 0;
        for (const char *src :
             {kernMixedSrc, kernTrip24Src, kernStreamSrc})
            total += mismatchCount(diffSource(src, 1u << bit));
        EXPECT_GT(total, 0u)
            << "mutation not caught: "
            << polySabotageName(static_cast<PolySabotage>(1u << bit));
    }
}

TEST(Poly, MixedElementSizesAreDepMiscompile)
{
    const PolyRegion r = analyzeSource(kernMixedSrc);
    // Overlapping ldh/stw with distance 1 breaks at every width.
    EXPECT_TRUE(r.validity.okWidths.empty());
    const PolyWidthOutcome o = r.instantiate(8);
    EXPECT_EQ(o.verdict, Severity::Error);
    EXPECT_TRUE(o.depMiscompile);
    EXPECT_EQ(o.reason, AbortReason::MemoryDependence);
    EXPECT_EQ(o.pair.distance, 1u);
    EXPECT_NE(r.validity.summary.find("error for all N"),
              std::string::npos)
        << r.validity.summary;
}

TEST(Poly, StreamPeriodBecomesCongruence)
{
    const PolyRegion r = analyzeSource(kernStreamSrc);
    EXPECT_TRUE(r.validity.structuralUnbounded);
    ASSERT_FALSE(r.validity.constraints.empty());
    bool period = false;
    for (const NConstraint &c : r.validity.constraints)
        period = period ||
                 c.render().find("2 | N") != std::string::npos;
    EXPECT_TRUE(period) << r.validity.summary;
    // Trip 16 with a period-2 stream: exactly the even divisors.
    EXPECT_EQ(r.validity.okWidths,
              (std::vector<unsigned>{2, 4, 8, 16}));
    // An odd width breaks the stream congruence (or divisibility).
    EXPECT_EQ(r.instantiate(3).verdict, Severity::Error);
}

TEST(Poly, TripDivisorsBoundTheValiditySet)
{
    const PolyRegion r = analyzeSource(kernTrip24Src);
    // Divisors of 24 at least 2.
    EXPECT_EQ(r.validity.okWidths,
              (std::vector<unsigned>{2, 3, 4, 6, 8, 12, 24}));
    EXPECT_TRUE(r.validity.okAt(12));
    EXPECT_FALSE(r.validity.okAt(16));
    const PolyWidthOutcome o = r.instantiate(16);
    EXPECT_EQ(o.verdict, Severity::Error);
    EXPECT_EQ(o.reason, AbortReason::TripCount);
    // The tail beyond the horizon is a constant trip-count error.
    EXPECT_EQ(r.validity.tail.verdict, Severity::Error);
    EXPECT_TRUE(r.validity.tailExact);
}

TEST(Poly, ElementwiseRegionIsStructurallyUnbounded)
{
    const PolyRegion r = analyzeSource(saxpySrc);
    EXPECT_TRUE(r.validity.structuralUnbounded);
    EXPECT_NE(r.validity.summary.find("safe for all N"),
              std::string::npos)
        << r.validity.summary;
}

TEST(Poly, OkAtAgreesWithInstantiate)
{
    for (const char *src : {kernTrip24Src, kernStreamSrc, saxpySrc}) {
        const PolyRegion r = analyzeSource(src);
        for (unsigned n = 2; n <= r.validity.horizon + 4; ++n) {
            EXPECT_EQ(r.validity.okAt(n),
                      r.instantiate(n).verdict == Severity::Ok)
                << "width " << n;
        }
    }
}

TEST(Poly, VerifyRegionAttachesValiditySet)
{
    const Program prog = assemble(saxpySrc);
    VerifyOptions opts;
    opts.poly = true;
    const ProgramReport rep = verifyProgram(prog, opts);
    ASSERT_EQ(rep.regions.size(), 1u);
    const RegionReport &r = rep.regions.front();
    EXPECT_TRUE(r.polyAnalyzed);
    EXPECT_TRUE(r.polyUnbounded);
    EXPECT_FALSE(r.polySummary.empty());
    EXPECT_FALSE(r.polyOkWidths.empty());
}

TEST(Poly, RandomKernelsDifferentialClean)
{
    const TranslatorConfig config;
    for (const auto &[i, prog] : randomPrograms()) {
        for (const PolyDiff &d : diffProgram(prog, config)) {
            for (const PolyMismatch &m : d.mismatches) {
                ADD_FAILURE()
                    << "kernel " << i << " region " << d.entryLabel
                    << " w" << m.width << " " << m.field
                    << ": concrete=" << m.expect << " poly=" << m.got;
            }
        }
    }
}

// ---- dependence scan against a brute-force oracle ---------------------

using EventPair = std::pair<const DepEvent *, const DepEvent *>;

bool
pairFlips(const DepEvent &a, const DepEvent &b)
{
    return (a.iter < b.iter && a.pos > b.pos) ||
           (b.iter < a.iter && b.pos > a.pos);
}

unsigned
pairDistance(const DepEvent &a, const DepEvent &b)
{
    return a.iter > b.iter ? a.iter - b.iter : b.iter - a.iter;
}

/**
 * Brute-force oracle for the dependence scan: every (store, partner)
 * pair of every loop, in the whole-loop enumeration order (loops, then
 * store events, then partners, all ascending), kept when the two
 * events overlap in different iterations. O(E^2) and independent of
 * the address index. `flipping` is the order-flipping subsequence.
 */
struct ScanOracle
{
    std::vector<EventPair> overlapping;
    std::vector<EventPair> flipping;

    explicit ScanOracle(const DepTrace &deps)
    {
        std::vector<std::vector<const DepEvent *>> perLoop(
            deps.loopsAnalyzed);
        for (const DepEvent &e : deps.events)
            perLoop[static_cast<std::size_t>(e.loop)].push_back(&e);
        for (const auto &evs : perLoop) {
            for (std::size_t i = 0; i < evs.size(); ++i) {
                const DepEvent &a = *evs[i];
                if (!a.isStore)
                    continue;
                for (std::size_t j = 0; j < evs.size(); ++j) {
                    const DepEvent &b = *evs[j];
                    if (i == j || (b.isStore && j < i) ||
                        a.iter == b.iter)
                        continue;
                    if (a.ea < b.ea + b.size && b.ea < a.ea + a.size)
                        overlapping.emplace_back(&a, &b);
                }
            }
        }
        for (const EventPair &p : overlapping) {
            if (pairFlips(*p.first, *p.second))
                flipping.push_back(p);
        }
    }

    /** First pair breaking at width @p n under sabotage @p mask. */
    const EventPair *
    hit(unsigned n, unsigned mask) const
    {
        const bool flipIgnore =
            (mask & static_cast<unsigned>(PolySabotage::FlipIgnore)) !=
            0;
        const bool groupCollide =
            (mask &
             static_cast<unsigned>(PolySabotage::GroupCollide)) != 0;
        for (const EventPair &p : flipIgnore ? overlapping : flipping) {
            const DepEvent &a = *p.first;
            const DepEvent &b = *p.second;
            if (groupCollide ? pairDistance(a, b) < n
                             : a.iter / n == b.iter / n)
                return &p;
        }
        return nullptr;
    }
};

/**
 * Check instantiate(n, mask)'s dependence verdict against the oracle
 * for every n in [2, horizon+1] and every sabotage mask. Returns the
 * (width, mask) points where the scan ran and the oracle found a
 * breaking pair, so a caller can insist the kernel reached the scan.
 */
unsigned
expectScanMatchesOracle(const PolyRegion &r, const std::string &what)
{
    if (!r.deps.analyzed || !r.deps.resolved)
        return 0;
    const ScanOracle oracle(r.deps);
    unsigned unsafe = 0;
    for (unsigned mask = 0; mask < (1u << polySabotageCount); ++mask) {
        for (unsigned n = 2; n <= r.validity.horizon + 1; ++n) {
            const PolyWidthOutcome o = r.instantiate(n, mask);
            if (!o.depRan)
                continue;
            const EventPair *hit = oracle.hit(n, mask);
            if (hit == nullptr) {
                EXPECT_EQ(o.depKind, WidthVerdict::Kind::Safe)
                    << what << " n=" << n << " mask=" << mask;
                continue;
            }
            ++unsafe;
            const DepEvent &a = *hit->first;
            const DepEvent &b = *hit->second;
            EXPECT_EQ(o.depKind, WidthVerdict::Kind::Unsafe)
                << what << " n=" << n << " mask=" << mask;
            EXPECT_EQ(o.pair.storeIndex, a.pos) << what << " n=" << n;
            EXPECT_EQ(o.pair.otherIndex, b.pos) << what << " n=" << n;
            EXPECT_EQ(o.pair.otherIsStore, b.isStore) << what;
            EXPECT_EQ(o.pair.distance, pairDistance(a, b))
                << what << " n=" << n;
            EXPECT_EQ(o.pair.addr, std::max(a.ea, b.ea))
                << what << " n=" << n << " mask=" << mask;
            EXPECT_EQ(o.pair.orderFlips, pairFlips(a, b)) << what;
        }
    }
    return unsafe;
}

/** analyzePoly over every distinct hinted region of @p prog. */
std::vector<PolyRegion>
analyzeRegions(const Program &prog)
{
    const TranslatorConfig config;
    std::vector<PolyRegion> out;
    for (const HintedCall &call : prog.hintedCalls())
        out.push_back(analyzePoly(prog, call.target, config));
    return out;
}

TEST(PolyDepScan, MiniKernelsMatchBruteForce)
{
    for (const char *src : {kernMixedSrc, kernTrip24Src, kernStreamSrc,
                            saxpySrc, kernStraddleSrc}) {
        const PolyRegion r = analyzeSource(src);
        expectScanMatchesOracle(r, r.entryLabel);
    }
}

TEST(PolyDepScan, StraddlingPartnerBelowTheStoreIsFound)
{
    const PolyRegion r = analyzeSource(kernStraddleSrc);
    EXPECT_GT(expectScanMatchesOracle(r, r.entryLabel), 0u);
    // First store (iteration 0) against the iteration-1 ldh that
    // starts one byte below it: the overlapping byte is the store's.
    const PolyWidthOutcome o = r.instantiate(2);
    ASSERT_TRUE(o.depRan);
    ASSERT_EQ(o.depKind, WidthVerdict::Kind::Unsafe);
    EXPECT_EQ(o.pair.distance, 1u);
    EXPECT_FALSE(o.pair.otherIsStore);
    const DepEvent *store = nullptr;
    for (const DepEvent &e : r.deps.events) {
        if (e.isStore) {
            store = &e;
            break;
        }
    }
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(o.pair.addr, store->ea);
    EXPECT_EQ(o.pair.storeIndex, store->pos);
}

TEST(PolyDepScan, DenseOverlapMatchesBruteForce)
{
    PolyRegion r = analyzeSource(kernMemReduceSrc);
    ASSERT_TRUE(r.deps.resolved);
    ASSERT_EQ(r.deps.events.size(), 3u * 16u);
    // The rules reject the same-cell accesses before the dependence
    // scan would run; graft the recorded trace onto an Ok walk so
    // instantiate runs the scan at every width. analyzePoly indexes
    // only traces its terminal lets through, so index this one here.
    EXPECT_EQ(r.terminal.verdict, Severity::Error);
    EXPECT_FALSE(r.deps.index.has_value());
    r.terminal = StaticOutcome{};
    r.events.clear();
    indexDeps(r.deps);
    EXPECT_GT(expectScanMatchesOracle(r, "memreduce"), 0u);
    // The first store flips against the next iteration's load of the
    // same cell, and the scan stops there at every width.
    for (unsigned n = 2; n <= r.validity.horizon + 1; ++n) {
        const PolyWidthOutcome o = r.instantiate(n);
        EXPECT_EQ(o.depKind, WidthVerdict::Kind::Unsafe);
        EXPECT_EQ(o.pair.distance, 1u);
        EXPECT_LE(o.pairsExamined, 3u) << "n=" << n;
    }
}

TEST(PolyDepScan, SuiteMatchesBruteForce)
{
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        for (const PolyRegion &r : analyzeRegions(build.prog))
            expectScanMatchesOracle(r, wl->name() + "/" + r.entryLabel);
    }
}

TEST(PolyDepScan, RandomKernelsMatchBruteForce)
{
    for (const auto &[i, prog] : randomPrograms()) {
        for (const PolyRegion &r : analyzeRegions(prog))
            expectScanMatchesOracle(
                r, "kernel " + std::to_string(i) + "/" + r.entryLabel);
    }
}

/**
 * The exact number of dependence pairs analyzePoly's scans visit over
 * the suite: only the overlapping partners of stores that overlap
 * another iteration. Enumerating every event pair of a loop at every
 * width would visit billions of pairs over these events and fail the
 * pin.
 */
TEST(PolyDepScan, SuitePairsExaminedIsPinned)
{
    std::uint64_t pairs = 0;
    std::uint64_t events = 0;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        for (const PolyRegion &r : analyzeRegions(build.prog)) {
            pairs += r.pairsExamined;
            events += r.deps.events.size();
        }
    }
    EXPECT_EQ(events, 124528u);
    EXPECT_EQ(pairs, 6258u);
}

// ---- analyzeDeps against a direct per-group scan ---------------------

/**
 * Reference for analyzeDeps: the group criterion scanned directly,
 * unbudgeted and without an index. For each width ascending, loops
 * ascending, each vector group's store events ascending against every
 * other event of the group ascending (store pairs once). It counts the overlapping
 * cross-iteration pairs it meets up to the first order-flipping one,
 * which makes the width Unsafe.
 */
struct GroupScan
{
    std::array<WidthVerdict, DepcheckResult::widths.size()> byWidth;
    unsigned carriedPairs = 0;
    unsigned minDistance = 0;

    explicit GroupScan(const DepTrace &trace)
    {
        std::vector<std::vector<const DepEvent *>> perLoop(
            trace.loopsAnalyzed);
        for (const DepEvent &e : trace.events)
            perLoop[static_cast<std::size_t>(e.loop)].push_back(&e);
        for (std::size_t wi = 0; wi < byWidth.size(); ++wi) {
            const unsigned width = DepcheckResult::widths[wi];
            WidthVerdict &verdict = byWidth[wi];
            verdict.kind = WidthVerdict::Kind::Safe;
            unsigned pairsThisWidth = 0;
            for (const auto &evs : perLoop) {
                std::size_t gBegin = 0;
                while (gBegin < evs.size() &&
                       verdict.kind == WidthVerdict::Kind::Safe) {
                    const unsigned group = evs[gBegin]->iter / width;
                    std::size_t gEnd = gBegin;
                    while (gEnd < evs.size() &&
                           evs[gEnd]->iter / width == group)
                        ++gEnd;
                    scanGroup(evs, gBegin, gEnd, verdict,
                              pairsThisWidth);
                    gBegin = gEnd;
                }
                if (verdict.kind != WidthVerdict::Kind::Safe)
                    break;
            }
            carriedPairs = std::max(carriedPairs, pairsThisWidth);
        }
    }

  private:
    void
    scanGroup(const std::vector<const DepEvent *> &evs,
              std::size_t gBegin, std::size_t gEnd, WidthVerdict &verdict,
              unsigned &pairs)
    {
        for (std::size_t i = gBegin; i < gEnd; ++i) {
            const DepEvent &a = *evs[i];
            if (!a.isStore)
                continue;
            for (std::size_t j = gBegin; j < gEnd; ++j) {
                const DepEvent &b = *evs[j];
                if (i == j || (b.isStore && j < i))
                    continue;
                if (!(a.ea < b.ea + b.size && b.ea < a.ea + a.size) ||
                    a.iter == b.iter)
                    continue;
                const unsigned dist = pairDistance(a, b);
                if (minDistance == 0 || dist < minDistance)
                    minDistance = dist;
                ++pairs;
                if (!pairFlips(a, b))
                    continue;
                verdict.kind = WidthVerdict::Kind::Unsafe;
                verdict.pair.storeIndex = a.pos;
                verdict.pair.otherIndex = b.pos;
                verdict.pair.otherIsStore = b.isStore;
                verdict.pair.distance = dist;
                verdict.pair.addr = std::max(a.ea, b.ea);
                verdict.pair.orderFlips = true;
                return;
            }
        }
    }
};

/**
 * analyzeDeps at the default budget against GroupScan on the same
 * trace, field by field. Returns 1 when the region's walk resolved a
 * loop (so the comparison ran), 0 otherwise.
 */
unsigned
expectDepsMatchGroupScan(const Program &prog, int entry,
                         const std::string &what)
{
    const RegionCfg cfg = RegionCfg::build(prog, entry);
    const DepcheckResult dep = analyzeDeps(prog, entry, cfg);
    const DepTrace trace = traceDeps(prog, entry, cfg);
    if (!trace.analyzed || !trace.resolved)
        return 0;
    const GroupScan ref(trace);
    EXPECT_EQ(dep.carriedPairs, ref.carriedPairs) << what;
    EXPECT_EQ(dep.minDistance, ref.minDistance) << what;
    for (std::size_t wi = 0; wi < ref.byWidth.size(); ++wi) {
        const WidthVerdict &got = dep.byWidth[wi];
        const WidthVerdict &want = ref.byWidth[wi];
        const unsigned w = DepcheckResult::widths[wi];
        EXPECT_EQ(got.kind, want.kind) << what << " w" << w;
        EXPECT_EQ(got.reason, want.reason) << what << " w" << w;
        EXPECT_EQ(got.pair.storeIndex, want.pair.storeIndex)
            << what << " w" << w;
        EXPECT_EQ(got.pair.otherIndex, want.pair.otherIndex)
            << what << " w" << w;
        EXPECT_EQ(got.pair.otherIsStore, want.pair.otherIsStore)
            << what << " w" << w;
        EXPECT_EQ(got.pair.distance, want.pair.distance)
            << what << " w" << w;
        EXPECT_EQ(got.pair.addr, want.pair.addr) << what << " w" << w;
        EXPECT_EQ(got.pair.orderFlips, want.pair.orderFlips)
            << what << " w" << w;
    }
    return 1;
}

/** expectDepsMatchGroupScan over every distinct hinted region. */
unsigned
expectProgramMatchesGroupScan(const Program &prog, const std::string &what)
{
    unsigned compared = 0;
    for (const HintedCall &call : prog.hintedCalls()) {
        compared += expectDepsMatchGroupScan(
            prog, call.target, what + "/" + prog.labelAt(call.target));
    }
    return compared;
}

TEST(DepcheckGroupScan, MiniKernelsMatch)
{
    unsigned compared = 0;
    for (const char *src : {kernMixedSrc, kernTrip24Src, kernStreamSrc,
                            saxpySrc, kernMemReduceSrc, kernStraddleSrc})
        compared += expectProgramMatchesGroupScan(assemble(src), "mini");
    EXPECT_EQ(compared, 6u);
}

TEST(DepcheckGroupScan, SuiteMatches)
{
    unsigned compared = 0;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        compared += expectProgramMatchesGroupScan(build.prog, wl->name());
    }
    EXPECT_GT(compared, 0u);
}

TEST(DepcheckGroupScan, RandomKernelsMatch)
{
    unsigned compared = 0;
    for (const auto &[i, prog] : randomPrograms()) {
        compared += expectProgramMatchesGroupScan(
            prog, "kernel " + std::to_string(i));
    }
    EXPECT_GT(compared, 0u);
}

/**
 * The exact number of pairs analyzeDeps charges to its budget over the
 * suite: the index build's overlapping partners plus each ladder
 * width's walk.
 */
TEST(DepcheckGroupScan, SuitePairsExaminedIsPinned)
{
    std::uint64_t pairs = 0;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const Program &prog = build.prog;
        for (const HintedCall &call : prog.hintedCalls()) {
            const RegionCfg cfg = RegionCfg::build(prog, call.target);
            pairs += analyzeDeps(prog, call.target, cfg).pairsExamined;
        }
    }
    EXPECT_EQ(pairs, 20090u);
}

// ---- hostile input: every store hits one cell -------------------------

/** @p trip stores to one cell; the rules reject the region with
 *  ivArithmetic (the index comes from `mul r2, r0, #0`). */
std::string
sameCellSrc(unsigned trip)
{
    return "        .data cell 4\n"
           "fn:\n"
           "        mov r0, #0\n"
           "top:\n"
           "        mul r2, r0, #0\n"
           "        stw [cell + r2], r0\n"
           "        add r0, r0, #1\n"
           "        cmp r0, #" + std::to_string(trip) + "\n"
           "        blt top\n"
           "        ret\n"
           "main:\n"
           "        bl.simd fn\n"
           "        halt\n";
}

TEST(PolyDepScan, RejectedRegionBuildsNoIndex)
{
    // Indexing 24000 same-cell stores visits every pair: seconds of
    // work the ivArithmetic verdict never reads.
    constexpr unsigned trip = 24000;
    const Program prog = assemble(sameCellSrc(trip));
    const PolyRegion r =
        analyzePoly(prog, prog.labelIndex("fn"), TranslatorConfig{});
    EXPECT_EQ(r.terminal.verdict, Severity::Error);
    EXPECT_EQ(r.terminal.reason, AbortReason::IvArithmetic);
    ASSERT_TRUE(r.deps.resolved);
    EXPECT_EQ(r.deps.events.size(), trip);
    EXPECT_FALSE(r.deps.index.has_value());
    EXPECT_EQ(r.pairsExamined, 0u);
}

TEST(DepcheckBudget, IndexBuildIsChargedToThePairBudget)
{
    // 200 same-cell stores: the index build alone visits 200 * 199
    // overlapping partners, so a smaller budget dies at width 2 before
    // any width is scanned.
    const Program prog = assemble(sameCellSrc(200));
    const int entry = prog.labelIndex("fn");
    const RegionCfg cfg = RegionCfg::build(prog, entry);
    DepcheckOptions opts;
    opts.pairBudget = 200 * 199 - 1;
    const DepcheckResult dep = analyzeDeps(prog, entry, cfg, opts);
    ASSERT_TRUE(dep.resolved);
    EXPECT_EQ(dep.verdictAt(2).reason, DepReason::PairBudgetAtWidth);
    for (const unsigned w : {4u, 8u, 16u})
        EXPECT_EQ(dep.verdictAt(w).reason, DepReason::PairBudgetBefore)
            << w;
    EXPECT_EQ(dep.pairsExamined, 200u * 199u);

    // With the build paid for, every width resolves: one instruction
    // stores every iteration, so each output pair runs in order.
    // Each width's walk skips the last store (no later partner).
    opts.pairBudget = 200 * 199 + 4 * 199 * 199;
    const DepcheckResult full = analyzeDeps(prog, entry, cfg, opts);
    for (const unsigned w : DepcheckResult::widths)
        EXPECT_TRUE(full.safeAt(w)) << w;
    EXPECT_EQ(full.pairsExamined, opts.pairBudget);
}

/**
 * liquid-verify-v3 is additive over v2: a consumer written against the
 * v2 layout must parse a v3 document without changes. This exercises a
 * strict v2 reader over a v3-shaped report (the layout regionJson in
 * tools/liquid_verify.cc emits, including the new validity object the
 * v2 reader must tolerate and ignore).
 */
TEST(Poly, VerifyV3JsonStaysParseableByV2Consumers)
{
    const char *v3doc = R"json({
      "schema": "liquid-verify-v3",
      "toolVersion": "3.0",
      "regions": [{
        "program": "saxpy.s",
        "entryLabel": "saxpy",
        "entryIndex": 0,
        "requestedWidth": 8,
        "widthHint": 0,
        "verdict": "ok",
        "predicted": {"width": 8, "ucodeInsts": 8, "cvecs": 0},
        "dep": {
          "analyzed": true,
          "resolved": true,
          "carriedPairs": 0,
          "minDistance": 0,
          "accesses": [],
          "byWidth": {"8": {"verdict": "safe"}}
        },
        "validity": {
          "summary": "safe for all N (observed trip: N | 32)",
          "structuralUnbounded": true,
          "okWidths": [2, 4, 8, 16],
          "constraints": []
        },
        "diags": []
      }],
      "summary": {"ok": 1, "warn": 0, "error": 0}
    })json";
    const json::Value root = json::parse(v3doc);

    // A v2 consumer reads exactly these fields, by these names.
    ASSERT_NE(root.find("schema"), nullptr);
    ASSERT_NE(root.find("regions"), nullptr);
    const json::Value &regions = *root.find("regions");
    ASSERT_EQ(regions.items().size(), 1u);
    const json::Value &region = regions.items().front();
    for (const char *field :
         {"program", "entryLabel", "entryIndex", "requestedWidth",
          "verdict", "predicted", "dep", "diags"})
        EXPECT_NE(region.find(field), nullptr) << field;
    EXPECT_EQ(region.find("verdict")->asString(), "ok");
    const json::Value &dep = *region.find("dep");
    EXPECT_NE(dep.find("byWidth"), nullptr);
    const json::Value &summary = *root.find("summary");
    EXPECT_NE(summary.find("ok"), nullptr);
    // And the v3 addition is present for consumers that want it.
    const json::Value *validity = region.find("validity");
    ASSERT_NE(validity, nullptr);
    EXPECT_NE(validity->find("summary"), nullptr);
    EXPECT_NE(validity->find("okWidths"), nullptr);
}

} // namespace
