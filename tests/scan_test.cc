/**
 * @file
 * liquid-scan tests: whole-binary region discovery with no scalarizer
 * metadata, the region-boundary liveness contract, per-width
 * predictions (cross-checked against verifyRegion), the golden suite
 * rediscovery property, and the prediction-vs-measurement join with
 * the fig6 baseline (rank-order agreement — the ISSUE's acceptance
 * criterion).
 */

#include <gtest/gtest.h>

#include <set>

#include "asm/assembler.hh"
#include "lab/predict.hh"
#include "verifier/scan.hh"
#include "workloads/workload.hh"

#ifndef LIQUID_SOURCE_DIR
#define LIQUID_SOURCE_DIR "."
#endif

namespace liquid
{
namespace
{

using lab::aggregateScanSpeedups;
using lab::predictSuite;
using lab::validatePredictions;
using lab::ValidationSummary;
using lab::WorkloadPrediction;

const char *copyLoop = R"(
    .words src 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    .data dst 64
    fn:
        mov r0, #0
    top:
        ldw r1, [src + r0]
        add r1, r1, #100
        stw [dst + r0], r1
        add r0, r0, #1
        cmp r0, #16
        blt top
        ret
    main:
        bl fn
        halt
)";

TEST(Scan, DiscoversUnhintedFunction)
{
    // A plain bl, no .simd hint: the scan must still find the region.
    const Program prog = assemble(copyLoop);
    EXPECT_TRUE(prog.hintedCalls().empty());

    const ScanReport rep = scanProgram(prog, ScanOptions{});
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    EXPECT_EQ(r.entryIndex, prog.labelIndex("fn"));
    EXPECT_EQ(r.entryLabel, "fn");
    EXPECT_EQ(r.callSites, 1u);
    EXPECT_FALSE(r.hinted);
    EXPECT_TRUE(r.hasLoop);
    EXPECT_TRUE(r.candidate);
    EXPECT_EQ(r.contractVerdict, Severity::Ok);
    EXPECT_TRUE(r.liveIn.empty());
    EXPECT_EQ(r.ivRegs.str(), "r0");
    EXPECT_EQ(r.overallVerdict(), Severity::Ok);
    EXPECT_EQ(rep.candidateCount(), 1u);
    EXPECT_FALSE(rep.anyError());
}

TEST(Scan, PredictionsMatchVerifyRegion)
{
    // The scan's per-width prediction is exactly a hint-less
    // verifyRegion call at that width.
    const Program prog = assemble(copyLoop);
    ScanOptions opts;
    opts.widths = {2, 8};
    const ScanReport rep = scanProgram(prog, opts);
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    ASSERT_EQ(r.predictions.size(), 2u);

    for (const WidthPrediction &p : r.predictions) {
        VerifyOptions vopts;
        vopts.config.simdWidth = p.requestedWidth;
        const RegionReport ref =
            verifyRegion(prog, r.entryIndex, vopts, 0);
        EXPECT_EQ(p.report.verdict, ref.verdict);
        EXPECT_EQ(p.report.predictedWidth, ref.predictedWidth);
        EXPECT_DOUBLE_EQ(p.report.predictedSpeedup,
                         ref.predictedSpeedup);
    }
    // Best = the widest committed width here.
    EXPECT_EQ(r.bestWidth, 8u);
    EXPECT_GT(r.bestSpeedup, 4.0);
}

TEST(Scan, ScalarLiveInWarnsNotSelfContained)
{
    const Program prog = assemble(R"(
        .words src 1 2 3 4 5 6 7 8
        .data dst 32
        fn:
            mov r0, #0
        top:
            ldw r1, [src + r0]
            add r1, r1, r7
            stw [dst + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl fn
            halt
    )");
    const ScanReport rep = scanProgram(prog, ScanOptions{});
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    EXPECT_TRUE(r.liveIn.contains(RegId(RegClass::Int, 7)));
    EXPECT_EQ(r.contractVerdict, Severity::Warn);
    EXPECT_TRUE(r.candidate);
    bool found = false;
    for (const Diagnostic &d : r.contractDiags) {
        if (d.message.find("not self-contained") != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Scan, LooplessFunctionIsWarnAnnotatedNonCandidate)
{
    const Program prog = assemble(R"(
        fn:
            mov r1, #1
            ret
        main:
            bl fn
            halt
    )");
    const ScanReport rep = scanProgram(prog, ScanOptions{});
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    EXPECT_FALSE(r.hasLoop);
    EXPECT_FALSE(r.candidate);
    EXPECT_EQ(r.overallVerdict(), Severity::Warn);
    EXPECT_TRUE(r.predictions.empty());
}

TEST(Scan, IrreducibleLoopIsError)
{
    const Program prog = assemble(R"(
        fn:
            cmp r1, #0
            beq inside
        head:
            nop
        inside:
            add r2, r2, #1
            cmp r2, #10
            blt head
            ret
        main:
            bl fn
            halt
    )");
    const ScanReport rep = scanProgram(prog, ScanOptions{});
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    EXPECT_TRUE(r.irreducible);
    EXPECT_EQ(r.contractVerdict, Severity::Error);
    EXPECT_FALSE(r.candidate);
    EXPECT_TRUE(rep.anyError());
}

TEST(Scan, SpillLikeTrafficInLoopBodyWarns)
{
    const Program prog = assemble(R"(
        .words src 1 2 3 4 5 6 7 8
        .data tmp 4
        fn:
            mov r0, #0
        top:
            ldw r1, [src + r0]
            stw [tmp], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl fn
            halt
    )");
    ScanOptions opts;
    opts.predict = false;
    const ScanReport rep = scanProgram(prog, opts);
    ASSERT_EQ(rep.regions.size(), 1u);
    bool found = false;
    for (const Diagnostic &d : rep.regions[0].contractDiags) {
        if (d.message.find("spill-like") != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(rep.regions[0].contractVerdict, Severity::Warn);
}

TEST(Scan, InductionVariableEscapeWarns)
{
    // The caller reads the IV r0 after the bl: the region leaks its
    // induction variable.
    const Program prog = assemble(R"(
        .words src 1 2 3 4 5 6 7 8
        .data out 4
        fn:
            mov r0, #0
        top:
            add r1, r1, r0
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl fn
            stw [out], r0
            halt
    )");
    const ScanReport rep = scanProgram(prog, ScanOptions{});
    ASSERT_EQ(rep.regions.size(), 1u);
    const ScanRegion &r = rep.regions[0];
    EXPECT_TRUE(r.liveOutDemanded.contains(RegId(RegClass::Int, 0)));
    bool found = false;
    for (const Diagnostic &d : r.contractDiags) {
        if (d.message.find("escapes the region") != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found);
}

// ---- golden suite rediscovery (acceptance criterion) -----------------

TEST(ScanGolden, SuiteRediscoversExactlyTheScalarizerRegions)
{
    for (const auto &wl : makeSuite()) {
        SCOPED_TRACE(wl->name());
        const Workload::Build hinted =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const Workload::Build plain =
            wl->build(EmitOptions::Mode::Scalarized, 8, false);

        // Identical layout, no metadata in the plain build.
        ASSERT_EQ(hinted.prog.code().size(), plain.prog.code().size());
        EXPECT_TRUE(plain.prog.hintedCalls().empty());

        std::set<int> expected;
        for (const HintedCall &call : hinted.prog.hintedCalls())
            expected.insert(call.target);
        ASSERT_FALSE(expected.empty());

        ScanOptions opts;
        opts.predict = false;
        const ScanReport rep = scanProgram(plain.prog, opts);

        std::set<int> candidates;
        for (const ScanRegion &r : rep.regions) {
            EXPECT_FALSE(r.hinted);
            if (r.candidate) {
                candidates.insert(r.entryIndex);
            } else {
                // Extra discoveries must be Warn-annotated, never
                // silently dropped and never fatal.
                EXPECT_EQ(r.overallVerdict(), Severity::Warn);
                EXPECT_FALSE(r.contractDiags.empty());
            }
        }

        // 100% rediscovery: every scalarizer region is a candidate...
        for (const int entry : expected)
            EXPECT_TRUE(candidates.count(entry))
                << "missed scalarizer region at inst " << entry;
        // ...and nothing else is.
        for (const int entry : candidates)
            EXPECT_TRUE(expected.count(entry))
                << "phantom candidate at inst " << entry;
    }
}

// ---- prediction aggregation and the lab join -------------------------

TEST(ScanPredict, AggregateSpeedupsSumCostOverRegions)
{
    ScanReport rep;
    auto mkRegion = [](double scalar, double simd, unsigned w) {
        ScanRegion r;
        r.candidate = true;
        WidthPrediction p;
        p.requestedWidth = w;
        p.report.verdict = Severity::Ok;
        p.report.predictedScalarCycles = scalar;
        p.report.predictedSimdCycles = simd;
        r.predictions.push_back(p);
        return r;
    };
    rep.regions.push_back(mkRegion(300, 100, 4));
    rep.regions.push_back(mkRegion(100, 100, 4));
    // Non-candidates never contribute.
    ScanRegion dud = mkRegion(1000, 1, 4);
    dud.candidate = false;
    rep.regions.push_back(dud);

    const auto agg = aggregateScanSpeedups(rep);
    ASSERT_EQ(agg.size(), 1u);
    EXPECT_DOUBLE_EQ(agg.at(4), 400.0 / 200.0);
}

lab::JobResult
makeResult(const std::string &wl, ExecMode mode, unsigned width,
           Cycles cycles)
{
    lab::JobResult r;
    r.job.experiment = "fig6";
    r.job.workload = wl;
    r.job.mode = mode;
    r.job.width = width;
    r.outcome.cycles = cycles;
    return r;
}

TEST(ScanPredict, ValidationJoinsAndScoresConcordance)
{
    lab::ResultSet measured;
    measured.add(makeResult("wl", ExecMode::ScalarBaseline, 0, 1000));
    measured.add(makeResult("wl", ExecMode::Liquid, 2, 500));
    measured.add(makeResult("wl", ExecMode::Liquid, 4, 250));

    WorkloadPrediction pred;
    pred.workload = "wl";
    pred.speedupByWidth = {{2, 2.1}, {4, 3.9}};

    const ValidationSummary ok = validatePredictions({pred}, measured);
    ASSERT_EQ(ok.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(ok.rows[0].measured, 2.0);
    EXPECT_DOUBLE_EQ(ok.rows[1].measured, 4.0);
    EXPECT_EQ(ok.comparablePairs, 1u);
    EXPECT_EQ(ok.discordantPairs, 0u);
    EXPECT_TRUE(ok.rankAgreement());
    EXPECT_NEAR(ok.meanAbsError, 0.1, 1e-9);

    // Swap the prediction order: the one pair becomes discordant.
    pred.speedupByWidth = {{2, 3.9}, {4, 2.1}};
    const ValidationSummary bad =
        validatePredictions({pred}, measured);
    EXPECT_EQ(bad.discordantPairs, 1u);
    EXPECT_FALSE(bad.rankAgreement());

    // A measured tie never counts against agreement (width hints cap
    // the binding, so equal cycles across widths are routine).
    measured.results()[2].outcome.cycles = 500;
    const ValidationSummary tie =
        validatePredictions({pred}, measured);
    EXPECT_EQ(tie.discordantPairs, 0u);
}

TEST(ScanPredict, ValidationRejectsFunctionalTierRows)
{
    lab::ResultSet measured;
    measured.add(makeResult("wl", ExecMode::ScalarBaseline, 0, 1000));
    measured.add(makeResult("wl", ExecMode::Liquid, 2, 500));
    // A functional-tier row carries no cycle clock: joining it would
    // compare against an absent stat. It must be rejected loudly, not
    // silently skipped (and never divide by its zero cycles).
    lab::JobResult fun = makeResult("wl", ExecMode::Liquid, 4, 0);
    fun.job.tier = fast::ExecTier::Functional;
    measured.add(fun);

    WorkloadPrediction pred;
    pred.workload = "wl";
    pred.speedupByWidth = {{2, 2.1}, {4, 3.9}};

    const ValidationSummary s = validatePredictions({pred}, measured);
    EXPECT_EQ(s.rejectedFunctional, 1u);
    ASSERT_EQ(s.rejectedFunctionalKeys.size(), 1u);
    EXPECT_NE(s.rejectedFunctionalKeys[0].find("fun"),
              std::string::npos)
        << s.rejectedFunctionalKeys[0];
    // Only the cycle-tier width-2 row joins.
    ASSERT_EQ(s.rows.size(), 1u);
    EXPECT_EQ(s.rows[0].width, 2u);
    EXPECT_DOUBLE_EQ(s.rows[0].measured, 2.0);
}

TEST(ScanPredict, TagPredictionsRoundTripsThroughJson)
{
    lab::ResultSet set;
    set.add(makeResult("wl", ExecMode::ScalarBaseline, 0, 1000));
    set.add(makeResult("wl", ExecMode::Liquid, 8, 125));

    WorkloadPrediction pred;
    pred.workload = "wl";
    pred.speedupByWidth = {{8, 7.5}};
    EXPECT_EQ(lab::tagPredictions(set, {pred}), 1u);
    EXPECT_DOUBLE_EQ(set.results()[1].predictedSpeedup, 7.5);
    EXPECT_DOUBLE_EQ(set.results()[0].predictedSpeedup, 0.0);

    set.sortByKey();
    const lab::ResultSet back =
        lab::ResultSet::fromJson(json::parse(set.writeString()));
    const lab::JobResult *liquid =
        back.find("fig6/wl/liquid/w8");
    ASSERT_NE(liquid, nullptr);
    EXPECT_DOUBLE_EQ(liquid->predictedSpeedup, 7.5);
    const lab::JobResult *scalar = back.find("fig6/wl/scalar");
    ASSERT_NE(scalar, nullptr);
    EXPECT_DOUBLE_EQ(scalar->predictedSpeedup, 0.0);
}

// ---- the acceptance criterion: ranks agree with the fig6 baseline ----

TEST(ScanValidate, RankOrderAgreesWithMeasuredFig6Baseline)
{
    const lab::ResultSet measured = lab::ResultSet::readFile(
        std::string(LIQUID_SOURCE_DIR) +
        "/bench/baseline/BENCH_fig6.json");
    const std::vector<WorkloadPrediction> preds =
        predictSuite(ScanOptions{});
    EXPECT_EQ(preds.size(), workloadNames().size());

    const ValidationSummary v = validatePredictions(preds, measured);
    // 15 workloads x 4 widths joined, every same-workload pair ranked.
    EXPECT_EQ(v.rows.size(), 60u);
    EXPECT_EQ(v.comparablePairs, 90u);
    EXPECT_EQ(v.discordantPairs, 0u);
    EXPECT_TRUE(v.rankAgreement());
    // Absolute error is reported, not gated: predictions are
    // region-level, measurements program-level (Amdahl dilution).
    EXPECT_GT(v.meanAbsError, 0.0);

    const json::Value j = v.toJson();
    EXPECT_TRUE(j.at("rankAgreement").asBool());
    EXPECT_EQ(j.at("rows").items().size(), 60u);
}

} // namespace
} // namespace liquid
