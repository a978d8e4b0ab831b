#include "lab/predict.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "scalarizer/scalarizer.hh"

namespace liquid::lab
{

std::map<unsigned, double>
aggregateScanSpeedups(const ScanReport &report)
{
    std::map<unsigned, double> scalar;
    std::map<unsigned, double> simd;
    for (const ScanRegion &region : report.regions) {
        if (!region.candidate)
            continue;
        for (const WidthPrediction &p : region.predictions) {
            if (p.report.verdict != Severity::Ok)
                continue;
            scalar[p.requestedWidth] += p.report.predictedScalarCycles;
            simd[p.requestedWidth] += p.report.predictedSimdCycles;
        }
    }
    std::map<unsigned, double> out;
    for (const auto &[w, sc] : scalar) {
        const double sd = simd[w];
        if (sd > 0.0)
            out[w] = sc / sd;
    }
    return out;
}

std::map<unsigned, std::string>
aggregateScanProofs(const ScanReport &report)
{
    // Worst verdict wins: one refuted region poisons the width.
    auto rank = [](const std::string &v) {
        if (v == "refuted")
            return 2;
        if (v == "unknown")
            return 1;
        return 0;  // proved
    };
    std::map<unsigned, std::string> out;
    for (const ScanRegion &region : report.regions) {
        if (!region.candidate)
            continue;
        for (const WidthPrediction &p : region.predictions) {
            if (p.report.proofVerdict.empty())
                continue;
            const auto it = out.find(p.requestedWidth);
            if (it == out.end() ||
                rank(p.report.proofVerdict) > rank(it->second))
                out[p.requestedWidth] = p.report.proofVerdict;
        }
    }
    return out;
}

WorkloadPrediction
predictWorkload(const std::string &name, const ScanOptions &opts)
{
    const auto wl = makeWorkload(name, "predict: ");

    // Scalarized, hints stripped: the scan must rediscover the
    // regions from the bl/ret convention alone.
    const Workload::Build build =
        wl->build(EmitOptions::Mode::Scalarized, 8, /*hinted=*/false);

    WorkloadPrediction pred;
    pred.workload = name;
    const ScanReport rep = scanProgram(build.prog, opts);
    pred.speedupByWidth = aggregateScanSpeedups(rep);
    pred.proofByWidth = aggregateScanProofs(rep);
    return pred;
}

std::vector<WorkloadPrediction>
predictSuite(const ScanOptions &opts)
{
    std::vector<WorkloadPrediction> preds;
    for (const std::string &name : workloadNames())
        preds.push_back(predictWorkload(name, opts));
    return preds;
}

unsigned
tagPredictions(ResultSet &set,
               const std::vector<WorkloadPrediction> &preds)
{
    unsigned tagged = 0;
    for (JobResult &r : set.results()) {
        if (r.job.mode != ExecMode::Liquid)
            continue;
        for (const WorkloadPrediction &p : preds) {
            if (p.workload != r.job.workload)
                continue;
            auto it = p.speedupByWidth.find(r.job.width);
            if (it != p.speedupByWidth.end()) {
                r.predictedSpeedup = it->second;
                ++tagged;
            }
            auto pit = p.proofByWidth.find(r.job.width);
            if (pit != p.proofByWidth.end())
                r.predictedProof = pit->second;
        }
    }
    return tagged;
}

ValidationSummary
validatePredictions(const std::vector<WorkloadPrediction> &preds,
                    const ResultSet &measured)
{
    ValidationSummary out;

    for (const JobResult &r : measured.results()) {
        if (r.job.mode != ExecMode::Liquid || r.job.warmStart ||
            !(r.job.over == ConfigOverrides{}))
            continue;

        // Functional-tier rows have no cycle clock — joining them
        // would compare against an absent stat, not a zero. Reject
        // loudly instead of silently skipping.
        if (r.job.tier == fast::ExecTier::Functional) {
            ++out.rejectedFunctional;
            if (out.rejectedFunctionalKeys.size() < 4)
                out.rejectedFunctionalKeys.push_back(r.job.key());
            continue;
        }

        const WorkloadPrediction *pred = nullptr;
        for (const WorkloadPrediction &p : preds) {
            if (p.workload == r.job.workload)
                pred = &p;
        }
        if (!pred)
            continue;
        auto it = pred->speedupByWidth.find(r.job.width);
        if (it == pred->speedupByWidth.end())
            continue;

        // The scalar twin shares every key axis except mode/width;
        // tier is pinned to the cycle core so a functional-tier twin
        // can never sneak a zero-cycle denominator into the ratio.
        Job twin = r.job;
        twin.mode = ExecMode::ScalarBaseline;
        twin.width = 0;
        twin.warmStart = false;
        twin.tier = fast::ExecTier::Cycle;
        const JobResult *base = measured.find(twin.key());
        if (!base || r.outcome.cycles == 0 ||
            base->outcome.cycles == 0)
            continue;

        ValidationRow row;
        row.workload = r.job.workload;
        row.width = r.job.width;
        row.predicted = it->second;
        row.measured = static_cast<double>(base->outcome.cycles) /
                       static_cast<double>(r.outcome.cycles);
        row.jobKey = r.job.key();
        out.rows.push_back(std::move(row));
    }

    std::sort(out.rows.begin(), out.rows.end(),
              [](const ValidationRow &a, const ValidationRow &b) {
                  if (a.workload != b.workload)
                      return a.workload < b.workload;
                  return a.width < b.width;
              });

    double errSum = 0.0;
    for (const ValidationRow &row : out.rows) {
        const double err = std::fabs(row.predicted - row.measured);
        errSum += err;
        out.maxAbsError = std::max(out.maxAbsError, err);
    }
    if (!out.rows.empty())
        out.meanAbsError = errSum / static_cast<double>(out.rows.size());

    // Rank concordance per workload: a pair is discordant only when
    // both sides order the two widths strictly and oppositely. Ties
    // are common and meaningful (e.g. a width hint or trip count caps
    // the binding, so w8 and w16 measure identically) and never count
    // against agreement.
    constexpr double tol = 1e-6;
    for (std::size_t i = 0; i < out.rows.size(); ++i) {
        for (std::size_t j = i + 1; j < out.rows.size(); ++j) {
            const ValidationRow &a = out.rows[i];
            const ValidationRow &b = out.rows[j];
            if (a.workload != b.workload)
                continue;
            ++out.comparablePairs;
            const double dp = a.predicted - b.predicted;
            const double dm = a.measured - b.measured;
            if ((dp > tol && dm < -tol) || (dp < -tol && dm > tol))
                ++out.discordantPairs;
        }
    }
    return out;
}

json::Value
ValidationSummary::toJson() const
{
    json::Value v = json::Value::object();
    v.set("rankAgreement", rankAgreement());
    v.set("comparablePairs", comparablePairs);
    v.set("discordantPairs", discordantPairs);
    v.set("rejectedFunctional", rejectedFunctional);
    json::Value rejected = json::Value::array();
    for (const std::string &k : rejectedFunctionalKeys)
        rejected.push(k);
    v.set("rejectedFunctionalKeys", std::move(rejected));
    v.set("meanAbsError", meanAbsError);
    v.set("maxAbsError", maxAbsError);
    json::Value rowsJson = json::Value::array();
    for (const ValidationRow &row : rows) {
        json::Value r = json::Value::object();
        r.set("workload", row.workload);
        r.set("width", row.width);
        r.set("predicted", row.predicted);
        r.set("measured", row.measured);
        r.set("absError", std::fabs(row.predicted - row.measured));
        r.set("jobKey", row.jobKey);
        rowsJson.push(std::move(r));
    }
    v.set("rows", std::move(rowsJson));
    return v;
}

} // namespace liquid::lab
