#include "verifier/diagnostics.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace liquid
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Ok: return "ok";
      case Severity::Warn: return "warn";
      case Severity::Error: return "error";
    }
    return "?";
}

bool
ProgramReport::anyError() const
{
    return std::any_of(regions.begin(), regions.end(),
                       [](const RegionReport &r) {
                           return r.verdict == Severity::Error;
                       });
}

std::string
formatRegionReport(const RegionReport &report)
{
    std::ostringstream os;
    os << "region ";
    if (!report.entryLabel.empty())
        os << report.entryLabel;
    else
        os << "@" << report.entryIndex;
    os << " [inst " << report.entryIndex << "]: "
       << severityName(report.verdict);

    switch (report.verdict) {
      case Severity::Ok:
        os << " (width " << report.predictedWidth << ", "
           << report.predictedUcode << " ucode insts";
        if (report.predictedCvecs)
            os << ", " << report.predictedCvecs << " cvecs";
        os << ")";
        break;
      case Severity::Error:
        os << " (" << abortReasonName(report.reason) << " ["
           << reasonClassName(abortReasonClass(report.reason)) << "])";
        if (report.depMiscompile)
            os << " [silent miscompile: translator commits]";
        break;
      case Severity::Warn:
        break;
    }
    os << "  blocks=" << report.blockCount
       << " loops=" << report.loopCount
       << " analyzed=" << report.analyzedInsts << '\n';

    if (report.verdict == Severity::Ok && report.predictedSpeedup > 0) {
        os << "  cost: scalar " << report.predictedScalarCycles
           << " cyc, simd " << report.predictedSimdCycles
           << " cyc, speedup " << std::fixed << std::setprecision(2)
           << report.predictedSpeedup << "x\n";
        os.unsetf(std::ios::fixed);
    }
    if (report.depAnalyzed && report.dep.analyzed &&
        report.verdict == Severity::Ok && report.predictedWidth) {
        os << "  dep: " << report.dep.proofSummary(report.predictedWidth)
           << '\n';
    }
    if (!report.proofVerdict.empty()) {
        os << "  proof: " << report.proofVerdict << " ("
           << report.proofSummary << ")\n";
    }
    if (report.polyAnalyzed) {
        os << "  validity: " << report.polySummary << '\n';
    }
    if (!report.rangeFacts.empty()) {
        os << "  range: " << report.rangeFacts.size()
           << " entry fact(s) consumed\n";
    }

    for (const Diagnostic &d : report.diags) {
        os << "  " << severityName(d.severity);
        if (d.severity == Severity::Error)
            os << "[" << abortReasonName(d.reason) << "]";
        if (d.instIndex >= 0)
            os << " at inst " << d.instIndex;
        os << ": " << d.message << '\n';
    }
    return os.str();
}

} // namespace liquid
