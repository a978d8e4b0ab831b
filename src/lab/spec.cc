#include "lab/spec.hh"

#include <set>

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace liquid::lab
{

std::uint64_t
fnv1a(const std::string &text, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

const char *
modeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline:
        return "scalar";
      case ExecMode::Liquid:
        return "liquid";
      case ExecMode::NativeSimd:
        return "native";
    }
    panic("unknown ExecMode");
}

ExecMode
modeFromName(const std::string &name)
{
    if (name == "scalar")
        return ExecMode::ScalarBaseline;
    if (name == "liquid")
        return ExecMode::Liquid;
    if (name == "native")
        return ExecMode::NativeSimd;
    fatal("unknown execution mode '", name, "'");
}

std::string
ConfigOverrides::tag() const
{
    std::string t;
    if (ucodeEntries)
        t += "/e" + std::to_string(*ucodeEntries);
    if (translatorLatency)
        t += "/lat" + std::to_string(*translatorLatency);
    if (dcacheSizeBytes)
        t += "/dc" + std::to_string(*dcacheSizeBytes);
    if (dcacheAssoc)
        t += "/da" + std::to_string(*dcacheAssoc);
    // Schedule keys are path-safe and '/'-free by construction, so the
    // job key stays parseable.
    if (faults)
        t += "/f" + *faults;
    return t;
}

void
ConfigOverrides::applyTo(SystemConfig &config) const
{
    if (ucodeEntries)
        config.ucodeCache.entries = *ucodeEntries;
    if (translatorLatency)
        config.translator.latencyPerInst = *translatorLatency;
    if (dcacheSizeBytes)
        config.core.dcache.sizeBytes = *dcacheSizeBytes;
    if (dcacheAssoc)
        config.core.dcache.assoc = *dcacheAssoc;
    if (faults)
        config.core.faults = FaultSchedule::parse(*faults);
}

std::string
Job::key() const
{
    std::string k = experiment + '/' + workload + '/' + modeName(mode);
    if (mode != ExecMode::ScalarBaseline)
        k += "/w" + std::to_string(width);
    // The cycle tier is the historic default and stays untagged so
    // every pre-tier job key (and baseline file) remains valid.
    if (tier == fast::ExecTier::Functional)
        k += "/fun";
    k += over.tag();
    if (repsOverride)
        k += "/reps" + std::to_string(repsOverride);
    if (warmStart)
        k += "/ideal";
    return k;
}

SystemConfig
Job::config() const
{
    SystemConfig config = SystemConfig::make(mode, width);
    over.applyTo(config);
    return config;
}

std::vector<Job>
ExperimentSpec::expand() const
{
    const std::vector<std::string> wls =
        workloads.empty() ? workloadNames() : workloads;
    const std::vector<ConfigOverrides> overs =
        overrides.empty() ? std::vector<ConfigOverrides>{{}} : overrides;
    const std::vector<unsigned> reps =
        repsList.empty() ? std::vector<unsigned>{0} : repsList;

    std::vector<Job> jobs;
    std::set<std::string> seen;
    auto add = [&](Job job) {
        if (seen.insert(job.key()).second)
            jobs.push_back(std::move(job));
    };

    for (const auto &wl : wls) {
        for (const auto &over : overs) {
            for (unsigned rep : reps) {
                for (ExecMode mode : modes) {
                    // The baseline has no accelerator: the width axis
                    // collapses to one job recorded at width 0.
                    const std::vector<unsigned> ws =
                        mode == ExecMode::ScalarBaseline
                            ? std::vector<unsigned>{0}
                            : widths;
                    for (unsigned w : ws) {
                        for (fast::ExecTier tier : tiers) {
                            // The functional interpreter has neither a
                            // translator nor a microcode cache: Liquid
                            // mode exists only on the cycle tier.
                            if (tier == fast::ExecTier::Functional &&
                                mode == ExecMode::Liquid)
                                continue;
                            Job job;
                            job.experiment = name;
                            job.workload = wl;
                            job.mode = mode;
                            job.width = w;
                            job.repsOverride = rep;
                            job.tier = tier;
                            job.over = over;
                            add(std::move(job));
                        }
                    }
                }
                if (includeIdeal) {
                    Job job;
                    job.experiment = name;
                    job.workload = wl;
                    job.mode = ExecMode::Liquid;
                    job.width = idealWidth;
                    job.repsOverride = rep;
                    job.warmStart = true;
                    job.over = over;
                    add(std::move(job));
                }
            }
        }
    }
    return jobs;
}

std::vector<Job>
ExperimentMatrix::expand() const
{
    std::vector<Job> jobs;
    std::set<std::string> seen;
    for (const auto &spec : specs) {
        for (auto &job : spec.expand()) {
            if (seen.insert(job.key()).second)
                jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace liquid::lab
