#include "lab/lab.hh"

#include "common/logging.hh"
#include "fast/fast.hh"

namespace liquid::lab
{

namespace
{

/** Flatten StatGroups into the outcome's counter map. */
void
snapshot(const std::vector<const StatGroup *> &groups, RunOutcome &out)
{
    std::vector<std::pair<std::string, std::uint64_t>> entries;
    for (const StatGroup *group : groups) {
        for (const auto &[stat, value] : *group)
            entries.emplace_back(group->name() + '.' + stat, value);
    }
    out.counters.assign(std::move(entries));
}

RunOutcome
harvest(System &sys)
{
    RunOutcome out;
    out.cycles = sys.cycles();
    out.ucodeDispatches = sys.core().stats().get("ucodeDispatches");
    std::vector<const StatGroup *> groups = {
        &sys.core().stats(), &sys.core().icache().stats(),
        &sys.core().dcache().stats()};
    if (sys.config().mode == ExecMode::Liquid) {
        out.translations = sys.translator().stats().get("translations");
        out.aborts = sys.translator().stats().get("aborts");
        out.retranslations =
            sys.translator().stats().get("retranslations");
        groups.push_back(&sys.translator().stats());
        groups.push_back(&sys.ucodeCache().stats());
    }
    snapshot(groups, out);
    out.callLog = sys.core().takeCallLog();
    return out;
}

/** Emission mode matching an execution mode. */
EmitOptions::Mode
buildMode(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline:
        return EmitOptions::Mode::InlineScalar;
      case ExecMode::Liquid:
        return EmitOptions::Mode::Scalarized;
      case ExecMode::NativeSimd:
        return EmitOptions::Mode::Native;
    }
    panic("unknown ExecMode");
}

/**
 * Functional-tier job execution: run the functional interpreter
 * (fast/fast.hh) instead of a System. Retire-keyed fault events still
 * fire; everything cycle-shaped is absent from the outcome
 * (hasCycles = false), not zero.
 */
RunOutcome
runFunctional(const Job &job, const Workload::Build &build)
{
    if (job.mode == ExecMode::Liquid)
        fatal("lab: job '", job.key(),
              "': the functional tier has no translator or microcode "
              "cache; liquid mode requires the cycle tier");
    if (job.warmStart)
        fatal("lab: job '", job.key(),
              "': warm-start models microcode-cache residency, which "
              "the functional tier does not have");

    const SystemConfig config = job.config();
    fast::FastConfig fc;
    fc.simdWidth = config.core.simdWidth;
    fc.faults = config.core.faults;  // pN rejected by FastInterp
    fc.maxInsts = config.core.maxInsts;

    MainMemory mem = MainMemory::forProgram(build.prog);
    fast::FastInterp interp(fc, build.prog, mem);
    interp.run();

    RunOutcome out;
    out.hasCycles = false;
    snapshot({&interp.stats()}, out);
    return out;
}

} // namespace

RunOutcome
runOnce(const Workload::Build &build, const SystemConfig &config)
{
    System sys(config, build.prog);
    sys.run();
    return harvest(sys);
}

Workload::Build
buildJob(const Job &job)
{
    std::unique_ptr<Workload> wl;
    for (auto &candidate : makeSuite()) {
        if (candidate->name() == job.workload)
            wl = std::move(candidate);
    }
    if (!wl)
        fatal("lab: unknown workload '", job.workload, "'");
    if (job.repsOverride)
        wl->setReps(job.repsOverride);
    return wl->build(buildMode(job.mode), job.width ? job.width : 8);
}

RunOutcome
runBuilt(const Job &job, const Workload::Build &build)
{
    if (job.tier == fast::ExecTier::Functional)
        return runFunctional(job, build);

    const SystemConfig config = job.config();

    if (!job.warmStart)
        return runOnce(build, config);

    // Figure 6 callout: model built-in ISA support by warm-starting
    // the microcode cache from a first translating run, so the second
    // run dispatches SIMD from the very first call.
    LIQUID_ASSERT(config.mode == ExecMode::Liquid,
                  "warmStart requires Liquid mode");
    System warmup(config, build.prog);
    warmup.run();
    System ideal(config, build.prog);
    ideal.ucodeCache().warmStartFrom(warmup.ucodeCache());
    ideal.run();
    return harvest(ideal);
}

RunOutcome
runJob(const Job &job)
{
    return runBuilt(job, buildJob(job));
}

} // namespace liquid::lab
