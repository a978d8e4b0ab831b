#include "chaos/oracle.hh"

#include <algorithm>
#include <sstream>

#include "asm/program.hh"
#include "common/logging.hh"
#include "memory/ucode_cache.hh"
#include "sim/system.hh"

namespace liquid
{

namespace
{

/** Cap per-category mismatch listings; the first few localize a bug. */
constexpr std::size_t maxDiffsPerCategory = 4;

ArchSnapshot
snapshotSystem(const System &sys, const Program &prog,
               const std::map<Addr, std::vector<Cycles>> &call_log)
{
    ArchSnapshot snap;
    const std::size_t bytes = prog.dataImage().size();
    snap.memory.reserve(bytes / 4 + 1);
    for (std::size_t off = 0; off + 4 <= bytes; off += 4)
        snap.memory.push_back(sys.memory().readWord(Program::dataBase + off));

    const RegFile &regs = sys.core().regs();
    for (unsigned i = 0; i < regsPerClass; ++i) {
        snap.scalars[i] = regs.read(RegId(RegClass::Int, i));
        snap.scalars[regsPerClass + i] =
            regs.read(RegId(RegClass::Flt, i));
    }
    snap.cmpState = regs.cmpState();

    for (const auto &[target, calls] : call_log)
        snap.callCounts[target] = calls.size();
    return snap;
}

std::string
hex(Word w)
{
    std::ostringstream os;
    os << "0x" << std::hex << w;
    return os.str();
}

/**
 * Shared Liquid-run-and-compare tail: run @p prog under @p config
 * (optionally with @p inject pre-seeded into the microcode cache,
 * ready at cycle 0) and diff the masked final state against @p ref.
 */
ChaosReport
runLiquidAgainstReference(const ChaosReference &ref, const Program &prog,
                          SystemConfig config, const UcodeEntry *inject)
{
    // Watchdog: a fault schedule may only slow a correct core down by
    // re-translations and scalar fallback, never unboundedly. A run
    // that retires vastly more instructions than the scalar reference
    // is livelocked (e.g. a broken fallback dropped a loop live-out),
    // which the oracle must report as divergence, not hang on.
    config.core.maxInsts = std::max<std::uint64_t>(
        ref.instsRetired * 64 + 10'000, 100'000);

    System sys(config, prog);
    if (inject) {
        UcodeEntry entry = *inject;
        entry.readyAt = 0;
        sys.ucodeCache().insert(std::move(entry));
    }

    ChaosReport report;
    try {
        sys.run();
    } catch (const PanicError &e) {
        report.mismatches.push_back(
            std::string("run did not complete: ") + e.what());
    } catch (const FatalError &e) {
        // The reference run completed, so a stray memory access or a
        // tripped watchdog here is the faulted run's divergence, not a
        // user error.
        report.mismatches.push_back(
            std::string("run did not complete: ") + e.what());
    }
    report.cycles = sys.cycles();
    for (const auto &[stat, value] : sys.core().stats()) {
        if (stat.rfind("faults.", 0) == 0)
            report.faultsFired += value;
    }
    report.retranslations = sys.translator().stats().get("retranslations");
    report.translations = sys.translator().stats().get("translations");

    report.finalState = snapshotSystem(sys, prog, sys.core().callLog());

    // Memory and call-log shape must match the scalar ground truth bit
    // for bit; register residue is excluded from the cross-strategy
    // contract (see the file header) by masking it to the reference.
    ArchSnapshot masked = report.finalState;
    masked.scalars = ref.snapshot.scalars;
    masked.cmpState = ref.snapshot.cmpState;

    for (auto &m : masked.diff(ref.snapshot))
        report.mismatches.push_back(std::move(m));
    report.equal = report.mismatches.empty();
    return report;
}

} // namespace

bool
ArchSnapshot::operator==(const ArchSnapshot &o) const
{
    return memory == o.memory && scalars == o.scalars &&
           cmpState == o.cmpState && callCounts == o.callCounts;
}

std::vector<std::string>
ArchSnapshot::diff(const ArchSnapshot &other) const
{
    std::vector<std::string> out;

    if (memory.size() != other.memory.size()) {
        out.push_back("memory image size " +
                      std::to_string(memory.size() * 4) + " vs " +
                      std::to_string(other.memory.size() * 4) + " bytes");
    } else {
        std::size_t shown = 0, total = 0;
        for (std::size_t i = 0; i < memory.size(); ++i) {
            if (memory[i] == other.memory[i])
                continue;
            ++total;
            if (shown < maxDiffsPerCategory) {
                out.push_back(
                    "mem[" + hex(Program::dataBase + 4 * i) + "] = " +
                    hex(memory[i]) + ", reference " +
                    hex(other.memory[i]));
                ++shown;
            }
        }
        if (total > shown) {
            out.push_back("... and " + std::to_string(total - shown) +
                          " more differing memory words");
        }
    }

    std::size_t reg_shown = 0;
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        if (scalars[i] == other.scalars[i])
            continue;
        if (reg_shown++ >= maxDiffsPerCategory)
            continue;
        const RegId reg(i < regsPerClass ? RegClass::Int : RegClass::Flt,
                        static_cast<unsigned>(i % regsPerClass));
        out.push_back(std::string(regName(reg)) + " = " +
                      hex(scalars[i]) + ", reference " +
                      hex(other.scalars[i]));
    }

    if (cmpState != other.cmpState) {
        out.push_back("cmpState " + std::to_string(cmpState) +
                      ", reference " + std::to_string(other.cmpState));
    }

    if (callCounts != other.callCounts)
        out.push_back("call log shape differs (targets or counts)");

    return out;
}

ChaosReference
makeReference(const Program &prog, unsigned width)
{
    System sys(SystemConfig::make(ExecMode::ScalarBaseline, width), prog);
    sys.run();

    ChaosReference ref;
    const auto call_log = sys.core().callLog();
    ref.snapshot = snapshotSystem(sys, prog, call_log);
    ref.instsRetired = sys.core().stats().get("insts");
    for (const auto &[target, calls] : call_log)
        ref.regions.push_back(target);

    return ref;
}

ChaosReport
checkSchedule(const ChaosReference &ref, const Program &prog,
              unsigned width, const FaultSchedule &sched, bool sabotage)
{
    SystemConfig config = SystemConfig::make(ExecMode::Liquid, width);
    config.core.faults = sched;
    config.core.sabotageAbandonUcodeOnInterrupt = sabotage;
    return runLiquidAgainstReference(ref, prog, config, nullptr);
}

ChaosReport
checkUcodeInjection(const ChaosReference &ref, const Program &prog,
                    unsigned width, const UcodeEntry &entry)
{
    const SystemConfig config =
        SystemConfig::make(ExecMode::Liquid, width);
    return runLiquidAgainstReference(ref, prog, config, &entry);
}

ExploreSummary
exploreSchedules(const Program &prog, unsigned width,
                 const ExploreOptions &opts)
{
    const ChaosReference ref =
        (opts.refMaker ? opts.refMaker : makeReference)(prog, width);
    ExploreSummary summary;

    auto runOne = [&](const FaultSchedule &sched) {
        const ChaosReport report = checkSchedule(ref, prog, width, sched);
        ++summary.schedulesRun;
        summary.faultsFired += report.faultsFired;
        summary.retranslations += report.retranslations;
        for (const FaultEvent &e : sched.events)
            ++summary.kindCoverage[faultKindName(e.kind)];
        if (sched.interruptPeriod)
            ++summary.kindCoverage[faultKindName(FaultKind::Interrupt)];
        if (!report.equal) {
            summary.failures.push_back(
                ExploreFailure{sched.key(), report.mismatches});
        }
    };

    // Exhaustive part: every kind at every retire index in the window.
    const std::uint64_t window = std::min(opts.window, ref.instsRetired);
    for (std::uint64_t at = 1; at <= window; ++at) {
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(FaultKind::NumKinds); ++k) {
            FaultSchedule sched;
            sched.add(static_cast<FaultKind>(k), at);
            runOne(sched);
        }
    }

    // Randomized part: multi-event schedules over the full run.
    Rng rng(opts.seed);
    for (unsigned t = 0; t < opts.trials; ++t) {
        runOne(FaultSchedule::random(
            rng, std::max<std::uint64_t>(ref.instsRetired, 1),
            ref.regions));
    }

    return summary;
}

} // namespace liquid
