#include "verifier/rules.hh"

#include <set>
#include <sstream>

#include "cpu/decode.hh"
#include "verifier/dataflow.hh"

namespace liquid
{

namespace
{

/** Analysis ceiling: more abstract steps than any sane region retires. */
constexpr unsigned long stepBudget = 200000;

} // namespace

StaticOutcome
analyzeRegion(const Program &prog, int entry_index,
              const TranslatorConfig &config, unsigned capture_width,
              const EntryFacts *facts, WidthCheckSink *poly)
{
    StaticOutcome out;
    RuleAutomaton automaton(config, prog, nullptr, poly);
    automaton.begin(capture_width);
    AbsMachine machine(prog, facts);
    std::set<int> visited;

    const auto &code = prog.code();
    int pc = entry_index;
    unsigned long steps = 0;

    // A decision the walk itself cannot make: the verdict is Warn.
    auto unknown = [&](std::string what) {
        out.verdict = Severity::Warn;
        out.warnCondition = std::move(what);
        out.reasonIndex = pc;
    };

    try {
        for (;;) {
            if (++steps > stepBudget) {
                unknown("region exceeds the analysis step budget; the "
                        "dynamic outcome depends on how the loop "
                        "terminates");
                break;
            }
            if (pc < 0 || pc >= static_cast<int>(code.size())) {
                unknown("control flow leaves the program text");
                break;
            }
            const Inst &inst = code[pc];
            const Control control = instEffects(inst).control;
            visited.insert(pc);

            // A bl retired inside the region (Translator::onCall).
            if (control == Control::Call)
                throw RuleAbort{AbortReason::NestedCall, pc};

            if (control == Control::Return) {
                const RuleCommit c = automaton.commit(pc);
                out.verdict = Severity::Ok;
                out.ucodeInsts = static_cast<unsigned>(c.insts.size());
                out.cvecs = static_cast<unsigned>(c.cvecs.size());
                out.loopsVerified = automaton.loopsVerified();
                out.ucodeLoopInsts = c.loopInsts;
                out.loopIters = automaton.loopIters();
                break;
            }

            Taken taken = Taken::No;
            const AbsRetire ri = machine.step(inst, pc, taken);
            if (control == Control::Branch && taken == Taken::Unknown) {
                std::ostringstream os;
                os << "branch depends on runtime data";
                if (machine.lastCmpIndex() >= 0) {
                    os << " (flags set by the cmp at inst "
                       << machine.lastCmpIndex() << ")";
                }
                unknown(os.str());
                break;
            }
            automaton.observe(ri);

            if (control == Control::Branch && ri.branchTaken)
                pc = inst.target;
            else
                ++pc;
        }
    } catch (const RuleAbort &a) {
        out.verdict = Severity::Error;
        out.reason = a.reason;
        out.reasonIndex = a.index;
    } catch (const RuleUnknown &u) {
        out.verdict = Severity::Warn;
        out.warnCondition =
            std::string(u.what) + " depends on runtime data";
        out.reasonIndex = u.index;
    }

    out.analyzedInsts = static_cast<unsigned>(automaton.observed());
    out.visited.assign(visited.begin(), visited.end());
    out.factsUsed = machine.factsUsed();
    return out;
}

} // namespace liquid
