#include "scalarizer/scalarizer.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "cpu/exec.hh"
#include "cpu/regfile.hh"

namespace liquid
{

namespace
{

using vir::Kernel;
using vir::OpK;
using vir::VInst;

// ---------------------------------------------------------------------------
// Register pool with reuse.
// ---------------------------------------------------------------------------

class RegPool
{
  public:
    RegPool(RegClass cls, unsigned lo, unsigned hi, const char *what)
        : cls_(cls), lo_(lo), hi_(hi), what_(what),
          used_(hi - lo + 1, false)
    {
    }

    RegId
    alloc()
    {
        for (unsigned i = 0; i < used_.size(); ++i) {
            if (!used_[i]) {
                used_[i] = true;
                return RegId(cls_, lo_ + i);
            }
        }
        fatal("scalarizer: out of ", what_, " registers (register "
              "pressure; split the kernel)");
    }

    void
    release(RegId reg)
    {
        LIQUID_ASSERT(reg.cls() == cls_ && reg.idx() >= lo_ &&
                      reg.idx() <= hi_);
        used_[reg.idx() - lo_] = false;
    }

  private:
    RegClass cls_;
    unsigned lo_;
    unsigned hi_;
    const char *what_;
    std::vector<bool> used_;
};

// ---------------------------------------------------------------------------
// Fission plan.
// ---------------------------------------------------------------------------

enum class PermMode
{
    LoadFused,   ///< realized as an offset-indexed load
    TmpFused,    ///< offset-indexed load of the operand's tmp array
    StoreFused,  ///< realized as offset-indexed stores by its consumers
    Split,       ///< ends its stage; crosses via a permuted tmp store
};

struct FissionPlan
{
    std::vector<int> stageOf;                 ///< per body index
    int numStages = 1;
    std::map<int, PermMode> permMode;         ///< body idx of each Perm
    std::map<int, std::string> loadFuseArray; ///< Perm idx -> array read
    std::map<int, std::int32_t> loadFuseDisp;
    std::set<int> deadLoads;                  ///< loads fully fused away
    std::set<int> matPlain;                   ///< values -> plain tmp
    std::map<int, int> splitPermIdx;          ///< value -> Perm body idx
    std::map<int, int> defIdx;                ///< value -> defining idx
    std::map<int, std::vector<int>> uses;     ///< value -> user indices
};

const char *
arrayOrEmpty(const VInst &v)
{
    return v.array.c_str();
}

FissionPlan
planFission(const Kernel &kernel)
{
    const auto &body = kernel.body();
    FissionPlan plan;
    plan.stageOf.assign(body.size(), 0);

    for (std::size_t i = 0; i < body.size(); ++i) {
        const VInst &v = body[i];
        if (v.dst >= 0)
            plan.defIdx[v.dst] = static_cast<int>(i);
        if (v.a >= 0)
            plan.uses[v.a].push_back(static_cast<int>(i));
        if (v.b >= 0)
            plan.uses[v.b].push_back(static_cast<int>(i));
    }

    // First store position (body index) per array, for load-fusion
    // legality: a fused re-read must complete before the array changes.
    std::map<std::string, int> firstStoreAt;
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i].k == OpK::Store && !firstStoreAt.count(body[i].array))
            firstStoreAt[body[i].array] = static_cast<int>(i);
    }

    int stage = 0;
    std::vector<int> valueStage(kernel.values().size(), 0);

    for (std::size_t i = 0; i < body.size(); ++i) {
        const VInst &v = body[i];
        if (v.k != OpK::Perm) {
            plan.stageOf[i] = stage;
            if (v.dst >= 0)
                valueStage[v.dst] = stage;
            // Operands produced in earlier stages cross through tmps.
            // A store whose operand is a store-fused permutation reads
            // the permutation's operand instead (the permutation is
            // realized by the store's offset indexing), so that is the
            // value that must cross when a split separates the two.
            for (int opnd : {v.a, v.b}) {
                if (v.k == OpK::Store && opnd >= 0) {
                    const int def = plan.defIdx.at(opnd);
                    auto pm = plan.permMode.find(def);
                    if (pm != plan.permMode.end() &&
                        pm->second == PermMode::StoreFused)
                        opnd = body[def].a;
                }
                if (opnd >= 0 && valueStage[opnd] < stage &&
                    !plan.splitPermIdx.count(opnd))
                    plan.matPlain.insert(opnd);
            }
            continue;
        }

        // A permutation: try to realize it at a memory boundary.
        const int def = plan.defIdx.at(v.a);
        const VInst &def_inst = body[def];
        const int last_use = plan.uses.count(v.dst)
                                 ? plan.uses.at(v.dst).back()
                                 : static_cast<int>(i);

        // (a) Fuse with the defining load: re-read the source array
        // with offset indexing, provided nothing stores to that array
        // before the last fused use.
        if (def_inst.k == OpK::Load &&
            (!firstStoreAt.count(def_inst.array) ||
             firstStoreAt.at(def_inst.array) > last_use)) {
            plan.permMode[static_cast<int>(i)] = PermMode::LoadFused;
            plan.loadFuseArray[static_cast<int>(i)] = def_inst.array;
            plan.loadFuseDisp[static_cast<int>(i)] = def_inst.disp;
            plan.stageOf[i] = stage;
            valueStage[v.dst] = stage;
            // Drop this use of the load; the load dies if unused now.
            auto &load_uses = plan.uses[v.a];
            for (auto it = load_uses.begin(); it != load_uses.end(); ++it) {
                if (*it == static_cast<int>(i)) {
                    load_uses.erase(it);
                    break;
                }
            }
            if (load_uses.empty())
                plan.deadLoads.insert(def);
            continue;
        }

        // (a') The operand already lives in an earlier stage: it will
        // be materialized to a tmp array, and the permutation becomes
        // an offset-indexed load of that tmp (tmps are written once).
        if (valueStage[v.a] < stage) {
            plan.permMode[static_cast<int>(i)] = PermMode::TmpFused;
            plan.matPlain.insert(v.a);
            plan.stageOf[i] = stage;
            valueStage[v.dst] = stage;
            continue;
        }

        // (b) Fuse with the consuming stores if every use is a store.
        bool all_stores = plan.uses.count(v.dst) &&
                          !plan.uses.at(v.dst).empty();
        if (all_stores) {
            for (int u : plan.uses.at(v.dst))
                all_stores = all_stores && body[u].k == OpK::Store;
        }
        if (all_stores) {
            plan.permMode[static_cast<int>(i)] = PermMode::StoreFused;
            plan.stageOf[i] = stage;
            valueStage[v.dst] = stage;
            if (valueStage[v.a] < stage)
                plan.matPlain.insert(v.a);
            continue;
        }

        // (c) Split: end the stage here; the operand crosses through a
        // tmp array with the permutation applied at the store.
        plan.permMode[static_cast<int>(i)] = PermMode::Split;
        plan.stageOf[i] = stage;
        plan.splitPermIdx[v.dst] = static_cast<int>(i);
        if (valueStage[v.a] < stage)
            plan.matPlain.insert(v.a);
        ++stage;
        valueStage[v.dst] = stage;
    }

    plan.numStages = stage + 1;

    // In-stage aliasing legality: within one scalar loop, a store to an
    // array an offset access touches (or a store "ahead of" a straight
    // load) breaks iteration-at-a-time equivalence (Section 3.4 of
    // DESIGN.md). Detect and reject.
    for (int s = 0; s < plan.numStages; ++s) {
        std::map<std::string, std::int32_t> min_load_disp;
        std::set<std::string> perm_arrays;
        for (std::size_t i = 0; i < body.size(); ++i) {
            if (plan.stageOf[i] != s)
                continue;
            const VInst &v = body[i];
            if (v.k == OpK::Load && !plan.deadLoads.count(
                                        static_cast<int>(i))) {
                auto it = min_load_disp.find(v.array);
                if (it == min_load_disp.end())
                    min_load_disp[v.array] = v.disp;
                else
                    it->second = std::min(it->second, v.disp);
            }
            if (v.k == OpK::Perm &&
                plan.permMode.at(static_cast<int>(i)) ==
                    PermMode::LoadFused)
                perm_arrays.insert(
                    plan.loadFuseArray.at(static_cast<int>(i)));
        }
        for (std::size_t i = 0; i < body.size(); ++i) {
            if (plan.stageOf[i] != s || body[i].k != OpK::Store)
                continue;
            const VInst &v = body[i];
            if (perm_arrays.count(v.array)) {
                fatal("kernel '", kernel.name(), "': array '",
                      arrayOrEmpty(v), "' is stored in the same stage "
                      "that reads it through a permutation; restructure "
                      "the kernel (route the store through a tmp)");
            }
            auto it = min_load_disp.find(v.array);
            if (it != min_load_disp.end() && v.disp > it->second) {
                fatal("kernel '", kernel.name(), "': store to '",
                      arrayOrEmpty(v), "' runs ahead of a load in the "
                      "same stage; scalar iteration order would diverge "
                      "from vector semantics");
            }
        }
    }

    return plan;
}

// ---------------------------------------------------------------------------
// Shared emission helpers.
// ---------------------------------------------------------------------------

/** Read-only table interning (offset / constant / mask arrays). */
class RoTables
{
  public:
    RoTables(Program &prog, std::string prefix, unsigned trip_count)
        : prog_(prog), prefix_(std::move(prefix)), tripCount_(trip_count)
    {
    }

    /** Array repeating @p pattern out to the trip count. */
    const std::string &
    table(const std::vector<Word> &pattern)
    {
        auto it = byPattern_.find(pattern);
        if (it != byPattern_.end())
            return it->second;
        std::vector<Word> words(tripCount_);
        for (unsigned i = 0; i < tripCount_; ++i)
            words[i] = pattern[i % pattern.size()];
        std::string name =
            prefix_ + "_ro" + std::to_string(byPattern_.size());
        prog_.allocRoWords(name, words, 64);
        return byPattern_.emplace(pattern, std::move(name))
            .first->second;
    }

    const std::string &
    permTable(PermKind kind, unsigned block)
    {
        const auto offsets = permOffsets(kind, block);
        std::vector<Word> pattern(offsets.size());
        for (std::size_t i = 0; i < offsets.size(); ++i)
            pattern[i] = static_cast<Word>(offsets[i]);
        return table(pattern);
    }

    const std::string &
    maskTable(std::uint32_t bits, unsigned block)
    {
        std::vector<Word> pattern(block);
        for (unsigned i = 0; i < block; ++i)
            pattern[i] = ((bits >> i) & 1u) ? 0xFFFFFFFFu : 0;
        return table(pattern);
    }

  private:
    Program &prog_;
    std::string prefix_;
    unsigned tripCount_;
    std::map<std::vector<Word>, std::string> byPattern_;
};

Opcode
loadOpcode(unsigned elem_size, bool is_signed)
{
    switch (elem_size) {
      case 1: return is_signed ? Opcode::Ldsb : Opcode::Ldb;
      case 2: return is_signed ? Opcode::Ldsh : Opcode::Ldh;
      case 4: return Opcode::Ldw;
      default: panic("bad element size ", elem_size);
    }
}

Opcode
storeOpcode(unsigned elem_size)
{
    switch (elem_size) {
      case 1: return Opcode::Stb;
      case 2: return Opcode::Sth;
      case 4: return Opcode::Stw;
      default: panic("bad element size ", elem_size);
    }
}

// ---------------------------------------------------------------------------
// Scalar emission (Scalarized and InlineScalar modes).
// ---------------------------------------------------------------------------

class ScalarEmitter
{
  public:
    ScalarEmitter(Program &prog, const Kernel &kernel,
                  const EmitOptions &opts)
        : prog_(prog), kernel_(kernel), opts_(opts),
          fnName_(opts.fnName.empty() ? kernel.name() : opts.fnName),
          tables_(prog, fnName_, kernel.tripCount()),
          // r0 is the induction variable; r10+ belong to drivers;
          // f15 maps to the translator's vf15 shuffle scratch.
          intPool_(RegClass::Int, 1, 9, "integer"),
          fltPool_(RegClass::Flt, 0, 14, "float"),
          iv_(RegClass::Int, 0)
    {
    }

    EmitResult
    emit()
    {
        plan_ = planFission(kernel_);

        const int first = static_cast<int>(prog_.code().size());
        const bool outlined =
            opts_.mode == EmitOptions::Mode::Scalarized;
        using Sabotage = EmitOptions::Sabotage;

        if (outlined && opts_.sabotage == Sabotage::NestedCall) {
            // Stub callee ahead of the entry; reachable only via the
            // injected bl below.
            prog_.defineLabel(fnName_ + "_sab_helper");
            prog_.addInst(Inst::ret());
        }

        if (outlined)
            prog_.defineLabel(fnName_);

        if (outlined) {
            switch (opts_.sabotage) {
              case Sabotage::UntranslatableOp:
                prog_.addInst(Inst::nop());
                break;
              case Sabotage::NestedCall:
                prog_.addInst(Inst::call(-1, false,
                                         fnName_ + "_sab_helper"));
                break;
              case Sabotage::ForwardBranch:
                prog_.addInst(Inst::branch(Cond::AL, -1,
                                           fnName_ + "_sab_skip"));
                prog_.defineLabel(fnName_ + "_sab_skip");
                break;
              case Sabotage::ScalarStore:
                prog_.allocData(fnName_ + "_sab",
                                kernel_.tripCount() * 4, 64);
                break;
              default:
                break;
            }
        }

        // Reduction accumulators live in registers across all stages.
        for (const auto &acc : kernel_.accs()) {
            RegId reg = acc.isFloat ? fltPool_.alloc() : intPool_.alloc();
            accRegs_.push_back(reg);
            prog_.addInst(
                Inst::movImm(reg, static_cast<std::int32_t>(acc.init)));
        }

        // Plain tmp arrays for values crossing stage boundaries.
        for (int v : plan_.matPlain)
            backingArray_[v] = newTmpArray();
        for (const auto &[dst, perm_idx] : plan_.splitPermIdx) {
            (void)perm_idx;
            backingArray_[dst] = newTmpArray();
        }

        for (int s = 0; s < plan_.numStages; ++s)
            emitStage(s);

        if (opts_.mode == EmitOptions::Mode::Scalarized)
            prog_.addInst(Inst::ret());

        EmitResult result;
        result.entryLabel =
            opts_.mode == EmitOptions::Mode::Scalarized ? fnName_ : "";
        result.instCount =
            static_cast<unsigned>(prog_.code().size()) - first;
        result.numStages = static_cast<unsigned>(plan_.numStages);
        result.accRegs = accRegs_;
        return result;
    }

  private:
    std::string
    newTmpArray()
    {
        std::string name = fnName_ + "_tmp" + std::to_string(numTmps_++);
        prog_.allocData(name, kernel_.tripCount() * 4, 64);
        return name;
    }

    RegId
    allocFor(int value)
    {
        return kernel_.values()[value].isFloat ? fltPool_.alloc()
                                               : intPool_.alloc();
    }

    void
    release(RegId reg)
    {
        if (reg.cls() == RegClass::Int)
            intPool_.release(reg);
        else
            fltPool_.release(reg);
    }

    /** Emit `ldw rt, [off + iv]; add rt, iv, rt` -> returns rt. */
    RegId
    emitOffsetIndex(const std::string &off_table)
    {
        RegId rt = intPool_.alloc();
        prog_.addInst(Inst::load(Opcode::Ldw, rt, prog_.ref(off_table, iv_)));
        prog_.addInst(Inst::dp(Opcode::Add, rt, iv_, rt));
        return rt;
    }

    // Emission items for one stage, in order.
    struct Item
    {
        enum class Kind { Body, TmpLoad, MatStore, PermMatStore } kind;
        int bodyIdx = -1;  ///< Body
        int value = -1;    ///< TmpLoad / MatStore / PermMatStore source
        int permIdx = -1;  ///< PermMatStore: the Split Perm
    };

    std::vector<Item>
    buildItems(int s)
    {
        const auto &body = kernel_.body();
        std::vector<Item> items;
        std::set<int> resident;  // values register-resident this stage

        auto ensureLoaded = [&](int value) {
            if (value < 0 || resident.count(value))
                return;
            // Values defined in this stage become resident when their
            // defining item runs; only cross-stage values need loads.
            if (plan_.stageOf[plan_.defIdx.at(value)] ==
                    s &&
                !plan_.splitPermIdx.count(value))
                return;
            items.push_back(Item{Item::Kind::TmpLoad, -1, value, -1});
            resident.insert(value);
        };

        for (std::size_t i = 0; i < body.size(); ++i) {
            if (plan_.stageOf[i] != s)
                continue;
            const VInst &v = body[i];
            if (v.k == OpK::Load &&
                plan_.deadLoads.count(static_cast<int>(i)))
                continue;
            if (v.k == OpK::Perm) {
                const PermMode mode =
                    plan_.permMode.at(static_cast<int>(i));
                if (mode == PermMode::StoreFused)
                    continue;  // realized at the consuming stores
                if (mode == PermMode::Split) {
                    // Materialize the operand with the permutation; the
                    // result is consumed from its tmp in later stages.
                    ensureLoaded(storeSource(v.a));
                    items.push_back(Item{Item::Kind::PermMatStore, -1,
                                         v.a, static_cast<int>(i)});
                    continue;
                }
                // LoadFused/TmpFused: emits its own offset-indexed load.
                items.push_back(
                    Item{Item::Kind::Body, static_cast<int>(i), -1, -1});
                resident.insert(v.dst);
                continue;
            }

            if (v.k == OpK::Store) {
                ensureLoaded(storeSource(v.a));
            } else {
                for (int opnd : {v.a, v.b})
                    ensureLoaded(opnd);
            }
            items.push_back(
                Item{Item::Kind::Body, static_cast<int>(i), -1, -1});
            if (v.dst >= 0)
                resident.insert(v.dst);
        }

        // Materialize plain tmps for values defined here but used later.
        const auto &bodyref = kernel_.body();
        for (std::size_t i = 0; i < bodyref.size(); ++i) {
            if (plan_.stageOf[i] != s)
                continue;
            const int dst = bodyref[i].dst;
            if (dst >= 0 && plan_.matPlain.count(dst) &&
                !plan_.splitPermIdx.count(dst)) {
                items.push_back(
                    Item{Item::Kind::MatStore, -1, dst, -1});
            }
        }
        return items;
    }

    /** The value a store actually reads (store-fused perms alias). */
    int
    storeSource(int value)
    {
        auto it = plan_.splitPermIdx.find(value);
        (void)it;
        auto pm = permAliasOf(value);
        return pm ? kernel_.body()[*pm].a : value;
    }

    /** If @p value is a StoreFused perm result, its Perm body index. */
    std::optional<int>
    permAliasOf(int value)
    {
        auto def = plan_.defIdx.find(value);
        if (def == plan_.defIdx.end())
            return std::nullopt;
        auto pm = plan_.permMode.find(def->second);
        if (pm != plan_.permMode.end() && pm->second == PermMode::StoreFused)
            return def->second;
        return std::nullopt;
    }

    void
    emitStage(int s)
    {
        const auto items = buildItems(s);

        // Last use position of each value within this stage's items.
        std::map<int, std::size_t> last_use;
        for (std::size_t p = 0; p < items.size(); ++p) {
            const Item &item = items[p];
            if (item.kind == Item::Kind::Body) {
                const VInst &v = kernel_.body()[item.bodyIdx];
                if (v.k == OpK::Store) {
                    last_use[storeSource(v.a)] = p;
                } else {
                    for (int opnd : {v.a, v.b}) {
                        if (opnd >= 0)
                            last_use[opnd] = p;
                    }
                }
            } else if (item.kind != Item::Kind::TmpLoad) {
                last_use[item.value] = p;
            }
        }

        // Loop prologue.
        prog_.addInst(Inst::movImm(iv_, 0));
        using Sabotage = EmitOptions::Sabotage;
        const bool sabotage_here =
            s == 0 && opts_.mode == EmitOptions::Mode::Scalarized;
        if (sabotage_here &&
            opts_.sabotage == Sabotage::IvArithmetic) {
            // IV-derived value: Rule 11 refuses it (it would diverge
            // once the loop strides by W). Dead afterwards, so the
            // scalar execution is unaffected.
            RegId rt = intPool_.alloc();
            prog_.addInst(Inst::dp(Opcode::Add, rt, iv_, iv_));
            intPool_.release(rt);
        }
        const std::string top =
            fnName_ + "_s" + std::to_string(s) + "_top";
        prog_.defineLabel(top);
        if (sabotage_here &&
            opts_.sabotage == Sabotage::ScalarStore) {
            // Store whose data register is not a virtualized vector:
            // the translator's store rule refuses it.
            RegId rt = intPool_.alloc();
            prog_.addInst(Inst::movImm(rt, 7));
            prog_.addInst(Inst::store(Opcode::Stw, rt,
                                      prog_.ref(fnName_ + "_sab", iv_)));
            intPool_.release(rt);
        }
        if (sabotage_here &&
            (opts_.sabotage == Sabotage::OverlapStoreStore ||
             opts_.sabotage == Sabotage::OverlapLoadAhead ||
             opts_.sabotage == Sabotage::OverlapStoreAfterLoad)) {
            emitOverlapSabotage();
        }

        regOf_.clear();
        for (std::size_t p = 0; p < items.size(); ++p) {
            emitItem(items[p]);
            // Free registers whose value dies here.
            for (auto it = regOf_.begin(); it != regOf_.end();) {
                auto lu = last_use.find(it->first);
                const bool dead =
                    lu == last_use.end() || lu->second <= p;
                if (dead) {
                    release(it->second);
                    it = regOf_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        // Loop epilogue.
        prog_.addInst(Inst::dpImm(Opcode::Add, iv_, iv_, 1));
        prog_.addInst(Inst::cmpImm(
            iv_, static_cast<std::int32_t>(kernel_.tripCount())));
        prog_.addInst(Inst::branch(Cond::LT, -1, top));
    }

    /**
     * Plant a loop-carried memory dependence at a known iteration
     * distance inside the stage-0 loop body (Overlap* sabotage). The
     * scratch arrays are allocated here — after every kernel array —
     * so their bases sit above all kernel load streams and the only
     * overlaps the translator or depcheck can see are the intended
     * intra-sabotage ones. All three kernels are idempotent functions
     * of read-only-ish state and the induction variable, so a
     * SIMD/scalar divergence survives repeated region calls instead
     * of washing out.
     */
    void
    emitOverlapSabotage()
    {
        using Sabotage = EmitOptions::Sabotage;
        const unsigned trip = kernel_.tripCount();
        const unsigned d = std::max(1u, opts_.sabotageDistance);

        // Shared scratch array, sized so loads/stores displaced by +d
        // stay in bounds. Distinct per-element init values keep any
        // wrong-order execution observable.
        const std::string arr = fnName_ + "_sabarr";
        std::vector<Word> arr_init;
        for (unsigned i = 0; i < trip + d; ++i)
            arr_init.push_back(3000 + i);
        prog_.allocWords(arr, arr_init, 64);

        switch (opts_.sabotage) {
          case Sabotage::OverlapStoreStore: {
            // arr[i] = in1[i]; arr[i+d] = in2[i] — a carried output
            // dependence between two stores. The translator's
            // finalize-time check only compares stores against load
            // streams, so it commits; the vector groups then run all
            // arr[i] lanes before all arr[i+d] lanes, flipping the
            // last-writer whenever d < width.
            std::vector<Word> in1, in2;
            for (unsigned i = 0; i < trip; ++i) {
                in1.push_back(1000 + i);
                in2.push_back(5000 + i);
            }
            prog_.allocWords(fnName_ + "_sabin", in1, 64);
            prog_.allocWords(fnName_ + "_sabin2", in2, 64);
            RegId rt = intPool_.alloc();
            prog_.addInst(Inst::load(
                Opcode::Ldw, rt, prog_.ref(fnName_ + "_sabin", iv_)));
            prog_.addInst(Inst::store(Opcode::Stw, rt,
                                      prog_.ref(arr, iv_)));
            prog_.addInst(Inst::load(
                Opcode::Ldw, rt, prog_.ref(fnName_ + "_sabin2", iv_)));
            prog_.addInst(Inst::store(
                Opcode::Stw, rt,
                prog_.ref(arr, iv_, static_cast<std::int32_t>(d))));
            intPool_.release(rt);
            break;
          }
          case Sabotage::OverlapLoadAhead: {
            // arr[i] = out[i]; out[i] = arr[i+d] — the store sits at
            // the *base* of the load stream it feeds, so the
            // translator's (s0 > l0) interval test passes and it
            // commits. Vector groups write the whole arr block before
            // reading arr[i+d], so lanes with i+d inside the group
            // read this call's values instead of last call's.
            std::vector<Word> outv;
            for (unsigned i = 0; i < trip; ++i)
                outv.push_back(1000 + i);
            prog_.allocWords(fnName_ + "_sabout", outv, 64);
            RegId rt = intPool_.alloc();
            prog_.addInst(Inst::load(
                Opcode::Ldw, rt, prog_.ref(fnName_ + "_sabout", iv_)));
            prog_.addInst(Inst::store(Opcode::Stw, rt,
                                      prog_.ref(arr, iv_)));
            prog_.addInst(Inst::load(
                Opcode::Ldw, rt,
                prog_.ref(arr, iv_, static_cast<std::int32_t>(d))));
            prog_.addInst(Inst::store(
                Opcode::Stw, rt, prog_.ref(fnName_ + "_sabout", iv_)));
            intPool_.release(rt);
            break;
          }
          case Sabotage::OverlapStoreAfterLoad: {
            // arr[i+d] = arr[i] — the store lands strictly inside the
            // load stream, the one shape the translator's interval
            // test does catch: it aborts (memoryDependence) at every
            // width, even for d >= width where the vector execution
            // would have been safe.
            RegId rt = intPool_.alloc();
            prog_.addInst(Inst::load(Opcode::Ldw, rt,
                                     prog_.ref(arr, iv_)));
            prog_.addInst(Inst::store(
                Opcode::Stw, rt,
                prog_.ref(arr, iv_, static_cast<std::int32_t>(d))));
            intPool_.release(rt);
            break;
          }
          default:
            break;
        }
    }

    RegId
    valueReg(int value)
    {
        auto it = regOf_.find(value);
        LIQUID_ASSERT(it != regOf_.end(),
                      "scalarizer: value not resident");
        return it->second;
    }

    void
    emitItem(const Item &item)
    {
        const auto &values = kernel_.values();
        switch (item.kind) {
          case Item::Kind::TmpLoad: {
            RegId reg = allocFor(item.value);
            prog_.addInst(Inst::load(
                Opcode::Ldw, reg,
                prog_.ref(backingArray_.at(item.value), iv_)));
            regOf_[item.value] = reg;
            return;
          }
          case Item::Kind::MatStore: {
            prog_.addInst(Inst::store(
                Opcode::Stw, valueReg(item.value),
                prog_.ref(backingArray_.at(item.value), iv_)));
            return;
          }
          case Item::Kind::PermMatStore: {
            const VInst &perm = kernel_.body()[item.permIdx];
            const std::string &off = tables_.permTable(
                permInverse(perm.permKind), perm.permBlock);
            RegId rt = emitOffsetIndex(off);
            prog_.addInst(Inst::store(
                Opcode::Stw, valueReg(item.value),
                prog_.ref(backingArray_.at(perm.dst), rt)));
            intPool_.release(rt);
            return;
          }
          case Item::Kind::Body:
            break;
        }

        const VInst &v = kernel_.body()[item.bodyIdx];
        switch (v.k) {
          case OpK::Load: {
            RegId reg = allocFor(v.dst);
            prog_.addInst(Inst::load(
                loadOpcode(v.elemSize, v.isSigned), reg,
                prog_.ref(v.array, iv_, v.disp)));
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::Perm: {
            // Offset-indexed read, either of the original source array
            // (LoadFused) or of the operand's tmp array (TmpFused).
            const std::string &off =
                tables_.permTable(v.permKind, v.permBlock);
            RegId rt = emitOffsetIndex(off);
            RegId reg = allocFor(v.dst);
            if (plan_.permMode.at(item.bodyIdx) == PermMode::TmpFused) {
                prog_.addInst(Inst::load(
                    Opcode::Ldw, reg,
                    prog_.ref(backingArray_.at(v.a), rt)));
            } else {
                const VInst &src = kernel_.body()[plan_.defIdx.at(v.a)];
                prog_.addInst(Inst::load(
                    loadOpcode(src.elemSize, src.isSigned), reg,
                    prog_.ref(plan_.loadFuseArray.at(item.bodyIdx), rt,
                              plan_.loadFuseDisp.at(item.bodyIdx))));
            }
            intPool_.release(rt);
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::Store: {
            const int src_value = storeSource(v.a);
            auto alias = permAliasOf(v.a);
            if (alias) {
                const VInst &perm = kernel_.body()[*alias];
                const std::string &off = tables_.permTable(
                    permInverse(perm.permKind), perm.permBlock);
                RegId rt = emitOffsetIndex(off);
                prog_.addInst(Inst::store(
                    storeOpcode(v.elemSize), valueReg(src_value),
                    prog_.ref(v.array, rt, v.disp)));
                intPool_.release(rt);
            } else {
                prog_.addInst(Inst::store(
                    storeOpcode(v.elemSize), valueReg(src_value),
                    prog_.ref(v.array, iv_, v.disp)));
            }
            return;
          }
          case OpK::Bin: {
            RegId reg = allocFor(v.dst);
            if (v.op == Opcode::Qadd || v.op == Opcode::Qsub) {
                emitSaturationIdiom(v, reg);
            } else {
                prog_.addInst(Inst::dp(v.op, reg, valueReg(v.a),
                                       valueReg(v.b)));
            }
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::BinImm: {
            RegId reg = allocFor(v.dst);
            prog_.addInst(Inst::dpImm(v.op, reg, valueReg(v.a), v.imm));
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::BinConst: {
            const std::string &cnst = tables_.table(v.lanes);
            RegId rt = intPool_.alloc();
            prog_.addInst(
                Inst::load(Opcode::Ldw, rt, prog_.ref(cnst, iv_)));
            RegId reg = allocFor(v.dst);
            prog_.addInst(Inst::dp(v.op, reg, valueReg(v.a), rt));
            intPool_.release(rt);
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::Mask: {
            const std::string &mask =
                tables_.maskTable(v.maskBits, v.maskBlock);
            RegId rt = intPool_.alloc();
            prog_.addInst(
                Inst::load(Opcode::Ldw, rt, prog_.ref(mask, iv_)));
            RegId reg = allocFor(v.dst);
            prog_.addInst(Inst::dp(Opcode::And, reg, valueReg(v.a), rt));
            intPool_.release(rt);
            regOf_[v.dst] = reg;
            return;
          }
          case OpK::Red: {
            RegId acc = accRegs_.at(v.acc);
            prog_.addInst(Inst::dp(v.op, acc, acc, valueReg(v.a)));
            return;
          }
          default:
            panic("unsupported vir op in scalar emitter");
        }
        (void)values;
    }

    /**
     * Saturating arithmetic has no single scalar equivalent; emit the
     * paper's cmp/conditional-mov idiom (Section 3.2).
     */
    void
    emitSaturationIdiom(const VInst &v, RegId reg)
    {
        const Opcode base =
            v.op == Opcode::Qadd ? Opcode::Add : Opcode::Sub;
        prog_.addInst(Inst::dp(base, reg, valueReg(v.a), valueReg(v.b)));
        prog_.addInst(Inst::cmpImm(reg, satMax));
        prog_.addInst(Inst::movImm(reg, satMax, Cond::GT));
        prog_.addInst(Inst::cmpImm(reg, satMin));
        prog_.addInst(Inst::movImm(reg, satMin, Cond::LT));
    }

    Program &prog_;
    const Kernel &kernel_;
    EmitOptions opts_;
    std::string fnName_;
    RoTables tables_;
    RegPool intPool_;
    RegPool fltPool_;
    RegId iv_;
    FissionPlan plan_;
    std::vector<RegId> accRegs_;
    std::map<int, RegId> regOf_;
    std::map<int, std::string> backingArray_;
    int numTmps_ = 0;
};

// ---------------------------------------------------------------------------
// Native SIMD emission.
// ---------------------------------------------------------------------------

class NativeEmitter
{
  public:
    NativeEmitter(Program &prog, const Kernel &kernel,
                  const EmitOptions &opts)
        : prog_(prog), kernel_(kernel), opts_(opts),
          fnName_((opts.fnName.empty() ? kernel.name() : opts.fnName)),
          intPool_(RegClass::Vec, 0, 15, "vector"),
          fltPool_(RegClass::VFlt, 0, 15, "vector-float"),
          sIntPool_(RegClass::Int, 1, 9, "integer"),
          sFltPool_(RegClass::Flt, 0, 15, "float"),
          iv_(RegClass::Int, 0)
    {
    }

    EmitResult
    emit()
    {
        const unsigned width = opts_.nativeWidth;
        if (!isPowerOf2(width) || width < 2 ||
            width > kernel_.maxWidth()) {
            fatal("native emission: width ", width,
                  " outside kernel's compiled range");
        }
        for (const VInst &v : kernel_.body()) {
            if (v.k == OpK::Perm && v.permBlock > width)
                fatal("native emission: permutation block ", v.permBlock,
                      " exceeds accelerator width ", width);
            if (v.k == OpK::Mask && v.maskBlock > width)
                fatal("native emission: mask block exceeds width");
            if (v.k == OpK::BinConst && v.lanes.size() > width)
                fatal("native emission: constant period exceeds width");
        }

        const int first = static_cast<int>(prog_.code().size());
        prog_.defineLabel(fnName_);

        for (const auto &acc : kernel_.accs()) {
            RegId reg =
                acc.isFloat ? sFltPool_.alloc() : sIntPool_.alloc();
            accRegs_.push_back(reg);
            prog_.addInst(
                Inst::movImm(reg, static_cast<std::int32_t>(acc.init)));
        }

        // Last-use positions for register reuse.
        const auto &body = kernel_.body();
        std::map<int, std::size_t> last_use;
        for (std::size_t i = 0; i < body.size(); ++i) {
            for (int opnd : {body[i].a, body[i].b}) {
                if (opnd >= 0)
                    last_use[opnd] = i;
            }
        }

        prog_.addInst(Inst::movImm(iv_, 0));
        const std::string top = fnName_ + "_top";
        prog_.defineLabel(top);

        for (std::size_t i = 0; i < body.size(); ++i) {
            emitInst(body[i]);
            for (auto it = regOf_.begin(); it != regOf_.end();) {
                auto lu = last_use.find(it->first);
                if (lu == last_use.end() || lu->second <= i) {
                    if (it->second.cls() == RegClass::Vec)
                        intPool_.release(it->second);
                    else
                        fltPool_.release(it->second);
                    it = regOf_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        prog_.addInst(Inst::dpImm(Opcode::Add, iv_, iv_,
                                  static_cast<std::int32_t>(width)));
        prog_.addInst(Inst::cmpImm(
            iv_, static_cast<std::int32_t>(kernel_.tripCount())));
        prog_.addInst(Inst::branch(Cond::LT, -1, top));
        prog_.addInst(Inst::ret());

        EmitResult result;
        result.entryLabel = fnName_;
        result.instCount =
            static_cast<unsigned>(prog_.code().size()) - first;
        result.numStages = 1;
        result.accRegs = accRegs_;
        return result;
    }

  private:
    RegId
    allocFor(int value)
    {
        return kernel_.values()[value].isFloat ? fltPool_.alloc()
                                               : intPool_.alloc();
    }

    RegId
    reg(int value)
    {
        auto it = regOf_.find(value);
        LIQUID_ASSERT(it != regOf_.end(), "native: value not resident");
        return it->second;
    }

    void
    emitInst(const VInst &v)
    {
        switch (v.k) {
          case OpK::Load: {
            RegId r = allocFor(v.dst);
            prog_.addInst(Inst::load(
                opInfo(loadOpcode(v.elemSize, v.isSigned)).vectorEquiv,
                r, prog_.ref(v.array, iv_, v.disp)));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::Store:
            prog_.addInst(Inst::store(
                opInfo(storeOpcode(v.elemSize)).vectorEquiv, reg(v.a),
                prog_.ref(v.array, iv_, v.disp)));
            return;
          case OpK::Bin: {
            RegId r = allocFor(v.dst);
            prog_.addInst(Inst::dp(opInfo(v.op).vectorEquiv, r,
                                   reg(v.a), reg(v.b)));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::BinImm: {
            RegId r = allocFor(v.dst);
            prog_.addInst(Inst::dpImm(opInfo(v.op).vectorEquiv, r,
                                      reg(v.a), v.imm));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::BinConst: {
            RegId r = allocFor(v.dst);
            const std::uint32_t id = prog_.addCvec(ConstVec{v.lanes});
            prog_.addInst(Inst::dpCvec(opInfo(v.op).vectorEquiv, r,
                                       reg(v.a), id));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::Perm: {
            RegId r = allocFor(v.dst);
            prog_.addInst(
                Inst::vperm(r, reg(v.a), v.permKind, v.permBlock));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::Mask: {
            RegId r = allocFor(v.dst);
            prog_.addInst(
                Inst::vmask(r, reg(v.a), v.maskBits, v.maskBlock));
            regOf_[v.dst] = r;
            return;
          }
          case OpK::Red:
            prog_.addInst(Inst::vred(opInfo(v.op).reductionEquiv,
                                     accRegs_.at(v.acc), reg(v.a)));
            return;
          default:
            panic("unsupported vir op in native emitter");
        }
    }

    Program &prog_;
    const Kernel &kernel_;
    EmitOptions opts_;
    std::string fnName_;
    RegPool intPool_;
    RegPool fltPool_;
    RegPool sIntPool_;
    RegPool sFltPool_;
    RegId iv_;
    std::vector<RegId> accRegs_;
    std::map<int, RegId> regOf_;
};

} // namespace

EmitResult
emitKernel(Program &prog, const vir::Kernel &kernel,
           const EmitOptions &opts)
{
    kernel.validate();
    if (opts.mode == EmitOptions::Mode::Native)
        return NativeEmitter(prog, kernel, opts).emit();
    return ScalarEmitter(prog, kernel, opts).emit();
}

} // namespace liquid
