#include "verifier/proof.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "chaos/oracle.hh"
#include "common/logging.hh"
#include "scalarizer/scalarizer.hh"
#include "translator/abort_reason.hh"
#include "translator/offline.hh"
#include "verifier/cfg.hh"
#include "verifier/poly.hh"
#include "verifier/range.hh"
#include "verifier/symexec.hh"

namespace liquid
{

namespace
{

using sym::AddrMode;
using sym::StoreCell;
using sym::SymDecl;
using sym::SymMachine;
using sym::TermKind;
using sym::TermPool;
using sym::TermRef;

// ---------------------------------------------------------------------------
// Verdict lattice.
// ---------------------------------------------------------------------------

unsigned
verdictRank(ProofVerdict v)
{
    switch (v) {
      case ProofVerdict::Refuted:
        return 3;
      case ProofVerdict::Unknown:
        return 2;
      case ProofVerdict::Proved:
        return 1;
      case ProofVerdict::NoTranslation:
        return 0;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Obligation discharge: structural equality, then shape-deduplicated
// small-domain enumeration over the residual obligations' leaves.
// ---------------------------------------------------------------------------

/** One proof obligation: lhs and rhs must agree for every environment. */
struct Obligation
{
    TermRef lhs = nullptr;
    TermRef rhs = nullptr;
    std::string what;
};

/** Clip a full-width value to what a size-byte element read yields. */
Word
clipElem(Word v, unsigned size, bool is_signed)
{
    if (size >= 4)
        return v;
    const unsigned bits = size * 8;
    const Word mask = (1u << bits) - 1;
    v &= mask;
    if (is_signed && (v & (1u << (bits - 1))))
        v |= ~mask;
    return v;
}

/**
 * Enumeration tiers: the more distinct leaves an obligation has, the
 * fewer values each leaf sweeps (the cartesian product is the budget).
 * Every tier starts with {0, 1}: for the multilinear fragment the
 * normalizer produces, agreement on the {0,1} corners alone is already
 * a complete equality test; the remaining values target saturation
 * boundaries, shift widths and sign/extension corners.
 */
const std::vector<Word> &
tierFor(std::size_t leaves)
{
    static const std::vector<Word> t2 = {
        0,          1,          2,          3,
        4,          5,          7,          8,
        15,         16,         31,         32,
        100,        Word(-1),   Word(-2),   Word(-3),
        127,        Word(-128), 128,        255,
        65535,      65536,      32767,      Word(-32768),
        0x7fffffffu, 0x80000000u,
    };
    static const std::vector<Word> t4 = {
        0, 1, 2, Word(-1), Word(-2), 7, 127, Word(-128),
        255, 32767, Word(-32768),
    };
    static const std::vector<Word> t6 = {
        0, 1, 2, Word(-1), 127, Word(-32768), 65535,
    };
    static const std::vector<Word> t8 = {0, 1, Word(-1), 2, 32767};
    if (leaves <= 2)
        return t2;
    if (leaves <= 4)
        return t4;
    if (leaves <= 6)
        return t6;
    return t8;
}

/** The values a leaf ranges over, clipped to its element domain. */
std::vector<Word>
domainFor(const TermPool &pool, TermRef leaf, const std::vector<Word> &tier)
{
    unsigned size = 4;
    bool is_signed = false;
    if (leaf->kind == TermKind::Sym) {
        const SymDecl &d = pool.decl(leaf->sym);
        if (d.kind == SymDecl::Kind::CmpInit)
            return {Word(-1), 0, 1};
        if (d.kind != SymDecl::Kind::Mem)
            return tier;
        size = d.size;
        is_signed = d.isSigned;
    } else {
        size = leaf->size;
        is_signed = leaf->isSigned;
    }
    std::vector<Word> out;
    out.reserve(tier.size());
    for (const Word v : tier) {
        const Word c = clipElem(v, size, is_signed);
        if (std::find(out.begin(), out.end(), c) == out.end())
            out.push_back(c);
    }
    return out;
}

/** A leaf's domain class for alpha-renamed shape keys. */
std::string
leafClass(const TermPool &pool, TermRef leaf)
{
    if (leaf->kind == TermKind::Load) {
        return "l" + std::to_string(leaf->size) +
               (leaf->isSigned ? "s" : "u");
    }
    const SymDecl &d = pool.decl(leaf->sym);
    switch (d.kind) {
      case SymDecl::Kind::Mem:
        return "m" + std::to_string(d.size) + (d.isSigned ? "s" : "u");
      case SymDecl::Kind::CmpInit:
        return "c";
      case SymDecl::Kind::Poison:
        return "!";
      default:
        return "p";  // Reg and Param both sweep the full tier
    }
}

/**
 * Alpha-renamed structural key of a term: leaves are replaced by their
 * domain class in first-visit order, so obligations that differ only in
 * *which* memory elements they mention (every loop iteration's copy of
 * the same dataflow) share one key and are enumerated once.
 */
void
shapeKey(const TermPool &pool, TermRef t, std::map<TermRef, int> &seen,
         std::string &out)
{
    auto it = seen.find(t);
    if (it != seen.end()) {
        out += '#';
        out += std::to_string(it->second);
        return;
    }
    seen.emplace(t, static_cast<int>(seen.size()));
    switch (t->kind) {
      case TermKind::Const:
        out += 'k';
        out += std::to_string(t->konst);
        return;
      case TermKind::Sym:
        out += 's';
        out += leafClass(pool, t);
        return;
      case TermKind::Load:
        out += leafClass(pool, t);
        out += '(';
        shapeKey(pool, t->args[0], seen, out);
        out += ')';
        return;
      case TermKind::Bin:
        out += 'b';
        out += std::to_string(static_cast<int>(t->op));
        if (t->isFloat)
            out += 'f';
        break;
      case TermKind::Cmp:
        out += 'c';
        if (t->isFloat)
            out += 'f';
        break;
      case TermKind::Sel:
        out += 'S';
        out += std::to_string(static_cast<int>(t->cond));
        break;
      case TermKind::Ext:
        out += 'e';
        out += std::to_string(t->bits);
        out += t->isSigned ? 's' : 'u';
        break;
    }
    out += '(';
    for (unsigned i = 0; i < t->nargs; ++i) {
        if (i)
            out += ',';
        shapeKey(pool, t->args[i], seen, out);
    }
    out += ')';
}

/** Discharge outcome over a set of obligations. */
struct DischargeOut
{
    ProofVerdict verdict = ProofVerdict::Proved;
    unsigned obligations = 0;
    unsigned closedStructural = 0;
    unsigned closedEnum = 0;
    unsigned unknown = 0;
    std::uint64_t points = 0;
    unsigned pinned = 0;  ///< leaves pinned by region-entry range facts
    std::optional<Counterexample> ce;
    std::string firstUnknown;
};

DischargeOut
dischargeAll(TermPool &pool, const std::vector<Obligation> &obs,
             unsigned max_leaves, const EntryFacts *facts = nullptr)
{
    DischargeOut out;
    out.obligations = static_cast<unsigned>(obs.size());
    std::map<std::string, bool> cache;  // shape key -> enum-closed?

    auto noteUnknown = [&out](const Obligation &ob, const std::string &why) {
        ++out.unknown;
        if (out.firstUnknown.empty())
            out.firstUnknown = ob.what + ": " + why;
    };

    for (const Obligation &ob : obs) {
        if (ob.lhs == ob.rhs) {
            ++out.closedStructural;
            continue;
        }
        if (ob.lhs->poisoned || ob.rhs->poisoned) {
            noteUnknown(ob, "depends on unconstrained (poison) state");
            continue;
        }

        std::vector<TermRef> leaves = pool.leaves(ob.lhs);
        for (TermRef l : pool.leaves(ob.rhs))
            leaves.push_back(l);
        std::sort(leaves.begin(), leaves.end(),
                  [](TermRef a, TermRef b) { return a->id < b->id; });
        leaves.erase(std::unique(leaves.begin(), leaves.end()),
                     leaves.end());

        // Region-entry range facts pin proven-constant memory leaves
        // to singleton domains: they stop counting against the leaf
        // budget and their corner sweep collapses to one point.
        std::vector<std::optional<Word>> pins(leaves.size());
        std::size_t npinned = 0;
        if (facts) {
            for (std::size_t i = 0; i < leaves.size(); ++i) {
                if (leaves[i]->kind != TermKind::Sym)
                    continue;
                const SymDecl &d = pool.decl(leaves[i]->sym);
                if (d.kind != SymDecl::Kind::Mem)
                    continue;
                Word v = 0;
                std::string fact;
                if (facts->readCell(d.addr, d.size, d.isSigned, v,
                                    fact)) {
                    pins[i] = v;
                    ++npinned;
                }
            }
        }
        const std::size_t free_leaves = leaves.size() - npinned;

        if (free_leaves > max_leaves) {
            noteUnknown(ob, "too many distinct leaves (" +
                                std::to_string(free_leaves) + " free, " +
                                std::to_string(npinned) +
                                " pinned; budget " +
                                std::to_string(max_leaves) + ")");
            continue;
        }

        // Pinned obligations bypass the shape cache: the alpha-renamed
        // key cannot see which elements are pinned, so sharing results
        // across differently-pinned obligations would be unsound.
        std::string key;
        if (npinned == 0) {
            std::map<TermRef, int> seen;
            shapeKey(pool, ob.lhs, seen, key);
            key += '|';
            shapeKey(pool, ob.rhs, seen, key);
            auto hit = cache.find(key);
            if (hit != cache.end()) {
                if (hit->second)
                    ++out.closedEnum;
                else
                    noteUnknown(ob,
                                "same shape as an unknown obligation");
                continue;
            }
        }
        out.pinned += static_cast<unsigned>(npinned);

        const std::vector<Word> &tier = tierFor(free_leaves);
        std::vector<std::vector<Word>> doms;
        doms.reserve(leaves.size());
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            if (pins[i])
                doms.push_back({*pins[i]});
            else
                doms.push_back(domainFor(pool, leaves[i], tier));
        }

        // Compile once, then walk the odometer: each step rewrites only
        // the leaf slots whose digit moved and reruns the tape.
        sym::EvalTape tape({ob.lhs, ob.rhs}, leaves);
        for (std::size_t i = 0; i < leaves.size(); ++i)
            tape.setLeaf(i, doms[i][0]);
        std::vector<std::size_t> idx(leaves.size(), 0);
        bool refuted = false;
        while (true) {
            tape.run();
            ++out.points;
            const Word a = tape.root(0);
            const Word b = tape.root(1);
            if (a != b) {
                Counterexample ce;
                ce.obligation = ob.what;
                ce.scalarValue = a;
                ce.simdValue = b;
                ce.memOnly = true;
                for (std::size_t i = 0; i < leaves.size(); ++i) {
                    CeAssignment as;
                    as.value = doms[i][idx[i]];
                    if (leaves[i]->kind == TermKind::Sym) {
                        const SymDecl &d = pool.decl(leaves[i]->sym);
                        as.sym = d.printName();
                        if (d.kind == SymDecl::Kind::Mem) {
                            as.isMem = true;
                            as.addr = d.addr;
                            as.size = d.size;
                        } else {
                            ce.memOnly = false;
                        }
                    } else {
                        as.sym = pool.str(leaves[i]);
                        ce.memOnly = false;
                    }
                    ce.assigns.push_back(std::move(as));
                }
                out.ce = std::move(ce);
                refuted = true;
                break;
            }
            std::size_t i = 0;
            for (; i < idx.size(); ++i) {
                if (++idx[i] < doms[i].size()) {
                    tape.setLeaf(i, doms[i][idx[i]]);
                    break;
                }
                idx[i] = 0;
                tape.setLeaf(i, doms[i][0]);
            }
            if (i == idx.size())
                break;
        }
        if (refuted) {
            out.verdict = ProofVerdict::Refuted;
            return out;
        }
        if (npinned == 0)
            cache.emplace(std::move(key), true);
        ++out.closedEnum;
    }
    if (out.unknown > 0)
        out.verdict = ProofVerdict::Unknown;
    return out;
}

// ---------------------------------------------------------------------------
// Store-set obligations (Concrete mode).
// ---------------------------------------------------------------------------

/** Any cell overlapping [addr, addr+size) other than one at addr? */
bool
overlapsOther(const std::map<Addr, StoreCell> &cells, Addr addr,
              unsigned size)
{
    auto it = cells.lower_bound(addr >= 3 ? addr - 3 : 0);
    for (; it != cells.end() && it->first < addr + size; ++it) {
        if (it->first == addr)
            continue;
        if (it->first + it->second.size > addr)
            return true;
    }
    return false;
}

std::string
describeStore(const Program &prog, Addr addr)
{
    std::ostringstream os;
    os << "store @0x" << std::hex << addr;
    const std::string sym = prog.symbolAt(addr);
    if (!sym.empty())
        os << std::dec << " (" << sym << "+"
           << (addr - prog.symbol(sym)) << ")";
    return os.str();
}

void
collectStoreObligations(TermPool &pool, const Program &prog,
                        const std::map<Addr, StoreCell> &scalar_cells,
                        const std::map<Addr, StoreCell> &simd_cells,
                        std::vector<Obligation> &obs)
{
    std::set<Addr> addrs;
    for (const auto &[a, c] : scalar_cells)
        addrs.insert(a);
    for (const auto &[a, c] : simd_cells)
        addrs.insert(a);

    for (const Addr a : addrs) {
        const auto si = scalar_cells.find(a);
        const auto ui = simd_cells.find(a);
        const std::string what = describeStore(prog, a);

        if (si != scalar_cells.end() && ui != simd_cells.end()) {
            if (si->second.size != ui->second.size) {
                obs.push_back({pool.poison("storeGranularity"),
                               pool.konst(0),
                               what + ": store size mismatch"});
                continue;
            }
            const unsigned bits = si->second.size * 8;
            obs.push_back({pool.ext(bits, false, si->second.value),
                           pool.ext(bits, false, ui->second.value),
                           what});
            continue;
        }

        // One-sided store: the missing side leaves the element holding
        // its region-entry value (an arbitrary memory symbol, or the
        // pinned constant for read-only data).
        const StoreCell &have =
            si != scalar_cells.end() ? si->second : ui->second;
        const auto &other =
            si != scalar_cells.end() ? simd_cells : scalar_cells;
        if (overlapsOther(other, a, have.size)) {
            obs.push_back({pool.poison("storeGranularity"), pool.konst(0),
                           what + ": overlapping store granularity "
                                  "mismatch"});
            continue;
        }
        TermRef entry_val = nullptr;
        Word w0 = 0;
        if (prog.isReadOnly(a) &&
            prog.readInitialElem(a, have.size, false, w0))
            entry_val = pool.konst(w0);
        else
            entry_val = pool.memSym(a, have.size, false);
        const unsigned bits = have.size * 8;
        const bool scalar_has = si != scalar_cells.end();
        obs.push_back(
            {pool.ext(bits, false,
                      scalar_has ? si->second.value : entry_val),
             pool.ext(bits, false,
                      scalar_has ? entry_val : ui->second.value),
             what + (scalar_has ? " (missing in microcode)"
                                : " (missing in scalar)")});
    }
}

void
fillFromDischarge(WidthProof &wp, const DischargeOut &d)
{
    wp.verdict = d.verdict;
    wp.obligations = d.obligations;
    wp.closedStructural = d.closedStructural;
    wp.closedEnum = d.closedEnum;
    wp.unknownObligations = d.unknown;
    wp.enumPoints = d.points;
    wp.rangePinned = d.pinned;
    wp.ce = d.ce;
    std::ostringstream os;
    switch (d.verdict) {
      case ProofVerdict::Proved:
        os << "proved: " << d.obligations << " obligations ("
           << d.closedStructural << " structural, " << d.closedEnum
           << " enumerated over " << d.points << " points";
        if (d.pinned > 0)
            os << ", " << d.pinned << " leaves range-pinned";
        os << ")";
        break;
      case ProofVerdict::Refuted:
        os << "refuted: " << (d.ce ? d.ce->obligation : "obligation");
        break;
      case ProofVerdict::Unknown:
        os << "unknown: " << d.firstUnknown;
        break;
      case ProofVerdict::NoTranslation:
        os << "no translation";
        break;
    }
    wp.summary = os.str();
}

// ---------------------------------------------------------------------------
// Per-width driver.
// ---------------------------------------------------------------------------

WidthProof
proveAtWidth(const Program &prog, int entry_index, unsigned width_hint,
             const RegSet &demand, unsigned width,
             const ProofOptions &opts)
{
    WidthProof wp;
    wp.width = width;

    // The dynamic translator's binding cascade: start at
    // min(width, hint) and halve while the abort is width-dependent.
    unsigned start = width;
    if (width_hint != 0)
        start = std::min(start, width_hint);
    AbortReason last = AbortReason::None;
    for (unsigned bind = start; bind >= 2; bind /= 2) {
        OfflineResult off =
            translateOffline(prog, entry_index, bind, width_hint);
        if (off.ok) {
            wp = proveTranslation(prog, entry_index, off.entry, demand,
                                  opts);
            wp.width = width;
            return wp;
        }
        last = off.reason;
        if (!abortIsWidthDependent(off.reason))
            break;
    }
    wp.verdict = ProofVerdict::NoTranslation;
    wp.summary = std::string("no translation commits (") +
                 (last == AbortReason::None ? "unknown"
                                            : abortReasonName(last)) +
                 ")";
    return wp;
}

// ---------------------------------------------------------------------------
// Width-polymorphic (symbolic-N) proof.
// ---------------------------------------------------------------------------

/** Scalar region split: straight preamble + single straight-line loop. */
struct ScalarShape
{
    bool ok = false;
    std::string why;
    int bodyFirst = -1;
    int bodyLast = -1;  ///< the conditional backedge instruction
    RegId iv;
};

ScalarShape
scalarShapeOf(const Program &prog, int entry_index)
{
    ScalarShape s;
    const auto &code = prog.code();
    const RegionCfg cfg = RegionCfg::build(prog, entry_index);
    if (cfg.loops().size() != 1) {
        s.why = "region has " + std::to_string(cfg.loops().size()) +
                " loops (need exactly 1)";
        return s;
    }
    const CfgLoop &loop = cfg.loops()[0];
    const auto &blocks = cfg.blocks();
    if (loop.headBlock < 0 || loop.latchBlock < 0) {
        s.why = "degenerate loop";
        return s;
    }
    const int first =
        blocks[static_cast<std::size_t>(loop.headBlock)].first;
    const int last =
        blocks[static_cast<std::size_t>(loop.latchBlock)].last;

    // Preamble: straight-line register setup only.
    for (int i = entry_index; i < first; ++i) {
        const Inst &in = code[static_cast<std::size_t>(i)];
        if (in.isBranch() || in.op == Opcode::Ret ||
            in.op == Opcode::Bl || in.isMem()) {
            s.why = "preamble is not straight-line register setup";
            return s;
        }
    }
    // Body: straight-line except the trailing conditional backedge.
    for (int i = first; i < last; ++i) {
        if (code[static_cast<std::size_t>(i)].isBranch()) {
            s.why = "loop body has inner control flow";
            return s;
        }
    }
    const Inst &back = code[static_cast<std::size_t>(last)];
    if (back.op != Opcode::B || back.cond == Cond::AL ||
        back.target != first) {
        s.why = "loop is not closed by a conditional backedge";
        return s;
    }
    // Epilogue: nothing but the ret.
    if (last + 1 >= static_cast<int>(code.size()) ||
        code[static_cast<std::size_t>(last + 1)].op != Opcode::Ret) {
        s.why = "region has a non-trivial epilogue";
        return s;
    }

    // The induction variable: unique register stepped `add r, r, #1`
    // with a single body definition, feeding the exit compare.
    std::map<unsigned, unsigned> defCount;
    std::set<unsigned> compared;
    std::vector<RegId> stepped;
    for (int i = first; i <= last; ++i) {
        const Inst &in = code[static_cast<std::size_t>(i)];
        const InstEffects fx = instEffects(in);
        for (const RegId d : fx.defs.regs())
            ++defCount[d.flat()];
        if (in.op == Opcode::Add && in.hasImm && in.imm == 1 &&
            in.dst.isValid() && in.dst == in.src1 && in.dst.isScalar())
            stepped.push_back(in.dst);
        if (in.op == Opcode::Cmp) {
            if (in.src1.isValid())
                compared.insert(in.src1.flat());
            if (!in.hasImm && in.src2.isValid())
                compared.insert(in.src2.flat());
        }
    }
    for (const RegId r : stepped) {
        if (defCount[r.flat()] == 1 && compared.count(r.flat())) {
            if (s.iv.isValid()) {
                s.why = "multiple induction-variable candidates";
                return s;
            }
            s.iv = r;
        }
    }
    if (!s.iv.isValid()) {
        s.why = "no unit-stepped induction variable";
        return s;
    }
    s.bodyFirst = first;
    s.bodyLast = last;
    s.ok = true;
    return s;
}

/** Microcode split: preamble + single backward-branch loop, no tail. */
struct UcodeShape
{
    bool ok = false;
    std::string why;
    unsigned bodyFirst = 0;
    unsigned bodyLast = 0;  ///< the backedge slot
};

UcodeShape
ucodeShapeOf(const UcodeEntry &e)
{
    UcodeShape s;
    int branch = -1;
    for (std::size_t j = 0; j < e.insts.size(); ++j) {
        const Inst &in = e.insts[j];
        if (!in.isBranch())
            continue;
        if (in.op != Opcode::B || branch >= 0) {
            s.why = "microcode has more than one branch";
            return s;
        }
        branch = static_cast<int>(j);
    }
    if (branch < 0) {
        s.why = "microcode has no backedge";
        return s;
    }
    const Inst &b = e.insts[static_cast<std::size_t>(branch)];
    if (b.cond == Cond::AL || b.target < 0 || b.target > branch) {
        s.why = "microcode backedge is not a conditional backward "
                "branch";
        return s;
    }
    if (branch + 1 != static_cast<int>(e.insts.size())) {
        s.why = "microcode has an epilogue after the backedge";
        return s;
    }
    for (int j = 0; j < b.target; ++j) {
        if (e.insts[static_cast<std::size_t>(j)].isMem()) {
            s.why = "microcode preamble touches memory";
            return s;
        }
    }
    s.bodyFirst = static_cast<unsigned>(b.target);
    s.bodyLast = static_cast<unsigned>(branch);
    s.ok = true;
    return s;
}

/**
 * If every initialized word of the read-only symbol containing @p addr
 * holds one value, return it — the scalar lowering of a splat constant
 * vector is an IV-indexed load from such a table, which the
 * width-polymorphic proof folds to the constant (every in-bounds read
 * yields it; region executions only read in bounds).
 */
std::optional<Word>
roSplatValue(const Program &prog, Addr addr)
{
    if (!prog.isReadOnly(addr))
        return std::nullopt;
    const std::string name = prog.symbolAt(addr);
    if (name.empty())
        return std::nullopt;
    const Addr base = prog.symbol(name);
    Addr end =
        Program::dataBase + static_cast<Addr>(prog.dataImage().size());
    for (const auto &[n, a] : prog.symbols()) {
        if (a > base && a < end)
            end = a;
    }
    Word v0 = 0;
    if (!prog.readInitialElem(base, 4, false, v0))
        return std::nullopt;
    for (Addr a = base; a + 4 <= end; a += 4) {
        Word v = 0;
        if (!prog.isReadOnly(a) ||
            !prog.readInitialElem(a, 4, false, v) || v != v0)
            return std::nullopt;
    }
    return v0;
}

/** Fold Load atoms over read-only splat tables to their constant. */
TermRef
foldRoLoads(TermPool &pool, const Program &prog, TermRef t)
{
    std::unordered_map<TermRef, TermRef> map;
    for (TermRef leaf : pool.leaves(t)) {
        if (leaf->kind != TermKind::Load || leaf->size != 4)
            continue;
        // The address with every leaf at 0 (an unset tape leaf).
        TermRef addr = leaf->args[0];
        sym::EvalTape tape({addr}, pool.leaves(addr));
        tape.run();
        const Word c0 = tape.root(0);
        if (const auto v = roSplatValue(prog, c0))
            map[leaf] = pool.konst(*v);
    }
    return map.empty() ? t : pool.substitute(t, map);
}

/**
 * The width-polymorphic proof. Fills rp.symbolicN, and on success the
 * per-width entries of rp.widths (all Proved, widthGeneric).
 */
void
trySymbolicN(const Program &prog, int entry_index, unsigned width_hint,
             const RegSet &demand, const ProofOptions &opts,
             RegionProof &rp)
{
    SymbolicNProof &sn = rp.symbolicN;
    sn.attempted = true;

    if (!demand.empty()) {
        sn.summary = "region has demanded live-outs (reductions are "
                     "not lane-generic)";
        return;
    }
    const ScalarShape ss = scalarShapeOf(prog, entry_index);
    if (!ss.ok) {
        sn.summary = ss.why;
        return;
    }

    // Per-width offline translations at the widths the hardware would
    // bind; all must commit, and all must be the same microcode modulo
    // the induction-variable step immediate.
    std::map<unsigned, UcodeEntry> entries;  // bind width -> entry
    for (const unsigned w : opts.widths) {
        const unsigned bind =
            width_hint ? std::min(w, width_hint) : w;
        if (entries.count(bind))
            continue;
        OfflineResult off =
            translateOffline(prog, entry_index, bind, width_hint);
        if (!off.ok || off.entry.simdWidth != bind) {
            sn.summary = "width " + std::to_string(bind) +
                         " does not bind directly (" +
                         (off.ok ? "fallback" : off.abortReason) + ")";
            return;
        }
        entries.emplace(bind, std::move(off.entry));
    }
    if (entries.empty()) {
        sn.summary = "no widths requested";
        return;
    }

    const UcodeEntry &base = entries.begin()->second;
    const unsigned baseBind = entries.begin()->first;
    const UcodeShape us = ucodeShapeOf(base);
    if (!us.ok) {
        sn.summary = us.why;
        return;
    }
    int lastStore = -1;
    for (unsigned j = us.bodyFirst; j <= us.bodyLast; ++j) {
        if (base.insts[j].isStore())
            lastStore = static_cast<int>(j);
    }

    // Width-generic structural check: across binds, the microcode may
    // differ ONLY in the IV-step immediate (`add iv, iv, #width`), and
    // that step must come after every store so per-iteration stores are
    // width-independent.
    int stepSlot = -1;
    for (const auto &[bind, e] : entries) {
        if (e.insts.size() != base.insts.size() ||
            !(e.cvecs == base.cvecs)) {
            sn.summary = "microcode is not width-generic (structure "
                         "differs between widths)";
            return;
        }
        for (std::size_t j = 0; j < e.insts.size(); ++j) {
            if (e.insts[j] == base.insts[j])
                continue;
            const Inst &a = base.insts[j];
            const Inst &b = e.insts[j];
            const bool ivStep =
                a.op == Opcode::Add && b.op == Opcode::Add &&
                a.hasImm && b.hasImm && a.dst == b.dst &&
                a.dst == a.src1 && b.dst == b.src1 &&
                a.imm == static_cast<std::int32_t>(baseBind) &&
                b.imm == static_cast<std::int32_t>(bind);
            if (!ivStep || (stepSlot >= 0 &&
                            stepSlot != static_cast<int>(j))) {
                sn.summary = "microcode is not width-generic (differs "
                             "beyond the IV step)";
                return;
            }
            stepSlot = static_cast<int>(j);
        }
    }
    if (stepSlot < 0) {
        // Single bind: locate the step directly.
        for (unsigned j = us.bodyFirst; j <= us.bodyLast; ++j) {
            const Inst &in = base.insts[j];
            if (in.op == Opcode::Add && in.hasImm && in.dst == in.src1 &&
                in.imm == static_cast<std::int32_t>(baseBind)) {
                if (stepSlot >= 0) {
                    sn.summary = "ambiguous microcode IV step";
                    return;
                }
                stepSlot = static_cast<int>(j);
            }
        }
        if (stepSlot < 0) {
            sn.summary = "no microcode IV step found";
            return;
        }
    }
    if (stepSlot <= lastStore || stepSlot < static_cast<int>(us.bodyFirst)) {
        sn.summary = "microcode IV step precedes a store (stores are "
                     "width-dependent)";
        return;
    }
    const RegId ivU = base.insts[static_cast<std::size_t>(stepSlot)].dst;

    // ---- symbolic runs ------------------------------------------------
    TermPool pool;

    // Scalar: preamble, then one body iteration at an arbitrary
    // element index nu.
    SymMachine scalar(pool, prog, AddrMode::Lane);
    scalar.initPoisoned("sentry");
    if (ss.bodyFirst > entry_index) {
        const auto r = scalar.runScalarBody(entry_index, ss.bodyFirst - 1,
                                            opts.maxSteps);
        if (!r.ok) {
            sn.summary = "scalar preamble: " + r.why;
            return;
        }
    }
    TermRef nu = pool.param("nu");
    scalar.setReg(ss.iv, nu);
    {
        const auto r = scalar.runScalarBody(ss.bodyFirst, ss.bodyLast,
                                            opts.maxSteps);
        if (!r.ok) {
            sn.summary = "scalar body: " + r.why;
            return;
        }
    }

    // Microcode: preamble, then one body iteration at an arbitrary
    // vector base mu, observed at an arbitrary lane l.
    SymMachine simd(pool, prog, AddrMode::Lane);
    simd.initPoisoned("uentry");
    if (us.bodyFirst > 0) {
        const auto r =
            simd.runUcodeBody(base, 0, us.bodyFirst - 1, opts.maxSteps);
        if (!r.ok) {
            sn.summary = "microcode preamble: " + r.why;
            return;
        }
    }
    TermRef mu = pool.param("mu");
    TermRef lane = pool.param("lane");
    simd.setReg(ivU, mu);
    simd.setLaneParam(lane);
    {
        const auto r = simd.runUcodeBody(base, us.bodyFirst, us.bodyLast,
                                         opts.maxSteps);
        if (!r.ok) {
            sn.summary = "microcode body: " + r.why;
            return;
        }
    }

    // ---- match store sets under nu := mu + lane -----------------------
    std::unordered_map<TermRef, TermRef> sigma;
    sigma[nu] = pool.bin(Opcode::Add, mu, lane, false);

    const auto &sc = scalar.laneCells();
    const auto &uc = simd.laneCells();
    if (sc.size() != uc.size()) {
        sn.summary = "per-iteration store counts differ (" +
                     std::to_string(sc.size()) + " scalar vs " +
                     std::to_string(uc.size()) + " microcode)";
        return;
    }

    std::vector<Obligation> obs;
    std::vector<bool> used(sc.size(), false);
    for (const auto &[ua, ucell] : uc) {
        int match = -1;
        for (std::size_t i = 0; i < sc.size(); ++i) {
            if (used[i])
                continue;
            TermRef sa = pool.substitute(sc[i].first, sigma);
            const auto d = pool.affineDiff(sa, ua);
            if (d && *d == 0) {
                match = static_cast<int>(i);
                break;
            }
        }
        if (match < 0) {
            sn.summary = "a microcode store has no scalar counterpart "
                         "at the corresponding element";
            return;
        }
        used[static_cast<std::size_t>(match)] = true;
        const StoreCell &scell = sc[static_cast<std::size_t>(match)].second;
        if (scell.size != ucell.size) {
            sn.summary = "store sizes differ between scalar and "
                         "microcode";
            return;
        }
        const unsigned bits = scell.size * 8;
        TermRef lhs = foldRoLoads(
            pool, prog,
            pool.ext(bits, false, pool.substitute(scell.value, sigma)));
        TermRef rhs =
            foldRoLoads(pool, prog, pool.ext(bits, false, ucell.value));
        obs.push_back({lhs, rhs, "lane-generic store"});
    }

    std::optional<RangeFacts> rangeFacts;
    if (opts.ranges && opts.ranges->sound)
        rangeFacts.emplace(prog, *opts.ranges, entry_index);
    const DischargeOut d =
        dischargeAll(pool, obs, opts.maxEnumLeaves,
                     rangeFacts ? &*rangeFacts : nullptr);
    sn.obligations = d.obligations;
    sn.enumPoints = d.points;
    if (d.verdict != ProofVerdict::Proved) {
        // Never refute here: the parameters range over a superset of
        // reachable environments, so a mismatch is only a failure to
        // prove. Fall back to the per-width proofs.
        sn.summary = d.verdict == ProofVerdict::Refuted
                         ? "lane-generic obligation not provable "
                           "symbolically (falling back to per-width)"
                         : "unknown: " + d.firstUnknown;
        return;
    }
    sn.proved = true;
    {
        std::ostringstream os;
        os << "width-generic: " << d.obligations
           << " lane obligations proved once for widths";
        for (const unsigned w : opts.widths)
            os << ' ' << w;
        sn.summary = os.str();
    }
    for (const unsigned w : opts.widths) {
        WidthProof wp;
        wp.width = w;
        wp.boundWidth = width_hint ? std::min(w, width_hint) : w;
        wp.verdict = ProofVerdict::Proved;
        wp.widthGeneric = true;
        wp.obligations = d.obligations;
        wp.closedStructural = d.closedStructural;
        wp.closedEnum = d.closedEnum;
        wp.enumPoints = d.points;
        wp.summary = "proved by the width-generic (symbolic-N) proof";
        rp.widths.push_back(std::move(wp));
    }
}

Program
withCeImage(const Program &prog, const Counterexample &ce)
{
    Program mod = prog;
    for (const CeAssignment &a : ce.assigns) {
        if (!a.isMem)
            continue;
        switch (a.size) {
          case 1:
            mod.initByte(a.addr, static_cast<std::uint8_t>(a.value));
            break;
          case 2:
            mod.initHalf(a.addr, static_cast<std::uint16_t>(a.value));
            break;
          default:
            mod.initWord(a.addr, a.value);
            break;
        }
    }
    return mod;
}

} // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const char *
proofVerdictName(ProofVerdict verdict)
{
    switch (verdict) {
      case ProofVerdict::Proved:
        return "proved";
      case ProofVerdict::Refuted:
        return "refuted";
      case ProofVerdict::Unknown:
        return "unknown";
      case ProofVerdict::NoTranslation:
        return "noTranslation";
    }
    return "?";
}

ProofVerdict
worseProofVerdict(ProofVerdict a, ProofVerdict b)
{
    return verdictRank(a) >= verdictRank(b) ? a : b;
}

ProofVerdict
RegionProof::overall() const
{
    ProofVerdict v = ProofVerdict::NoTranslation;
    for (const WidthProof &wp : widths)
        v = worseProofVerdict(v, wp.verdict);
    return v;
}

ProofVerdict
ProgramProof::overall() const
{
    ProofVerdict v = ProofVerdict::NoTranslation;
    for (const RegionProof &rp : regions)
        v = worseProofVerdict(v, rp.overall());
    return v;
}

unsigned
ProgramProof::count(ProofVerdict verdict) const
{
    unsigned n = 0;
    for (const RegionProof &rp : regions)
        n += rp.overall() == verdict ? 1 : 0;
    return n;
}

WidthProof
proveTranslation(const Program &prog, int entry_index,
                 const UcodeEntry &ucode, const RegSet &demand,
                 const ProofOptions &opts)
{
    WidthProof wp;
    wp.width = ucode.simdWidth;
    wp.boundWidth = ucode.simdWidth;

    TermPool pool;

    SymMachine scalar(pool, prog, AddrMode::Concrete);
    scalar.initSharedEntry();
    const auto sres = scalar.runScalarRegion(entry_index, opts.maxSteps);
    if (!sres.ok) {
        wp.verdict = ProofVerdict::Unknown;
        wp.summary = "scalar symbolic execution failed: " + sres.why;
        return wp;
    }

    SymMachine simd(pool, prog, AddrMode::Concrete);
    simd.initSharedEntry();
    const auto ures = simd.runUcode(ucode, opts.maxSteps);
    if (!ures.ok) {
        wp.verdict = ProofVerdict::Unknown;
        wp.summary = "microcode symbolic execution failed: " + ures.why;
        return wp;
    }

    std::vector<Obligation> obs;
    collectStoreObligations(pool, prog, scalar.cells(), simd.cells(),
                            obs);
    for (const RegId r : demand.regs()) {
        obs.push_back({scalar.reg(r), simd.reg(r),
                       "live-out " + regName(r)});
    }

    std::optional<RangeFacts> rangeFacts;
    if (opts.ranges && opts.ranges->sound)
        rangeFacts.emplace(prog, *opts.ranges, entry_index);
    fillFromDischarge(wp,
                      dischargeAll(pool, obs, opts.maxEnumLeaves,
                                   rangeFacts ? &*rangeFacts : nullptr));
    return wp;
}

RegionProof
proveRegion(const Program &prog, int entry_index, unsigned width_hint,
            const RegSet &demand, const ProofOptions &opts)
{
    RegionProof rp;
    rp.entryIndex = entry_index;
    rp.entryLabel = prog.labelAt(entry_index);
    rp.widthHint = width_hint;
    rp.demand = demand;

    if (opts.symbolicN) {
        trySymbolicN(prog, entry_index, width_hint, demand, opts, rp);
        // Feed the width-polymorphic verifier's validity set into the
        // proof record: lane-generic microcode equivalence plus a
        // structural safe-for-all-N verdict extends the claim past
        // the ladder widths the prover enumerated.
        TranslatorConfig config;
        const PolyRegion poly = analyzePoly(prog, entry_index, config);
        rp.symbolicN.polyValidity = poly.validity.summary;
        rp.symbolicN.polyUnbounded =
            poly.validity.structuralUnbounded;
        if (rp.symbolicN.proved) {
            if (rp.symbolicN.polyUnbounded)
                rp.symbolicN.summary +=
                    "; liquid-poly concurs: " + poly.validity.summary;
            return rp;
        }
    }

    for (const unsigned w : opts.widths) {
        WidthProof wp =
            proveAtWidth(prog, entry_index, width_hint, demand, w, opts);
        if (wp.verdict == ProofVerdict::Refuted && wp.ce && opts.replay)
            replayCounterexample(prog, w, *wp.ce);
        rp.widths.push_back(std::move(wp));
    }
    return rp;
}

ProgramProof
proveProgram(const Program &prog, const ProofOptions &opts)
{
    ProgramProof pp;
    const ProgramLiveness pl = solveProgramLiveness(prog);
    for (const HintedCall &call : prog.hintedCalls()) {
        pp.regions.push_back(proveRegion(prog, call.target,
                                         call.widthHint,
                                         pl.demandAt(call.target), opts));
    }
    return pp;
}

bool
replayCounterexample(const Program &prog, unsigned width,
                     Counterexample &ce)
{
    if (!ce.memOnly) {
        ce.replayNote = "replay skipped: counterexample constrains "
                        "non-memory entry state";
        return false;
    }
    const Program mod = withCeImage(prog, ce);
    const ChaosReference ref = makeReference(mod, width);
    const ChaosReport rep =
        checkSchedule(ref, mod, width, FaultSchedule{});
    ce.replayed = true;
    ce.replayConfirmed = !rep.equal;
    ce.replayMismatches = rep.mismatches;
    return ce.replayConfirmed;
}

bool
replayCounterexampleInjected(const Program &prog, unsigned width,
                             const UcodeEntry &ucode, Counterexample &ce)
{
    if (!ce.memOnly) {
        ce.replayNote = "replay skipped: counterexample constrains "
                        "non-memory entry state";
        return false;
    }
    const Program mod = withCeImage(prog, ce);
    const ChaosReference ref = makeReference(mod, width);
    const ChaosReport rep = checkUcodeInjection(ref, mod, width, ucode);
    ce.replayed = true;
    ce.replayConfirmed = !rep.equal;
    ce.replayMismatches = rep.mismatches;
    return ce.replayConfirmed;
}

// ---------------------------------------------------------------------------
// Sabotage suite.
// ---------------------------------------------------------------------------

namespace
{

std::vector<Word>
sabotageData(unsigned n, unsigned salt)
{
    std::vector<Word> v(n);
    for (unsigned i = 0; i < n; ++i) {
        v[i] = static_cast<Word>(
            static_cast<SWord>((i * 37 + salt * 101) % 401) - 200);
    }
    return v;
}

Program
buildSabotageProgram(const vir::Kernel &k,
                     const std::vector<std::string> &ins,
                     const std::vector<std::string> &outs,
                     EmitOptions::Sabotage sabotage, unsigned distance)
{
    Program prog;
    const unsigned n = k.tripCount() + 16;
    unsigned salt = 1;
    for (const std::string &name : ins)
        prog.allocWords(name, sabotageData(n, salt++));
    for (const std::string &name : outs)
        prog.allocData(name, n * 4);

    EmitOptions opts;
    opts.sabotage = sabotage;
    opts.sabotageDistance = distance;
    emitKernel(prog, k, opts);

    prog.defineLabel("main");
    for (int c = 0; c < 3; ++c)
        prog.addInst(Inst::call(-1, true, k.name(), k.maxWidth()));
    prog.addInst(Inst::halt());
    prog.resolveBranches();
    return prog;
}

vir::Kernel
addKernel(const std::string &name)
{
    vir::Kernel k(name, 16, 16);
    const int a = k.load(name + "_in0");
    const int b = k.load(name + "_in1");
    k.store(name + "_out0", k.bin(Opcode::Add, a, b));
    return k;
}

vir::Kernel
permKernel(const std::string &name)
{
    vir::Kernel k(name, 16, 8);
    const int a = k.load(name + "_in0");
    const int b = k.load(name + "_in1");
    const int c = k.bin(Opcode::Add, a, b);
    k.store(name + "_out0", k.perm(c, PermKind::SwapHalves, 4));
    return k;
}

vir::Kernel
cvecKernel(const std::string &name)
{
    vir::Kernel k(name, 16, 8);
    const int a = k.load(name + "_in0");
    k.store(name + "_out0", k.binConst(Opcode::Add, a, {3}));
    return k;
}

} // namespace

std::vector<SabotageOutcome>
runSabotageSuite(const ProofOptions &opts)
{
    std::vector<SabotageOutcome> out;

    auto regionOf = [](const Program &prog) {
        const auto calls = prog.hintedCalls();
        LIQUID_ASSERT(!calls.empty(), "sabotage program has no region");
        return calls.front();
    };

    // ---- abort-class sabotages: translation must not commit ----------
    struct AbortCase
    {
        const char *name;
        EmitOptions::Sabotage sabotage;
    };
    static const AbortCase abortCases[] = {
        {"untranslatableOp", EmitOptions::Sabotage::UntranslatableOp},
        {"nestedCall", EmitOptions::Sabotage::NestedCall},
        {"forwardBranch", EmitOptions::Sabotage::ForwardBranch},
        {"ivArithmetic", EmitOptions::Sabotage::IvArithmetic},
        {"scalarStore", EmitOptions::Sabotage::ScalarStore},
        {"overlapStoreAfterLoad",
         EmitOptions::Sabotage::OverlapStoreAfterLoad},
    };
    for (const AbortCase &c : abortCases) {
        const vir::Kernel k = addKernel(std::string("sab_") + c.name);
        const Program prog = buildSabotageProgram(
            k, {k.name() + "_in0", k.name() + "_in1"},
            {k.name() + "_out0"}, c.sabotage, 1);
        const HintedCall call = regionOf(prog);
        const ProgramLiveness pl = solveProgramLiveness(prog);
        const RegionProof rp =
            proveRegion(prog, call.target, call.widthHint,
                        pl.demandAt(call.target), opts);
        SabotageOutcome o;
        o.name = c.name;
        o.expect = "noTranslation";
        o.verdict = rp.overall();
        o.pass = o.verdict == ProofVerdict::NoTranslation;
        if (!rp.widths.empty())
            o.detail = rp.widths.front().summary;
        out.push_back(std::move(o));
    }

    // ---- miscompile-class sabotages: translation commits, wrongly ----
    struct OverlapCase
    {
        const char *name;
        EmitOptions::Sabotage sabotage;
    };
    static const OverlapCase overlapCases[] = {
        {"overlapStoreStore", EmitOptions::Sabotage::OverlapStoreStore},
        {"overlapLoadAhead", EmitOptions::Sabotage::OverlapLoadAhead},
    };
    for (const OverlapCase &c : overlapCases) {
        const vir::Kernel k = addKernel(std::string("sab_") + c.name);
        const Program prog = buildSabotageProgram(
            k, {k.name() + "_in0", k.name() + "_in1"},
            {k.name() + "_out0"}, c.sabotage, 1);
        const HintedCall call = regionOf(prog);
        const ProgramLiveness pl = solveProgramLiveness(prog);
        ProofOptions popts = opts;
        popts.replay = true;
        const RegionProof rp =
            proveRegion(prog, call.target, call.widthHint,
                        pl.demandAt(call.target), popts);
        SabotageOutcome o;
        o.name = c.name;
        o.expect = "refuted";
        o.verdict = rp.overall();
        bool allRefutedAndReplayed = !rp.widths.empty();
        for (const WidthProof &wp : rp.widths) {
            const bool good = wp.verdict == ProofVerdict::Refuted &&
                              wp.ce && wp.ce->replayed &&
                              wp.ce->replayConfirmed;
            allRefutedAndReplayed = allRefutedAndReplayed && good;
            if (!good && o.detail.empty()) {
                o.detail = "width " + std::to_string(wp.width) + ": " +
                           wp.summary;
            }
        }
        o.replayConfirmed = allRefutedAndReplayed;
        o.pass = allRefutedAndReplayed;
        if (o.pass && !rp.widths.empty())
            o.detail = rp.widths.front().summary;
        out.push_back(std::move(o));
    }

    // ---- microcode mutations: committed entry, corrupted ------------
    struct MutationCase
    {
        const char *name;
        vir::Kernel (*kernel)(const std::string &);
        bool (*mutate)(UcodeEntry &);
    };
    static const MutationCase mutationCases[] = {
        {"abandonedUcodeTail", addKernel,
         [](UcodeEntry &e) {
             if (e.insts.empty())
                 return false;
             e.insts.pop_back();  // drop the backedge: one iteration
             return true;
         }},
        {"wrongOpcode", addKernel,
         [](UcodeEntry &e) {
             for (Inst &in : e.insts) {
                 if (in.op == Opcode::Vadd) {
                     in.op = Opcode::Vsub;
                     return true;
                 }
             }
             return false;
         }},
        {"wrongIvStep", addKernel,
         [](UcodeEntry &e) {
             for (Inst &in : e.insts) {
                 if (in.op == Opcode::Add && in.hasImm &&
                     in.dst == in.src1 &&
                     in.imm ==
                         static_cast<std::int32_t>(e.simdWidth)) {
                     ++in.imm;
                     return true;
                 }
             }
             return false;
         }},
        {"droppedStore", addKernel,
         [](UcodeEntry &e) {
             for (std::size_t j = 0; j < e.insts.size(); ++j) {
                 if (e.insts[j].isStore()) {
                     e.insts.erase(e.insts.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                     return true;
                 }
             }
             return false;
         }},
        {"permFlip", permKernel,
         [](UcodeEntry &e) {
             for (Inst &in : e.insts) {
                 if (in.op == Opcode::Vperm) {
                     in.permKind = in.permKind == PermKind::RotUp
                                       ? PermKind::RotDown
                                       : PermKind::RotUp;
                     return true;
                 }
             }
             return false;
         }},
        {"cvecCorrupt", cvecKernel,
         [](UcodeEntry &e) {
             if (e.cvecs.empty() || e.cvecs[0].lanes.empty())
                 return false;
             e.cvecs[0].lanes[0] += 17;
             return true;
         }},
    };
    const unsigned mutWidth = 4;
    for (const MutationCase &c : mutationCases) {
        const vir::Kernel k = c.kernel(std::string("sab_") + c.name);
        const Program prog = buildSabotageProgram(
            k, {k.name() + "_in0", k.name() + "_in1"},
            {k.name() + "_out0"}, EmitOptions::Sabotage::None, 1);
        const HintedCall call = regionOf(prog);
        const ProgramLiveness pl = solveProgramLiveness(prog);

        SabotageOutcome o;
        o.name = c.name;
        o.expect = "refuted";

        OfflineResult off = translateOffline(prog, call.target, mutWidth,
                                             call.widthHint);
        if (!off.ok) {
            o.detail = "baseline translation failed: " +
                       off.abortReason;
            out.push_back(std::move(o));
            continue;
        }
        UcodeEntry mutated = off.entry;
        if (!c.mutate(mutated)) {
            o.detail = "mutation target not found in microcode";
            out.push_back(std::move(o));
            continue;
        }

        WidthProof wp = proveTranslation(prog, call.target, mutated,
                                         pl.demandAt(call.target), opts);
        o.verdict = wp.verdict;
        o.detail = wp.summary;
        if (wp.verdict == ProofVerdict::Refuted && wp.ce) {
            replayCounterexampleInjected(prog, mutWidth, mutated,
                                         *wp.ce);
            o.replayConfirmed = wp.ce->replayConfirmed;
        }
        o.pass = wp.verdict == ProofVerdict::Refuted && o.replayConfirmed;
        out.push_back(std::move(o));
    }

    return out;
}

} // namespace liquid
