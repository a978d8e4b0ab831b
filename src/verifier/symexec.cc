#include "verifier/symexec.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <sstream>

#include "common/logging.hh"
#include "cpu/exec.hh"
#include "isa/perm.hh"

namespace liquid::sym
{

namespace
{

/** Monomial: sorted atom term ids. Empty = the constant monomial. */
using Mono = std::vector<unsigned>;
/** Multilinear form over Z/2^32: monomial -> coefficient (nonzero). */
using LinForm = std::map<Mono, Word>;

/** Canonicalization budget: beyond this a term is left structural. */
constexpr std::size_t maxLinMonomials = 64;
constexpr std::size_t maxLinDegree = 4;

bool
isLinOp(Opcode op)
{
    return op == Opcode::Add || op == Opcode::Sub || op == Opcode::Rsb ||
           op == Opcode::Mul;
}

bool
isCommutative(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Orr:
      case Opcode::Eor:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::Qadd:
        return true;
      default:
        return false;
    }
}

void
linAcc(LinForm &into, const Mono &m, Word coeff)
{
    auto it = into.find(m);
    if (it == into.end()) {
        if (coeff != 0)
            into.emplace(m, coeff);
        return;
    }
    it->second += coeff;
    if (it->second == 0)
        into.erase(it);
}

std::optional<LinForm>
linCombine(const LinForm &a, const LinForm &b, Opcode op)
{
    LinForm out;
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Rsb: {
        const LinForm &pos = op == Opcode::Rsb ? b : a;
        const LinForm &other = op == Opcode::Rsb ? a : b;
        out = pos;
        for (const auto &[m, c] : other) {
            linAcc(out, m,
                   op == Opcode::Add ? c : static_cast<Word>(0) - c);
        }
        break;
      }
      case Opcode::Mul: {
        if (a.size() * b.size() > maxLinMonomials)
            return std::nullopt;
        for (const auto &[ma, ca] : a) {
            for (const auto &[mb, cb] : b) {
                if (ma.size() + mb.size() > maxLinDegree)
                    return std::nullopt;
                Mono m;
                m.reserve(ma.size() + mb.size());
                std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
                           std::back_inserter(m));
                linAcc(out, m, ca * cb);
            }
        }
        break;
      }
      default:
        return std::nullopt;
    }
    if (out.size() > maxLinMonomials)
        return std::nullopt;
    return out;
}

/** Serialized linform, usable as an ordered map key. */
std::vector<std::uint64_t>
linKey(const LinForm &lf)
{
    std::vector<std::uint64_t> key;
    key.reserve(lf.size() * 4);
    for (const auto &[m, c] : lf) {
        key.push_back(m.size());
        for (const unsigned a : m)
            key.push_back(a);
        key.push_back(c);
    }
    return key;
}

/** Structural hash of a term's intern identity (everything but id). */
std::uint64_t
internHash(const Term &t)
{
    std::uint64_t h = 0;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
    };
    mix(static_cast<std::uint64_t>(t.kind) |
        static_cast<std::uint64_t>(t.op) << 8 |
        static_cast<std::uint64_t>(t.cond) << 24 |
        static_cast<std::uint64_t>(t.isFloat) << 32 |
        static_cast<std::uint64_t>(t.isSigned) << 33 |
        static_cast<std::uint64_t>(t.nargs) << 34 |
        static_cast<std::uint64_t>(t.bits) << 40);
    mix(t.konst | static_cast<std::uint64_t>(t.sym) << 32);
    mix(t.size);
    for (unsigned i = 0; i < t.nargs; ++i)
        mix(t.args[i]->id);
    return h;
}

bool
sameIntern(const Term &a, const Term &b)
{
    return a.kind == b.kind && a.op == b.op && a.isFloat == b.isFloat &&
           a.cond == b.cond && a.bits == b.bits &&
           a.isSigned == b.isSigned && a.konst == b.konst &&
           a.sym == b.sym && a.size == b.size && a.nargs == b.nargs &&
           a.args == b.args;
}

/** One slot of the open-addressed intern table; term null = empty. */
struct InternSlot
{
    std::uint64_t hash = 0;
    TermRef term = nullptr;
};

/**
 * Arena chunk sizes, in terms: the first chunk is small, so a pool
 * built for one query stays cheap, and each next one doubles up to the
 * cap.
 */
constexpr std::size_t firstTermChunk = 16;
constexpr std::size_t maxTermChunk = 1024;

Word
extend(Word value, unsigned bits, bool is_signed)
{
    if (bits >= 32)
        return value;
    const Word mask = (Word{1} << bits) - 1;
    Word low = value & mask;
    if (is_signed && (low >> (bits - 1)) & 1u)
        low |= ~mask;
    return low;
}

} // namespace

std::string
SymDecl::printName() const
{
    switch (kind) {
      case Kind::Mem: {
        std::ostringstream os;
        os << "mem" << size * 8 << (isSigned ? "s" : "u") << "@0x"
           << std::hex << addr;
        return os.str();
      }
      case Kind::Reg:
        return regName(reg) + "@entry";
      case Kind::CmpInit:
        return "flags@entry";
      case Kind::Param:
      case Kind::Poison:
        break;
    }
    return name;
}

bool
condHoldsSign(Cond cond, int sign)
{
    switch (cond) {
      case Cond::AL: return true;
      case Cond::EQ: return sign == 0;
      case Cond::NE: return sign != 0;
      case Cond::LT: return sign < 0;
      case Cond::LE: return sign <= 0;
      case Cond::GT: return sign > 0;
      case Cond::GE: return sign >= 0;
    }
    return false;
}

struct TermPool::Impl
{
    /** Term storage: chunks never move, so neither does a TermRef. */
    std::vector<std::unique_ptr<Term[]>> chunks;
    std::size_t chunkSize = 0; ///< of chunks.back()
    std::size_t chunkUsed = 0;
    /** Intern table: linear probing, power-of-two size, <= half full. */
    std::vector<InternSlot> interned = std::vector<InternSlot>(32);
    std::size_t internedCount = 0;
    /** Memory symbols by (addr << 8 | size << 1 | signed). */
    std::unordered_map<std::uint64_t, TermRef> memSyms;
    std::map<unsigned, TermRef> regSyms; ///< by flat id
    TermRef cmpInit = nullptr;
    std::map<std::string, TermRef> params;
    std::map<std::string, TermRef> poisons;
    /**
     * Lazily derived polynomial of each integer term, by term id:
     * 0 = not derived yet, 1 = atom, k + 2 = forms[k]. A deque, so a
     * form's address survives later derivations.
     */
    std::vector<std::uint32_t> linSlot;
    std::deque<LinForm> forms;
    /** Canonical term for each polynomial already materialized. */
    std::map<std::vector<std::uint64_t>, TermRef> linTerms;

    const LinForm *linOf(TermRef t);
    void setLin(TermRef t, std::optional<LinForm> lf);
    Term *allocTerm();
    void growInterned();
};

void
TermPool::Impl::setLin(TermRef t, std::optional<LinForm> lf)
{
    if (linSlot.size() <= t->id)
        linSlot.resize(t->id + 1, 0);
    if (!lf) {
        linSlot[t->id] = 1;
        return;
    }
    linSlot[t->id] = static_cast<std::uint32_t>(forms.size() + 2);
    forms.push_back(std::move(*lf));
}

const LinForm *
TermPool::Impl::linOf(TermRef t)
{
    if (t->id < linSlot.size() && linSlot[t->id] != 0) {
        const std::uint32_t s = linSlot[t->id];
        return s == 1 ? nullptr : &forms[s - 2];
    }

    std::optional<LinForm> lf;
    if (t->kind == TermKind::Const) {
        LinForm f;
        if (t->konst != 0)
            f.emplace(Mono{}, t->konst);
        lf = std::move(f);
    } else if (t->kind == TermKind::Bin && !t->isFloat &&
               isLinOp(t->op)) {
        const LinForm *la = linOf(t->args[0]);
        const LinForm *lb = linOf(t->args[1]);
        LinForm atomA, atomB;
        if (!la) {
            atomA.emplace(Mono{t->args[0]->id}, 1u);
            la = &atomA;
        }
        if (!lb) {
            atomB.emplace(Mono{t->args[1]->id}, 1u);
            lb = &atomB;
        }
        lf = linCombine(*la, *lb, t->op);
    }
    // Everything else — and overflowing polynomials — is an atom;
    // callers wrap the term itself as the monomial.
    const bool atom = !lf;
    setLin(t, std::move(lf));
    return atom ? nullptr : &forms.back();
}

Term *
TermPool::Impl::allocTerm()
{
    if (chunkUsed == chunkSize) {
        chunkSize = chunkSize == 0 ? firstTermChunk
                                   : std::min(2 * chunkSize, maxTermChunk);
        chunks.push_back(std::make_unique<Term[]>(chunkSize));
        chunkUsed = 0;
    }
    return &chunks.back()[chunkUsed++];
}

void
TermPool::Impl::growInterned()
{
    std::vector<InternSlot> bigger(interned.size() * 2);
    const std::size_t mask = bigger.size() - 1;
    for (const InternSlot &s : interned) {
        if (!s.term)
            continue;
        std::size_t i = s.hash & mask;
        while (bigger[i].term)
            i = (i + 1) & mask;
        bigger[i] = s;
    }
    interned = std::move(bigger);
}

TermPool::TermPool() : impl_(std::make_unique<Impl>()) {}
TermPool::~TermPool() = default;

TermRef
TermPool::intern(Term t)
{
    t.poisoned = false;
    for (unsigned i = 0; i < t.nargs; ++i)
        t.poisoned = t.poisoned || t.args[i]->poisoned;
    if (t.kind == TermKind::Sym)
        t.poisoned = decls_[t.sym].kind == SymDecl::Kind::Poison;

    Impl &im = *impl_;
    const std::uint64_t h = internHash(t);
    std::size_t mask = im.interned.size() - 1;
    std::size_t i = h & mask;
    for (; im.interned[i].term; i = (i + 1) & mask) {
        const InternSlot &s = im.interned[i];
        if (s.hash == h && sameIntern(*s.term, t))
            return s.term;
    }
    if (2 * (im.internedCount + 1) > im.interned.size()) {
        im.growInterned();
        mask = im.interned.size() - 1;
        i = h & mask;
        while (im.interned[i].term)
            i = (i + 1) & mask;
    }
    t.id = static_cast<unsigned>(terms_.size());
    Term *slot = im.allocTerm();
    *slot = t;
    terms_.push_back(slot);
    im.interned[i] = {h, slot};
    ++im.internedCount;
    return slot;
}

TermRef
TermPool::konst(Word value)
{
    Term t;
    t.kind = TermKind::Const;
    t.konst = value;
    return intern(t);
}

TermRef
TermPool::symTerm(SymDecl decl)
{
    decls_.push_back(std::move(decl));
    Term t;
    t.kind = TermKind::Sym;
    t.sym = static_cast<unsigned>(decls_.size() - 1);
    return intern(t);
}

TermRef
TermPool::memSym(Addr addr, unsigned size, bool is_signed)
{
    const std::uint64_t key = static_cast<std::uint64_t>(addr) << 8 |
                              size << 1 | (is_signed ? 1u : 0u);
    auto [it, fresh] = impl_->memSyms.try_emplace(key, nullptr);
    if (!fresh)
        return it->second;
    SymDecl d;
    d.kind = SymDecl::Kind::Mem;
    d.addr = addr;
    d.size = size;
    d.isSigned = is_signed;
    it->second = symTerm(std::move(d));
    return it->second;
}

TermRef
TermPool::regSym(RegId reg)
{
    auto it = impl_->regSyms.find(reg.flat());
    if (it != impl_->regSyms.end())
        return it->second;
    SymDecl d;
    d.kind = SymDecl::Kind::Reg;
    d.reg = reg;
    TermRef t = symTerm(std::move(d));
    impl_->regSyms.emplace(reg.flat(), t);
    return t;
}

TermRef
TermPool::cmpInitSym()
{
    if (impl_->cmpInit)
        return impl_->cmpInit;
    SymDecl d;
    d.kind = SymDecl::Kind::CmpInit;
    impl_->cmpInit = symTerm(std::move(d));
    return impl_->cmpInit;
}

TermRef
TermPool::param(const std::string &name)
{
    auto it = impl_->params.find(name);
    if (it != impl_->params.end())
        return it->second;
    SymDecl d;
    d.kind = SymDecl::Kind::Param;
    d.name = name;
    TermRef t = symTerm(std::move(d));
    impl_->params.emplace(name, t);
    return t;
}

TermRef
TermPool::poison(const std::string &name)
{
    auto it = impl_->poisons.find(name);
    if (it != impl_->poisons.end())
        return it->second;
    SymDecl d;
    d.kind = SymDecl::Kind::Poison;
    d.name = "poison:" + name;
    TermRef t = symTerm(std::move(d));
    impl_->poisons.emplace(name, t);
    return t;
}

TermRef
TermPool::rawBin(Opcode op, TermRef a, TermRef b)
{
    Term t;
    t.kind = TermKind::Bin;
    t.op = op;
    t.isFloat = false;
    t.args[0] = a;
    t.args[1] = b;
    t.nargs = 2;
    return intern(t);
}

TermRef
TermPool::bin(Opcode op, TermRef a, TermRef b, bool is_float)
{
    if (a->isConst() && b->isConst())
        return konst(evalScalarOp(op, a->konst, b->konst, is_float));

    if (!is_float) {
        // --- integer polynomial canonicalization -----------------------
        if (isLinOp(op)) {
            const LinForm *la = impl_->linOf(a);
            const LinForm *lb = impl_->linOf(b);
            LinForm atomA, atomB;
            if (!la) {
                atomA.emplace(Mono{a->id}, 1u);
                la = &atomA;
            }
            if (!lb) {
                atomB.emplace(Mono{b->id}, 1u);
                lb = &atomB;
            }
            if (auto lf = linCombine(*la, *lb, op)) {
                // Single-term fast paths.
                if (lf->empty())
                    return konst(0);
                if (lf->size() == 1) {
                    const auto &[m, c] = *lf->begin();
                    if (m.empty())
                        return konst(c);
                    if (m.size() == 1 && c == 1)
                        return terms_[m[0]];
                }
                const auto key = linKey(*lf);
                auto it = impl_->linTerms.find(key);
                if (it != impl_->linTerms.end())
                    return it->second;
                // Materialize the canonical sum-of-monomials term.
                TermRef sum = nullptr;
                Word constTerm = 0;
                for (const auto &[m, c] : *lf) {
                    if (m.empty()) {
                        constTerm = c;
                        continue;
                    }
                    TermRef prod = terms_[m[0]];
                    for (std::size_t i = 1; i < m.size(); ++i)
                        prod = rawBin(Opcode::Mul, prod,
                                      terms_[m[i]]);
                    if (c != 1)
                        prod = rawBin(Opcode::Mul, prod, konst(c));
                    sum = sum ? rawBin(Opcode::Add, sum, prod) : prod;
                }
                if (constTerm != 0) {
                    sum = sum ? rawBin(Opcode::Add, sum, konst(constTerm))
                              : konst(constTerm);
                }
                if (!sum)
                    sum = konst(0);
                impl_->linTerms.emplace(key, sum);
                impl_->setLin(sum, std::move(*lf));
                return sum;
            }
            // Polynomial overflow: keep structural, but still order
            // commutative operands canonically.
        }

        // --- identities / absorption over the bitwise subset -----------
        switch (op) {
          case Opcode::And:
            if (a == b)
                return a;
            if (b->isConst() && b->konst == 0)
                return konst(0);
            if (b->isConst() && b->konst == ~Word{0})
                return a;
            if (a->isConst() && a->konst == 0)
                return konst(0);
            if (a->isConst() && a->konst == ~Word{0})
                return b;
            break;
          case Opcode::Orr:
            if (a == b)
                return a;
            if (b->isConst() && b->konst == 0)
                return a;
            if (b->isConst() && b->konst == ~Word{0})
                return konst(~Word{0});
            if (a->isConst() && a->konst == 0)
                return b;
            if (a->isConst() && a->konst == ~Word{0})
                return konst(~Word{0});
            break;
          case Opcode::Eor:
            if (a == b)
                return konst(0);
            if (b->isConst() && b->konst == 0)
                return a;
            if (a->isConst() && a->konst == 0)
                return b;
            break;
          case Opcode::Bic:
            if (a == b)
                return konst(0);
            if (b->isConst() && b->konst == 0)
                return a;
            if (b->isConst() && b->konst == ~Word{0})
                return konst(0);
            if (a->isConst() && a->konst == 0)
                return konst(0);
            break;
          case Opcode::Lsl:
          case Opcode::Lsr:
            if (b->isConst() && b->konst == 0)
                return a;
            if (b->isConst() && b->konst >= 32)
                return konst(0);
            break;
          case Opcode::Asr:
            if (b->isConst() && b->konst == 0)
                return a;
            break;
          case Opcode::Min:
          case Opcode::Max:
            if (a == b)
                return a;
            break;
          default:
            break;
        }

        if (isCommutative(op) && b->id < a->id)
            std::swap(a, b);
    }

    Term t;
    t.kind = TermKind::Bin;
    t.op = op;
    t.isFloat = is_float;
    t.args[0] = a;
    t.args[1] = b;
    t.nargs = 2;
    return intern(t);
}

TermRef
TermPool::cmp(TermRef a, TermRef b, bool is_float)
{
    if (a->isConst() && b->isConst()) {
        return konst(static_cast<Word>(
            static_cast<SWord>(evalCompare(a->konst, b->konst, is_float))));
    }
    if (a == b && !is_float)
        return konst(0);
    Term t;
    t.kind = TermKind::Cmp;
    t.isFloat = is_float;
    t.args[0] = a;
    t.args[1] = b;
    t.nargs = 2;
    return intern(t);
}

TermRef
TermPool::sel(Cond cond, TermRef sign, TermRef then_t, TermRef else_t)
{
    if (cond == Cond::AL)
        return then_t;
    if (then_t == else_t)
        return then_t;
    if (sign->isConst()) {
        return condHoldsSign(cond, static_cast<int>(
                                       static_cast<SWord>(sign->konst)))
                   ? then_t
                   : else_t;
    }
    Term t;
    t.kind = TermKind::Sel;
    t.cond = cond;
    t.args[0] = sign;
    t.args[1] = then_t;
    t.args[2] = else_t;
    t.nargs = 3;
    return intern(t);
}

TermRef
TermPool::ext(unsigned bits, bool is_signed, TermRef value)
{
    if (bits >= 32)
        return value;
    if (value->isConst())
        return konst(extend(value->konst, bits, is_signed));
    // A narrower extension is unchanged by this one when its result
    // provably re-extends to itself: strictly narrower with a
    // compatible sign (a zero-extended value has a clear sign bit at
    // any wider position; a sign-extended value reproduces under a
    // wider sign extension), or the identical extension repeated.
    // Equal widths with flipped signs do NOT fold: sext8(zext8(x))
    // differs from zext8(x) whenever bit 7 is set.
    if (value->kind == TermKind::Ext &&
        (value->bits < bits ? (!value->isSigned || is_signed)
                            : (value->bits == bits &&
                               value->isSigned == is_signed))) {
        return value;
    }
    if (value->kind == TermKind::Sym) {
        const SymDecl &d = decls_[value->sym];
        if (d.kind == SymDecl::Kind::Mem &&
            (d.size * 8 < bits ? (!d.isSigned || is_signed)
                               : (d.size * 8 == bits &&
                                  d.isSigned == is_signed))) {
            return value; // element value already fits
        }
    }
    Term t;
    t.kind = TermKind::Ext;
    t.bits = bits;
    t.isSigned = is_signed;
    t.args[0] = value;
    t.nargs = 1;
    return intern(t);
}

TermRef
TermPool::load(TermRef addr, unsigned size, bool is_signed)
{
    Term t;
    t.kind = TermKind::Load;
    t.size = size;
    t.isSigned = is_signed;
    t.args[0] = addr;
    t.nargs = 1;
    return intern(t);
}

std::optional<SWord>
TermPool::affineDiff(TermRef a, TermRef b)
{
    if (a == b)
        return 0;
    const LinForm *la = impl_->linOf(a);
    const LinForm *lb = impl_->linOf(b);
    LinForm atomA, atomB;
    if (!la) {
        atomA.emplace(Mono{a->id}, 1u);
        la = &atomA;
    }
    if (!lb) {
        atomB.emplace(Mono{b->id}, 1u);
        lb = &atomB;
    }
    const auto diff = linCombine(*la, *lb, Opcode::Sub);
    if (!diff)
        return std::nullopt;
    if (diff->empty())
        return 0;
    if (diff->size() == 1 && diff->begin()->first.empty())
        return static_cast<SWord>(diff->begin()->second);
    return std::nullopt;
}

std::vector<TermRef>
TermPool::leaves(TermRef t)
{
    std::vector<TermRef> out;
    std::vector<TermRef> stack{t};
    std::unordered_map<TermRef, bool> seen;
    while (!stack.empty()) {
        TermRef cur = stack.back();
        stack.pop_back();
        if (seen[cur])
            continue;
        seen[cur] = true;
        if (cur->isLeaf()) {
            out.push_back(cur);
            if (cur->kind == TermKind::Load)
                continue; // the address is not a value dependency
        }
        for (unsigned i = 0; i < cur->nargs; ++i)
            stack.push_back(cur->args[i]);
    }
    std::sort(out.begin(), out.end(),
              [](TermRef a, TermRef b) { return a->id < b->id; });
    return out;
}

TermRef
TermPool::substitute(TermRef t,
                     const std::unordered_map<TermRef, TermRef> &map)
{
    std::unordered_map<TermRef, TermRef> memo;
    // Recursive lambda via explicit stack-free recursion: depth is
    // bounded by term height, which stays small in Lane mode (the only
    // substitution client).
    std::function<TermRef(TermRef)> go = [&](TermRef cur) -> TermRef {
        auto hit = map.find(cur);
        if (hit != map.end())
            return hit->second;
        auto m = memo.find(cur);
        if (m != memo.end())
            return m->second;
        TermRef out = cur;
        switch (cur->kind) {
          case TermKind::Const:
          case TermKind::Sym:
            break;
          case TermKind::Bin:
            out = bin(cur->op, go(cur->args[0]), go(cur->args[1]),
                      cur->isFloat);
            break;
          case TermKind::Cmp:
            out = cmp(go(cur->args[0]), go(cur->args[1]), cur->isFloat);
            break;
          case TermKind::Sel:
            out = sel(cur->cond, go(cur->args[0]), go(cur->args[1]),
                      go(cur->args[2]));
            break;
          case TermKind::Ext:
            out = ext(cur->bits, cur->isSigned, go(cur->args[0]));
            break;
          case TermKind::Load:
            out = load(go(cur->args[0]), cur->size, cur->isSigned);
            break;
        }
        memo.emplace(cur, out);
        return out;
    };
    return go(t);
}

std::string
TermPool::str(TermRef t) const
{
    std::ostringstream os;
    switch (t->kind) {
      case TermKind::Const:
        os << static_cast<SWord>(t->konst);
        break;
      case TermKind::Sym:
        os << decls_[t->sym].printName();
        break;
      case TermKind::Bin:
        os << "(" << opName(t->op) << (t->isFloat ? ".f " : " ")
           << str(t->args[0]) << " " << str(t->args[1]) << ")";
        break;
      case TermKind::Cmp:
        os << "(cmp" << (t->isFloat ? ".f " : " ") << str(t->args[0])
           << " " << str(t->args[1]) << ")";
        break;
      case TermKind::Sel:
        os << "(sel" << static_cast<int>(t->cond) << " "
           << str(t->args[0]) << " " << str(t->args[1]) << " "
           << str(t->args[2]) << ")";
        break;
      case TermKind::Ext:
        os << "(" << (t->isSigned ? "sext" : "zext") << t->bits << " "
           << str(t->args[0]) << ")";
        break;
      case TermKind::Load:
        os << "(load" << t->size * 8 << (t->isSigned ? "s " : "u ")
           << str(t->args[0]) << ")";
        break;
    }
    return os.str();
}

// ===================================================================
// EvalTape
// ===================================================================

EvalTape::EvalTape(const std::vector<TermRef> &roots,
                   const std::vector<TermRef> &leaves)
    : vals_(leaves.size(), 0)
{
    std::unordered_map<TermRef, std::uint32_t> slot;
    slot.reserve(leaves.size() * 4);
    for (std::size_t i = 0; i < leaves.size(); ++i)
        slot.emplace(leaves[i], static_cast<std::uint32_t>(i));

    // Iterative post-order (terms can be deep chains): a node is
    // emitted after its operands.
    std::vector<std::pair<TermRef, bool>> stack;
    for (const TermRef root : roots) {
        stack.push_back({root, false});
        while (!stack.empty()) {
            const auto [cur, expanded] = stack.back();
            if (slot.count(cur)) {
                stack.pop_back();
                continue;
            }
            LIQUID_ASSERT(!cur->isLeaf(), "EvalTape: unassigned leaf");
            if (!expanded) {
                stack.back().second = true;
                for (unsigned i = 0; i < cur->nargs; ++i) {
                    if (!slot.count(cur->args[i]))
                        stack.push_back({cur->args[i], false});
                }
                continue;
            }
            stack.pop_back();
            const auto dst = static_cast<std::uint32_t>(vals_.size());
            vals_.push_back(cur->isConst() ? cur->konst : 0);
            slot.emplace(cur, dst);
            if (cur->isConst())
                continue;
            Op o{cur->kind, cur->op, cur->isFloat, cur->cond,
                 static_cast<std::uint8_t>(cur->bits), cur->isSigned,
                 dst, 0, 0, 0};
            o.a = slot.at(cur->args[0]);
            if (cur->nargs > 1)
                o.b = slot.at(cur->args[1]);
            if (cur->nargs > 2)
                o.c = slot.at(cur->args[2]);
            ops_.push_back(o);
        }
    }
    roots_.reserve(roots.size());
    for (const TermRef root : roots)
        roots_.push_back(slot.at(root));
}

void
EvalTape::run()
{
    Word *const v = vals_.data();
    const Op *const end = ops_.data() + ops_.size();
    for (const Op *p = ops_.data(); p != end; ++p) {
        const Op &o = *p;
        switch (o.kind) {
          case TermKind::Bin:
            v[o.dst] = evalScalarOp(o.op, v[o.a], v[o.b], o.isFloat);
            break;
          case TermKind::Cmp:
            v[o.dst] = static_cast<Word>(
                static_cast<SWord>(evalCompare(v[o.a], v[o.b], o.isFloat)));
            break;
          case TermKind::Sel:
            v[o.dst] = condHoldsSign(o.cond, static_cast<int>(
                                                 static_cast<SWord>(v[o.a])))
                           ? v[o.b]
                           : v[o.c];
            break;
          case TermKind::Ext:
            v[o.dst] = extend(v[o.a], o.bits, o.isSigned);
            break;
          case TermKind::Const:
          case TermKind::Sym:
          case TermKind::Load:
            break;  // slots, never ops
        }
    }
}

// ===================================================================
// SymMachine
// ===================================================================

SymMachine::SymMachine(TermPool &pool, const Program &prog, AddrMode mode)
    : pool_(pool), prog_(prog), mode_(mode)
{
    regs_.fill(nullptr);
}

void
SymMachine::initSharedEntry()
{
    for (unsigned i = 0; i < regsPerClass; ++i) {
        const RegId ri(RegClass::Int, i);
        const RegId rf(RegClass::Flt, i);
        regs_[ri.flat()] = pool_.regSym(ri);
        regs_[rf.flat()] = pool_.regSym(rf);
    }
    cmp_ = pool_.cmpInitSym();
}

void
SymMachine::initPoisoned(const std::string &tag)
{
    for (unsigned i = 0; i < regsPerClass; ++i) {
        const RegId ri(RegClass::Int, i);
        const RegId rf(RegClass::Flt, i);
        regs_[ri.flat()] = pool_.poison(tag + ":" + regName(ri));
        regs_[rf.flat()] = pool_.poison(tag + ":" + regName(rf));
    }
    cmp_ = pool_.poison(tag + ":flags");
}

TermRef
SymMachine::reg(RegId r) const
{
    LIQUID_ASSERT(r.isScalar());
    return regs_[r.flat()];
}

void
SymMachine::setReg(RegId r, TermRef t)
{
    LIQUID_ASSERT(r.isScalar());
    regs_[r.flat()] = t;
}

bool
SymMachine::fail(MachineResult &res, int index, std::string why)
{
    res.ok = false;
    res.why = std::move(why);
    res.instIndex = index;
    return false;
}

TermRef
SymMachine::memAddrTerm(const Inst &inst)
{
    const unsigned esize = inst.elemSize();
    TermRef index = pool_.konst(static_cast<Word>(inst.mem.disp));
    if (inst.mem.index.isValid()) {
        index = pool_.bin(Opcode::Add, index, reg(inst.mem.index), false);
    }
    TermRef scaled =
        pool_.bin(Opcode::Mul, index, pool_.konst(esize), false);
    return pool_.bin(Opcode::Add, pool_.konst(inst.mem.base), scaled,
                     false);
}

bool
SymMachine::readMem(Addr addr, unsigned size, bool is_signed,
                    TermRef &out, MachineResult &res, int index)
{
    // Overlap scan over written cells (cells are at most 4 bytes).
    auto it = cells_.lower_bound(addr >= 3 ? addr - 3 : 0);
    for (; it != cells_.end() && it->first < addr + size; ++it) {
        const Addr cellAddr = it->first;
        const unsigned cellSize = it->second.size;
        if (cellAddr + cellSize <= addr)
            continue;
        if (cellAddr == addr && cellSize == size) {
            out = size < 4 ? pool_.ext(size * 8, is_signed,
                                       it->second.value)
                           : it->second.value;
            return true;
        }
        return fail(res, index,
                    "mixed-granularity access to stored cell at 0x" +
                        [&] {
                            std::ostringstream os;
                            os << std::hex << addr;
                            return os.str();
                        }());
    }
    Word w = 0;
    if (prog_.isReadOnly(addr) &&
        prog_.readInitialElem(addr, size, is_signed, w)) {
        out = pool_.konst(w);
        return true;
    }
    out = pool_.memSym(addr, size, is_signed);
    return true;
}

bool
SymMachine::writeMem(Addr addr, unsigned size, TermRef value,
                     MachineResult &res, int index)
{
    auto it = cells_.lower_bound(addr >= 3 ? addr - 3 : 0);
    for (; it != cells_.end() && it->first < addr + size; ++it) {
        const Addr cellAddr = it->first;
        const unsigned cellSize = it->second.size;
        if (cellAddr + cellSize <= addr)
            continue;
        if (cellAddr == addr && cellSize == size)
            break; // exact overwrite
        return fail(res, index,
                    "mixed-granularity store over cell at 0x" + [&] {
                        std::ostringstream os;
                        os << std::hex << addr;
                        return os.str();
                    }());
    }
    cells_[addr] = StoreCell{size, value};
    return true;
}

bool
SymMachine::readLane(TermRef addr, unsigned size, bool is_signed,
                     TermRef &out, MachineResult &res, int index)
{
    for (const auto &[cellAddr, cell] : laneCells_) {
        if (cellAddr == addr && cell.size == size) {
            out = size < 4 ? pool_.ext(size * 8, is_signed, cell.value)
                           : cell.value;
            return true;
        }
        const auto diff = pool_.affineDiff(addr, cellAddr);
        if (!diff) {
            return fail(res, index,
                        "load may alias an earlier symbolic store");
        }
        if (*diff > -static_cast<SWord>(size) &&
            *diff < static_cast<SWord>(cell.size)) {
            return fail(res, index,
                        "load overlaps an earlier symbolic store");
        }
    }
    if (addr->isConst()) {
        Word w = 0;
        if (prog_.isReadOnly(addr->konst) &&
            prog_.readInitialElem(addr->konst, size, is_signed, w)) {
            out = pool_.konst(w);
            return true;
        }
    }
    out = pool_.load(addr, size, is_signed);
    return true;
}

bool
SymMachine::writeLane(TermRef addr, unsigned size, TermRef value,
                      MachineResult &res, int index)
{
    for (auto &[cellAddr, cell] : laneCells_) {
        if (cellAddr == addr && cell.size == size) {
            cell.value = value;
            return true;
        }
        const auto diff = pool_.affineDiff(addr, cellAddr);
        if (!diff) {
            return fail(res, index,
                        "store may alias an earlier symbolic store");
        }
        if (*diff > -static_cast<SWord>(size) &&
            *diff < static_cast<SWord>(cell.size)) {
            return fail(res, index,
                        "store overlaps an earlier symbolic store");
        }
    }
    laneCells_.emplace_back(addr, StoreCell{size, value});
    return true;
}

MachineResult
SymMachine::runScalarRegion(int entry_index, std::uint64_t max_steps)
{
    return run(prog_.code(), entry_index,
               static_cast<int>(prog_.code().size()) - 1, true, false,
               nullptr, max_steps);
}

MachineResult
SymMachine::runScalarBody(int first, int last, std::uint64_t max_steps)
{
    return run(prog_.code(), first, last, false, false, nullptr,
               max_steps);
}

MachineResult
SymMachine::runUcode(const UcodeEntry &entry, std::uint64_t max_steps)
{
    return run(entry.insts, 0, static_cast<int>(entry.insts.size()) - 1,
               true, true, &entry, max_steps);
}

MachineResult
SymMachine::runUcodeBody(const UcodeEntry &entry, unsigned first,
                         unsigned last, std::uint64_t max_steps)
{
    return run(entry.insts, static_cast<int>(first),
               static_cast<int>(last), false, true, &entry, max_steps);
}

MachineResult
SymMachine::run(const std::vector<Inst> &code, int first, int last,
                bool follow_branches, bool in_ucode,
                const UcodeEntry *ucode, std::uint64_t max_steps)
{
    MachineResult res;
    int pc = first;
    while (true) {
        if (pc > last || pc < 0 ||
            pc >= static_cast<int>(code.size())) {
            if (in_ucode || !follow_branches)
                break; // microcode/body completes by running off the end
            fail(res, pc, "execution ran past the region");
            break;
        }
        if (++res.steps > max_steps) {
            fail(res, pc, "step budget exhausted");
            break;
        }
        const Inst &inst = code[static_cast<std::size_t>(pc)];
        if (!follow_branches && inst.op == Opcode::B) {
            ++pc; // the caller proved this is the loop's own backedge
            continue;
        }
        int next = pc + 1;
        if (inst.op == Opcode::Ret) {
            if (in_ucode) {
                fail(res, pc, "ret inside microcode");
                break;
            }
            return res; // region exit
        }
        if (!step(inst, pc, ucode, next, res))
            break;
        pc = next;
    }
    if (res.ok && !in_ucode && follow_branches)
        fail(res, pc, "region never reached its ret");
    return res;
}

bool
SymMachine::step(const Inst &inst, int index, const UcodeEntry *ucode,
                 int &next, MachineResult &res)
{
    const OpInfo &info = inst.info();

    if (info.isVector)
        return execVector(inst, index, ucode, res);

    switch (inst.op) {
      case Opcode::Nop:
        return true;
      case Opcode::Halt:
        return fail(res, index, "halt inside region");
      case Opcode::Bl:
        return fail(res, index, "nested call inside region");
      case Opcode::Mov: {
        TermRef value = inst.hasImm
                            ? pool_.konst(static_cast<Word>(inst.imm))
                            : reg(inst.src1);
        if (inst.cond != Cond::AL)
            value = pool_.sel(inst.cond, cmp_, value, reg(inst.dst));
        setReg(inst.dst, value);
        return true;
      }
      case Opcode::Cmp: {
        TermRef a = reg(inst.src1);
        TermRef b = inst.hasImm
                        ? pool_.konst(static_cast<Word>(inst.imm))
                        : reg(inst.src2);
        TermRef s = pool_.cmp(a, b, inst.src1.isFloat());
        cmp_ = inst.cond == Cond::AL
                   ? s
                   : pool_.sel(inst.cond, cmp_, s, cmp_);
        return true;
      }
      case Opcode::B: {
        if (inst.target < 0)
            return fail(res, index, "unresolved branch");
        bool taken = true;
        if (inst.cond != Cond::AL) {
            if (!cmp_->isConst()) {
                return fail(res, index,
                            "branch on data-dependent flags: " +
                                pool_.str(cmp_));
            }
            taken = condHoldsSign(
                inst.cond,
                static_cast<int>(static_cast<SWord>(cmp_->konst)));
        }
        if (taken)
            next = inst.target;
        return true;
      }
      default:
        break;
    }

    if (inst.cond != Cond::AL && (info.isLoad || info.isStore))
        return fail(res, index, "conditional memory operation");

    if (info.isLoad) {
        TermRef addr = memAddrTerm(inst);
        TermRef value = nullptr;
        if (mode_ == AddrMode::Concrete) {
            if (!addr->isConst()) {
                return fail(res, index,
                            "effective address did not fold to a "
                            "constant: " +
                                pool_.str(addr));
            }
            if (!readMem(addr->konst, info.memElemSize, info.memSigned,
                         value, res, index))
                return false;
        } else {
            if (!readLane(addr, info.memElemSize, info.memSigned, value,
                          res, index))
                return false;
        }
        setReg(inst.dst, value);
        return true;
    }

    if (info.isStore) {
        TermRef addr = memAddrTerm(inst);
        TermRef value = reg(inst.src1);
        if (mode_ == AddrMode::Concrete) {
            if (!addr->isConst()) {
                return fail(res, index,
                            "store address did not fold to a "
                            "constant: " +
                                pool_.str(addr));
            }
            return writeMem(addr->konst, info.memElemSize, value, res,
                            index);
        }
        return writeLane(addr, info.memElemSize, value, res, index);
    }

    if (info.isDataProc) {
        TermRef a = reg(inst.src1);
        TermRef b = inst.hasImm
                        ? pool_.konst(static_cast<Word>(inst.imm))
                        : reg(inst.src2);
        TermRef value = pool_.bin(inst.op, a, b, inst.dst.isFloat());
        if (inst.cond != Cond::AL)
            value = pool_.sel(inst.cond, cmp_, value, reg(inst.dst));
        setReg(inst.dst, value);
        return true;
    }

    return fail(res, index,
                std::string("unhandled opcode ") + opName(inst.op));
}

bool
SymMachine::execVector(const Inst &inst, int index,
                       const UcodeEntry *ucode, MachineResult &res)
{
    if (!ucode)
        return fail(res, index, "vector instruction in a scalar region");
    if (inst.cond != Cond::AL)
        return fail(res, index, "conditional vector instruction");

    const OpInfo &info = inst.info();
    const unsigned width = ucode->simdWidth;
    const bool use_float = inst.dst.isFloat();

    auto vecOf = [&](RegId r) -> std::array<TermRef, 16> & {
        auto it = vregs_.find(r.flat());
        if (it == vregs_.end()) {
            std::array<TermRef, 16> lanes{};
            for (unsigned l = 0; l < 16; ++l) {
                lanes[l] = pool_.poison("uninit:" + regName(r) + "[" +
                                        std::to_string(l) + "]");
            }
            it = vregs_.emplace(r.flat(), lanes).first;
        }
        return it->second;
    };
    auto laneOf = [&](RegId r) -> TermRef {
        auto it = laneVregs_.find(r.flat());
        if (it == laneVregs_.end()) {
            it = laneVregs_
                     .emplace(r.flat(),
                              pool_.poison("uninit:" + regName(r)))
                     .first;
        }
        return it->second;
    };

    if (mode_ == AddrMode::Lane) {
        // Width-polymorphic execution: one lane-generic term per vreg.
        LIQUID_ASSERT(lane_, "Lane mode without a lane parameter");
        if (info.isReduction || inst.op == Opcode::Vperm ||
            inst.op == Opcode::Vmask) {
            return fail(res, index,
                        std::string("not lane-generic: ") +
                            opName(inst.op));
        }
        const unsigned esize = info.memElemSize;
        if (info.isLoad) {
            TermRef base = memAddrTerm(inst);
            TermRef addr = pool_.bin(
                Opcode::Add, base,
                pool_.bin(Opcode::Mul, lane_, pool_.konst(esize), false),
                false);
            TermRef value = nullptr;
            if (!readLane(addr, esize, info.memSigned, value, res,
                          index))
                return false;
            laneVregs_[inst.dst.flat()] = value;
            return true;
        }
        if (info.isStore) {
            TermRef base = memAddrTerm(inst);
            TermRef addr = pool_.bin(
                Opcode::Add, base,
                pool_.bin(Opcode::Mul, lane_, pool_.konst(esize), false),
                false);
            return writeLane(addr, esize, laneOf(inst.src1), res, index);
        }
        const Opcode scalar_op = info.scalarEquiv;
        if (scalar_op == Opcode::Nop) {
            return fail(res, index,
                        std::string("no scalar equivalent for ") +
                            opName(inst.op));
        }
        TermRef b = nullptr;
        if (inst.cvec != noCvec) {
            const ConstVec &cv = ucode->cvecs[inst.cvec];
            if (cv.lanes.size() != 1) {
                return fail(res, index,
                            "periodic constant vector is not "
                            "lane-generic");
            }
            b = pool_.konst(cv.lanes[0]);
        } else if (inst.hasImm) {
            b = pool_.konst(static_cast<Word>(inst.imm));
        } else {
            b = laneOf(inst.src2);
        }
        laneVregs_[inst.dst.flat()] =
            pool_.bin(scalar_op, laneOf(inst.src1), b, use_float);
        return true;
    }

    // ---- Concrete mode: explicit per-lane state -----------------------
    if (info.isLoad) {
        TermRef addr = memAddrTerm(inst);
        if (!addr->isConst()) {
            return fail(res, index,
                        "vector load address did not fold: " +
                            pool_.str(addr));
        }
        std::array<TermRef, 16> lanes{};
        for (unsigned l = 0; l < width; ++l) {
            if (!readMem(addr->konst + l * info.memElemSize,
                         info.memElemSize, info.memSigned, lanes[l], res,
                         index))
                return false;
        }
        vregs_[inst.dst.flat()] = lanes;
        return true;
    }
    if (info.isStore) {
        TermRef addr = memAddrTerm(inst);
        if (!addr->isConst()) {
            return fail(res, index,
                        "vector store address did not fold: " +
                            pool_.str(addr));
        }
        auto &lanes = vecOf(inst.src1);
        for (unsigned l = 0; l < width; ++l) {
            if (!writeMem(addr->konst + l * info.memElemSize,
                          info.memElemSize, lanes[l], res, index))
                return false;
        }
        return true;
    }
    if (info.isReduction) {
        const Opcode scalar_op = info.scalarEquiv;
        TermRef out = reg(inst.src1);
        auto &lanes = vecOf(inst.src2);
        for (unsigned l = 0; l < width; ++l)
            out = pool_.bin(scalar_op, out, lanes[l], use_float);
        setReg(inst.dst, out);
        return true;
    }
    if (inst.op == Opcode::Vperm) {
        auto &src = vecOf(inst.src1);
        std::array<TermRef, 16> out{};
        const unsigned block = inst.permBlock;
        for (unsigned l = 0; l < width; ++l) {
            const unsigned base = (l / block) * block;
            out[l] =
                src[base + permSourceLane(inst.permKind, block,
                                          l % block)];
        }
        vregs_[inst.dst.flat()] = out;
        return true;
    }
    if (inst.op == Opcode::Vmask) {
        auto &src = vecOf(inst.src1);
        std::array<TermRef, 16> out{};
        for (unsigned l = 0; l < width; ++l) {
            out[l] = ((inst.maskBits >> (l % inst.maskBlock)) & 1u)
                         ? src[l]
                         : pool_.konst(0);
        }
        vregs_[inst.dst.flat()] = out;
        return true;
    }

    const Opcode scalar_op = info.scalarEquiv;
    if (scalar_op == Opcode::Nop) {
        return fail(res, index,
                    std::string("no scalar equivalent for ") +
                        opName(inst.op));
    }
    auto &a = vecOf(inst.src1);
    std::array<TermRef, 16> out{};
    if (inst.cvec != noCvec) {
        const ConstVec &cv = ucode->cvecs[inst.cvec];
        LIQUID_ASSERT(!cv.lanes.empty());
        for (unsigned l = 0; l < width; ++l) {
            out[l] = pool_.bin(scalar_op, a[l],
                               pool_.konst(cv.lanes[l % cv.lanes.size()]),
                               use_float);
        }
    } else if (inst.hasImm) {
        TermRef b = pool_.konst(static_cast<Word>(inst.imm));
        for (unsigned l = 0; l < width; ++l)
            out[l] = pool_.bin(scalar_op, a[l], b, use_float);
    } else {
        auto &b = vecOf(inst.src2);
        for (unsigned l = 0; l < width; ++l)
            out[l] = pool_.bin(scalar_op, a[l], b[l], use_float);
    }
    vregs_[inst.dst.flat()] = out;
    return true;
}

} // namespace liquid::sym
