#include "verifier/range.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "cpu/exec.hh"
#include "verifier/cfg.hh"
#include "verifier/fixpoint.hh"

namespace liquid
{

namespace
{

using I128 = __int128;

std::int64_t
satToI64(I128 v)
{
    if (v > INT64_MAX)
        return INT64_MAX;
    if (v < INT64_MIN)
        return INT64_MIN;
    return static_cast<std::int64_t>(v);
}

/** Any signed-reinterpreted 32-bit register value lies here. */
const Interval top32{INT32_MIN, INT32_MAX};

/** Any 32-bit effective address lies here. */
const Interval addrTop{0, static_cast<std::int64_t>(UINT32_MAX)};

std::uint64_t
gcd64(std::uint64_t a, std::uint64_t b)
{
    while (b != 0) {
        const std::uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Largest power-of-two divisor of @p v (v == 0 maps to 2^31). */
std::uint64_t
pow2Part(std::uint64_t v)
{
    if (v == 0)
        return 1ull << 31;
    std::uint64_t p = v & (~v + 1);
    if (p > (1ull << 31))
        p = 1ull << 31;
    return p;
}

std::string
boundStr(std::int64_t v)
{
    if (v == INT64_MIN)
        return "-inf";
    if (v == INT64_MAX)
        return "+inf";
    return std::to_string(v);
}

/**
 * True when @p inst is a scalar op that writes a register (its dst):
 * the value its retire reports is the one InstFacts::val bounds.
 */
bool
valueTracked(const Inst &inst)
{
    return !inst.isVector() && !instEffects(inst).writes.empty();
}

} // namespace

// ---- Interval --------------------------------------------------------------

Interval
Interval::join(const Interval &o) const
{
    if (empty())
        return o;
    if (o.empty())
        return *this;
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval
Interval::meet(const Interval &o) const
{
    if (empty() || o.empty())
        return bottom();
    return {std::max(lo, o.lo), std::min(hi, o.hi)};
}

Interval
Interval::widen(const Interval &next) const
{
    if (empty())
        return next;
    if (next.empty())
        return *this;
    return {next.lo < lo ? INT64_MIN : lo,
            next.hi > hi ? INT64_MAX : hi};
}

Interval
Interval::narrow(const Interval &next) const
{
    if (empty() || next.empty())
        return next;
    return {lo == INT64_MIN ? next.lo : lo,
            hi == INT64_MAX ? next.hi : hi};
}

Interval
Interval::add(const Interval &o) const
{
    if (empty() || o.empty())
        return bottom();
    return {satToI64(static_cast<I128>(lo) + o.lo),
            satToI64(static_cast<I128>(hi) + o.hi)};
}

Interval
Interval::sub(const Interval &o) const
{
    if (empty() || o.empty())
        return bottom();
    return {satToI64(static_cast<I128>(lo) - o.hi),
            satToI64(static_cast<I128>(hi) - o.lo)};
}

Interval
Interval::neg() const
{
    if (empty())
        return bottom();
    return {satToI64(-static_cast<I128>(hi)),
            satToI64(-static_cast<I128>(lo))};
}

Interval
Interval::mul(const Interval &o) const
{
    if (empty() || o.empty())
        return bottom();
    const I128 p[4] = {static_cast<I128>(lo) * o.lo,
                       static_cast<I128>(lo) * o.hi,
                       static_cast<I128>(hi) * o.lo,
                       static_cast<I128>(hi) * o.hi};
    I128 mn = p[0], mx = p[0];
    for (int i = 1; i < 4; ++i) {
        mn = std::min(mn, p[i]);
        mx = std::max(mx, p[i]);
    }
    return {satToI64(mn), satToI64(mx)};
}

std::string
Interval::str() const
{
    if (empty())
        return "[]";
    if (singleton())
        return "[" + std::to_string(lo) + "]";
    return "[" + boundStr(lo) + "," + boundStr(hi) + "]";
}

// ---- Congruence ------------------------------------------------------------

Congruence
Congruence::make(std::uint64_t mod, std::int64_t rem)
{
    if (mod == 0)
        return {0, rem};
    if (mod == 1 || mod > static_cast<std::uint64_t>(INT64_MAX))
        return top();
    const std::int64_t m = static_cast<std::int64_t>(mod);
    std::int64_t r = rem % m;
    if (r < 0)
        r += m;
    return {mod, r};
}

bool
Congruence::contains(std::int64_t v) const
{
    if (isTop())
        return true;
    if (isConst())
        return v == rem;
    const I128 d = static_cast<I128>(v) - rem;
    return d % static_cast<I128>(mod) == 0;
}

Congruence
Congruence::join(const Congruence &o) const
{
    if (isTop() || o.isTop())
        return top();
    const I128 diff = static_cast<I128>(rem) - o.rem;
    const std::uint64_t ad =
        diff < 0 ? static_cast<std::uint64_t>(-diff)
                 : static_cast<std::uint64_t>(diff);
    const std::uint64_t g = gcd64(gcd64(mod, o.mod), ad);
    if (g == 0)
        return {0, rem};  // both the same constant
    return make(g, rem);
}

Congruence
Congruence::meet(const Congruence &o) const
{
    // Over-approximate: any superset of the intersection is legal, and
    // each operand contains it; keep the stronger operand.
    if (isTop())
        return o;
    if (o.isTop())
        return *this;
    if (isConst())
        return *this;
    if (o.isConst())
        return o;
    return mod >= o.mod ? *this : o;
}

Congruence
Congruence::add(const Congruence &o) const
{
    if (isTop() || o.isTop())
        return top();
    const I128 s = static_cast<I128>(rem) + o.rem;
    const std::uint64_t g = gcd64(mod, o.mod);
    if (g == 0)
        return s == satToI64(s) ? of(static_cast<std::int64_t>(s))
                                : top();
    const I128 m = static_cast<I128>(g);
    return make(g, static_cast<std::int64_t>(((s % m) + m) % m));
}

Congruence
Congruence::sub(const Congruence &o) const
{
    return add(o.neg());
}

Congruence
Congruence::neg() const
{
    if (isTop())
        return top();
    if (isConst())
        return rem == INT64_MIN ? top() : of(-rem);
    return make(mod, -rem);
}

Congruence
Congruence::mul(const Congruence &o) const
{
    if (isTop() || o.isTop())
        return top();
    if (isConst() && o.isConst()) {
        const I128 p = static_cast<I128>(rem) * o.rem;
        return p == satToI64(p) ? of(static_cast<std::int64_t>(p))
                                : top();
    }
    // (m1 Z + r1)(m2 Z + r2) == gcd(m1 m2, m1 r2, m2 r1) Z + r1 r2.
    const I128 mm = static_cast<I128>(mod) * o.mod;
    const I128 mr1 = static_cast<I128>(mod) * (o.rem < 0 ? -o.rem : o.rem);
    const I128 mr2 = static_cast<I128>(o.mod) * (rem < 0 ? -rem : rem);
    const I128 rr = static_cast<I128>(rem) * o.rem;
    const I128 lim = static_cast<I128>(INT64_MAX);
    if (mm > lim || mr1 > lim || mr2 > lim || rr > lim || -rr > lim)
        return top();
    std::uint64_t g = gcd64(static_cast<std::uint64_t>(mm),
                            gcd64(static_cast<std::uint64_t>(mr1),
                                  static_cast<std::uint64_t>(mr2)));
    if (g == 0)
        return of(static_cast<std::int64_t>(rr));
    return make(g, static_cast<std::int64_t>(rr));
}

Congruence
Congruence::pow2() const
{
    if (isTop() || isConst())
        return *this;
    const std::uint64_t p = mod & (~mod + 1);
    const std::uint64_t capped =
        std::min<std::uint64_t>(p, 1ull << 31);
    if (capped <= 1)
        return top();
    return make(capped, rem);
}

std::string
Congruence::str() const
{
    if (isTop())
        return "T";
    if (isConst())
        return "=" + std::to_string(rem);
    return std::to_string(rem) + " mod " + std::to_string(mod);
}

// ---- RangeVal --------------------------------------------------------------

RangeVal
RangeVal::reduce() const
{
    if (iv.empty())
        return bottom();
    RangeVal r = *this;
    if (r.cg.isConst()) {
        r.iv = r.iv.meet(Interval::of(r.cg.rem));
        if (r.iv.empty())
            return bottom();
        return r;
    }
    if (r.cg.mod >= 2 && !r.iv.isTop()) {
        const I128 m = static_cast<I128>(r.cg.mod);
        // Tighten endpoints onto the residue class.
        I128 lo = r.iv.lo, hi = r.iv.hi;
        if (lo != INT64_MIN) {
            I128 d = (static_cast<I128>(r.cg.rem) - lo) % m;
            if (d < 0)
                d += m;
            lo += d;
        }
        if (hi != INT64_MAX) {
            I128 d = (hi - static_cast<I128>(r.cg.rem)) % m;
            if (d < 0)
                d += m;
            hi -= d;
        }
        if (lo > hi)
            return bottom();
        r.iv = Interval::make(satToI64(lo), satToI64(hi));
    }
    if (r.iv.singleton())
        return {r.iv, Congruence::of(r.iv.lo)};
    return r;
}

RangeVal
RangeVal::join(const RangeVal &o) const
{
    if (isBottom())
        return o;
    if (o.isBottom())
        return *this;
    return RangeVal{iv.join(o.iv), cg.join(o.cg)}.reduce();
}

RangeVal
RangeVal::meet(const RangeVal &o) const
{
    return RangeVal{iv.meet(o.iv), cg.meet(o.cg)}.reduce();
}

RangeVal
RangeVal::widen(const RangeVal &next) const
{
    if (isBottom())
        return next;
    if (next.isBottom())
        return *this;
    return RangeVal{iv.widen(next.iv), cg.join(next.cg)}.reduce();
}

RangeVal
RangeVal::narrow(const RangeVal &next) const
{
    if (isBottom() || next.isBottom())
        return next;
    return RangeVal{iv.narrow(next.iv), cg}.reduce();
}

std::string
RangeVal::str() const
{
    if (isBottom())
        return "_|_";
    if (cg.isTop())
        return iv.str();
    return iv.str() + " " + cg.str();
}

// ---- RangeState ------------------------------------------------------------

namespace
{

/**
 * Value range representable in @p size bytes under the register
 * convention (sign-extended 32-bit words). A full-word load fills the
 * register either way, so size >= 4 is always the signed 32-bit range;
 * the zero-extended form only exists for sub-word loads.
 */
Interval
widthRange(unsigned size, bool sign_extend)
{
    if (size >= 4)
        return top32;
    const std::int64_t span = 1ll << (8 * size - 1);
    if (sign_extend)
        return {-span, span - 1};
    return {0, 2 * span - 1};
}

/**
 * Truncate a stored value to the cell's width (signed interpretation
 * of the low @p size bytes).
 */
RangeVal
truncToCell(const RangeVal &v, unsigned size)
{
    if (size >= 4)
        return v;
    const Interval w = widthRange(size, true);
    std::int64_t c;
    if (v.isConst(c)) {
        const std::int64_t span = 1ll << (8 * size);
        std::int64_t t = c & (span - 1);
        if (t >= span / 2)
            t -= span;
        return RangeVal::of(t);
    }
    if (w.containsAll(v.iv))
        return v;
    return {w, Congruence::top()};
}

/** Convert a signed cell value into load semantics at @p size. */
RangeVal
cellToLoad(const RangeVal &v, unsigned size, bool sign_extend)
{
    if (size >= 4 || sign_extend)
        return v;
    // Zero extension: negative cell contents wrap up by 2^(8*size).
    const std::int64_t span = 1ll << (8 * size);
    if (v.iv.lo >= 0)
        return v;
    if (v.iv.hi < 0) {
        return RangeVal{v.iv.add(Interval::of(span)),
                        v.cg.add(Congruence::of(span))}
            .reduce();
    }
    return {widthRange(size, false), Congruence::top()};
}

} // namespace

RangeState
RangeState::everything()
{
    RangeState s;
    s.reachable = true;
    for (auto &r : s.regs)
        r = RangeVal{top32, Congruence::top()};
    s.memHavoc = true;
    return s;
}

RangeVal
RangeState::regAt(RegId id) const
{
    if (!id.isValid())
        return RangeVal{top32, Congruence::top()};
    return regs[id.flat()];
}

void
RangeState::setReg(RegId id, const RangeVal &v)
{
    if (!id.isValid())
        return;
    const int flat = static_cast<int>(id.flat());
    regs[flat] = v;
    if (flat == cmpLhsFlat)
        cmpLhsFlat = -1;
    if (flat == cmpRhsFlat)
        cmpRhsFlat = -1;
}

RangeVal
RangeState::load(const Program &prog, Addr addr, unsigned size,
                 bool sign_extend) const
{
    if (memHavoc)
        return {widthRange(size, sign_extend), Congruence::top()};
    // Any written cell overlapping [addr, addr+size)?
    auto it = cells.lower_bound(addr >= 8 ? addr - 8 : 0);
    for (; it != cells.end() && it->first < addr + size; ++it) {
        if (it->first + it->second.size <= addr)
            continue;
        if (it->first == addr && it->second.size == size)
            return cellToLoad(it->second.val, size, sign_extend);
        // Partial overlap with a differently-shaped write: unknown.
        return {widthRange(size, sign_extend), Congruence::top()};
    }
    // Never written on any path: the initial image's value.
    Word raw = 0;
    if (prog.readInitialElem(addr, size, sign_extend, raw)) {
        return RangeVal::of(
            static_cast<std::int64_t>(static_cast<SWord>(raw)));
    }
    return {widthRange(size, sign_extend), Congruence::top()};
}

void
RangeState::store(const Interval &addr, unsigned size, const RangeVal &v,
                  unsigned sabotage)
{
    if (!addr.singleton() || addr.lo < 0 ||
        addr.lo > static_cast<std::int64_t>(UINT32_MAX)) {
        if (!(sabotage & SabStoreNoHavoc))
            havocMemory();
        return;
    }
    const Addr a = static_cast<Addr>(addr.lo);
    // Poison differently-shaped overlapping cells (partial overwrite).
    auto it = cells.lower_bound(a >= 8 ? a - 8 : 0);
    for (; it != cells.end() && it->first < a + size; ++it) {
        if (it->first + it->second.size <= a)
            continue;
        if (it->first == a && it->second.size == size)
            continue;
        it->second.val =
            RangeVal{widthRange(it->second.size, true), Congruence::top()};
    }
    cells[a] = CellFact{size, truncToCell(v, size)};
}

void
RangeState::havocMemory()
{
    memHavoc = true;
    cells.clear();
}

bool
RangeState::operator==(const RangeState &o) const
{
    if (reachable != o.reachable)
        return false;
    if (!reachable)
        return true;
    if (memHavoc != o.memHavoc || cmpLhsFlat != o.cmpLhsFlat ||
        cmpRhsFlat != o.cmpRhsFlat)
        return false;
    if (!(cmpLhs == o.cmpLhs) || !(cmpRhs == o.cmpRhs))
        return false;
    if (regs != o.regs)
        return false;
    if (cells.size() != o.cells.size())
        return false;
    auto a = cells.begin();
    auto b = o.cells.begin();
    for (; a != cells.end(); ++a, ++b) {
        if (a->first != b->first || a->second.size != b->second.size ||
            !(a->second.val == b->second.val))
            return false;
    }
    return true;
}

void
RangeState::joinWith(const RangeState &o, const Program &prog,
                     unsigned sabotage)
{
    if (!o.reachable)
        return;
    if (!reachable || (sabotage & SabUnsoundJoin)) {
        *this = o;
        return;
    }
    for (std::size_t i = 0; i < regs.size(); ++i)
        regs[i] = regs[i].join(o.regs[i]);
    if (memHavoc || o.memHavoc) {
        havocMemory();
    } else {
        // A cell absent on one side still holds the image's value
        // there; join against it, or drop to width-top when the image
        // does not cover the address.
        auto imageVal = [&](const std::map<Addr, CellFact> &side,
                            Addr addr, unsigned size) -> RangeVal {
            for (auto it = side.lower_bound(addr >= 8 ? addr - 8 : 0);
                 it != side.end() && it->first < addr + size; ++it) {
                if (it->first + it->second.size > addr)
                    return {widthRange(size, true), Congruence::top()};
            }
            Word raw = 0;
            if (prog.readInitialElem(addr, size, true, raw)) {
                return RangeVal::of(
                    static_cast<std::int64_t>(static_cast<SWord>(raw)));
            }
            return {widthRange(size, true), Congruence::top()};
        };
        std::map<Addr, CellFact> merged = cells;
        for (const auto &[addr, cell] : o.cells) {
            auto here = merged.find(addr);
            if (here == merged.end()) {
                merged[addr] = CellFact{
                    cell.size, cell.val.join(imageVal(cells, addr,
                                                      cell.size))};
            } else if (here->second.size == cell.size) {
                here->second.val = here->second.val.join(cell.val);
            } else {
                here->second.val = RangeVal{
                    widthRange(here->second.size, true),
                    Congruence::top()};
            }
        }
        for (auto &[addr, cell] : merged) {
            if (o.cells.find(addr) == o.cells.end()) {
                cell.val =
                    cell.val.join(imageVal(o.cells, addr, cell.size));
            }
        }
        cells = std::move(merged);
    }
    if (cmpLhsFlat == o.cmpLhsFlat && cmpRhsFlat == o.cmpRhsFlat) {
        cmpLhs = cmpLhs.join(o.cmpLhs);
        cmpRhs = cmpRhs.join(o.cmpRhs);
    } else {
        cmpLhsFlat = cmpRhsFlat = -1;
        cmpLhs = cmpRhs = Interval::top();
    }
}

void
RangeState::widenWith(const RangeState &prev)
{
    if (!prev.reachable || !reachable)
        return;
    for (std::size_t i = 0; i < regs.size(); ++i)
        regs[i] = prev.regs[i].widen(regs[i]);
    for (auto &[addr, cell] : cells) {
        auto it = prev.cells.find(addr);
        if (it != prev.cells.end() && it->second.size == cell.size)
            cell.val = it->second.val.widen(cell.val);
    }
    if (cmpLhsFlat == prev.cmpLhsFlat && cmpRhsFlat == prev.cmpRhsFlat) {
        cmpLhs = prev.cmpLhs.widen(cmpLhs);
        cmpRhs = prev.cmpRhs.widen(cmpRhs);
    } else {
        cmpLhsFlat = cmpRhsFlat = -1;
        cmpLhs = cmpRhs = Interval::top();
    }
}

// ---- transfer functions ----------------------------------------------------

namespace
{

struct CalleeEnv
{
    const std::map<int, RangeState> *exits = nullptr;
    const std::map<int, FnSummary> *summaries = nullptr;
};

/** Clamp a computed value into the 32-bit signed value space. */
RangeVal
clampResult(const RangeVal &v, unsigned sabotage)
{
    if (v.isBottom())
        return v;
    if (top32.containsAll(v.iv))
        return v.reduce();
    if (sabotage & SabWrapClamp) {
        // Unsound: pretend overflow saturates instead of wrapping.
        return RangeVal{v.iv.meet(top32), v.cg}.reduce();
    }
    // 32-bit wraparound: the interval is gone, but power-of-two
    // congruences divide 2^32 and survive the wrap.
    return RangeVal{top32, v.cg.pow2()}.reduce();
}

RangeVal
evalRangeOp(Opcode op, const RangeVal &a, const RangeVal &b,
            bool use_float, unsigned sabotage)
{
    const RangeVal topv{top32, Congruence::top()};
    if (a.isBottom() || b.isBottom())
        return RangeVal::bottom();
    std::int64_t ca, cb;
    if (a.isConst(ca) && b.isConst(cb)) {
        const Word r = evalScalarOp(
            op, static_cast<Word>(static_cast<SWord>(ca)),
            static_cast<Word>(static_cast<SWord>(cb)), use_float);
        return RangeVal::of(
            static_cast<std::int64_t>(static_cast<SWord>(r)));
    }
    if (use_float)
        return topv;

    switch (op) {
      case Opcode::Add:
        return clampResult({a.iv.add(b.iv), a.cg.add(b.cg)}, sabotage);
      case Opcode::Sub:
        return clampResult({a.iv.sub(b.iv), a.cg.sub(b.cg)}, sabotage);
      case Opcode::Rsb:
        return clampResult({b.iv.sub(a.iv), b.cg.sub(a.cg)}, sabotage);
      case Opcode::Mul:
        return clampResult({a.iv.mul(b.iv), a.cg.mul(b.cg)}, sabotage);

      case Opcode::And: {
        RangeVal r = topv;
        if (b.isConst(cb) && cb >= 0) {
            std::int64_t hi = cb;
            if (a.iv.lo >= 0)
                hi = std::min(hi, a.iv.hi);
            r.iv = Interval::make(0, hi);
            // Masking off the low k bits proves 2^k alignment.
            const unsigned tz = cb == 0
                                    ? 31
                                    : static_cast<unsigned>(
                                          __builtin_ctzll(
                                              static_cast<std::uint64_t>(
                                                  cb)));
            if (tz > 0)
                r.cg = Congruence::make(1ull << std::min(tz, 31u), 0);
        } else if (a.iv.lo >= 0 && b.iv.lo >= 0) {
            r.iv = Interval::make(0, std::min(a.iv.hi, b.iv.hi));
        }
        return r.reduce();
      }

      case Opcode::Orr:
      case Opcode::Eor: {
        if (a.iv.lo >= 0 && b.iv.lo >= 0) {
            const std::uint64_t m = static_cast<std::uint64_t>(
                std::max(a.iv.hi, b.iv.hi));
            std::uint64_t cover = 1;
            while (cover - 1 < m && cover < (1ull << 31))
                cover <<= 1;
            return RangeVal{Interval::make(
                                0, static_cast<std::int64_t>(cover - 1)),
                            Congruence::top()}
                .reduce();
        }
        return topv;
      }

      case Opcode::Bic:
        if (a.iv.lo >= 0)
            return RangeVal{Interval::make(0, a.iv.hi),
                            Congruence::top()}
                .reduce();
        return topv;

      case Opcode::Lsl:
        if (b.isConst(cb) && cb >= 0) {
            if (cb >= 32)
                return RangeVal::of(0);
            return clampResult(
                {a.iv.mul(Interval::of(1ll << cb)),
                 a.cg.mul(Congruence::of(1ll << cb))},
                sabotage);
        }
        return topv;

      case Opcode::Lsr:
        if (b.isConst(cb) && cb >= 0) {
            if (cb >= 32)
                return RangeVal::of(0);
            if (cb == 0)
                return a;
            if (a.iv.lo >= 0) {
                return RangeVal{Interval::make(a.iv.lo >> cb,
                                               a.iv.hi >> cb),
                                Congruence::top()}
                    .reduce();
            }
            return RangeVal{Interval::make(0, (1ll << (32 - cb)) - 1),
                            Congruence::top()}
                .reduce();
        }
        return topv;

      case Opcode::Asr:
        if (b.isConst(cb) && cb >= 0) {
            const std::int64_t k = std::min<std::int64_t>(cb, 31);
            return RangeVal{Interval::make(a.iv.lo >> k, a.iv.hi >> k),
                            Congruence::top()}
                .reduce();
        }
        // Unknown shift of 0..31: the result stays between the value
        // and its sign (x >= 0 lands in [0, x], x < 0 in [x, -1]).
        return RangeVal{Interval::make(std::min<std::int64_t>(a.iv.lo, 0),
                                       std::max<std::int64_t>(a.iv.hi,
                                                              -1)),
                        Congruence::top()}
            .reduce();

      case Opcode::Min:
        return RangeVal{Interval::make(std::min(a.iv.lo, b.iv.lo),
                                       std::min(a.iv.hi, b.iv.hi)),
                        a.cg.join(b.cg)}
            .reduce();
      case Opcode::Max:
        return RangeVal{Interval::make(std::max(a.iv.lo, b.iv.lo),
                                       std::max(a.iv.hi, b.iv.hi)),
                        a.cg.join(b.cg)}
            .reduce();

      case Opcode::Qadd:
      case Opcode::Qsub: {
        // The hardware clamps the *wrapped* 32-bit result into
        // [satMin, satMax]; with no possible wrap the clamp of the
        // exact result is elementwise monotone, and with a possible
        // wrap the final clamp still bounds the result.
        const Interval s = op == Opcode::Qadd ? a.iv.add(b.iv)
                                              : a.iv.sub(b.iv);
        Interval r{satMin, satMax};
        if (top32.containsAll(s)) {
            r = Interval::make(
                std::clamp<std::int64_t>(s.lo, satMin, satMax),
                std::clamp<std::int64_t>(s.hi, satMin, satMax));
        }
        return RangeVal{r, Congruence::top()}.reduce();
      }

      default:
        return topv;
    }
}

/** Abstract effective address: base + (disp + index) * elemSize. */
RangeVal
evalEa(const RangeState &st, const Inst &inst)
{
    const std::int64_t esize = inst.elemSize();
    RangeVal sum = RangeVal::of(inst.mem.disp);
    if (inst.mem.index.isValid()) {
        const RangeVal idx = st.regAt(inst.mem.index);
        if (idx.isBottom())
            return RangeVal::bottom();
        sum = RangeVal{sum.iv.add(idx.iv), sum.cg.add(idx.cg)};
    }
    RangeVal ea{sum.iv.mul(Interval::of(esize)),
                sum.cg.mul(Congruence::of(esize))};
    ea = RangeVal{ea.iv.add(Interval::of(
                      static_cast<std::int64_t>(inst.mem.base))),
                  ea.cg.add(Congruence::of(
                      static_cast<std::int64_t>(inst.mem.base)))};
    if (addrTop.containsAll(ea.iv))
        return ea.reduce();
    // 32-bit address wrap: keep only the power-of-two stride.
    return RangeVal{addrTop, ea.cg.pow2()}.reduce();
}

void
clearCmp(RangeState &st)
{
    st.cmpLhsFlat = st.cmpRhsFlat = -1;
    st.cmpLhs = st.cmpRhs = Interval::top();
}

void
stepInst(RangeState &st, const Program &prog, const Inst &inst,
         const CalleeEnv &env, unsigned sabotage)
{
    if (!st.reachable)
        return;
    const OpInfo &info = inst.info();
    const bool conditional = inst.cond != Cond::AL;

    auto condWrite = [&](RegId dst, const RangeVal &v) {
        if (!dst.isValid())
            return;
        st.setReg(dst, conditional ? v.join(st.regAt(dst)) : v);
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::B:
      case Opcode::Ret:
        return;

      case Opcode::Mov: {
        const RangeVal v = inst.hasImm ? RangeVal::of(inst.imm)
                                       : st.regAt(inst.src1);
        condWrite(inst.dst, v);
        return;
      }

      case Opcode::Cmp: {
        if (conditional || inst.src1.isFloat()) {
            // A skippable or float compare gives no usable signed
            // relation between register snapshots.
            clearCmp(st);
            return;
        }
        st.cmpLhsFlat = inst.src1.isValid()
                            ? static_cast<int>(inst.src1.flat())
                            : -1;
        st.cmpLhs = st.regAt(inst.src1).iv;
        if (inst.hasImm) {
            st.cmpRhsFlat = -1;
            st.cmpRhs = Interval::of(inst.imm);
        } else {
            st.cmpRhsFlat = inst.src2.isValid()
                                ? static_cast<int>(inst.src2.flat())
                                : -1;
            st.cmpRhs = st.regAt(inst.src2).iv;
        }
        return;
      }

      case Opcode::Bl: {
        clearCmp(st);
        const int target = inst.target;
        const RangeState *exit =
            env.exits ? [&]() -> const RangeState * {
                auto it = env.exits->find(target);
                return it == env.exits->end() ? nullptr : &it->second;
            }()
                      : nullptr;
        const FnSummary *sum =
            env.summaries ? [&]() -> const FnSummary * {
                auto it = env.summaries->find(target);
                return it == env.summaries->end() ? nullptr
                                                  : &it->second;
            }()
                          : nullptr;
        if (!exit || !sum || !exit->reachable) {
            // Unknown callee (or its summary has not stabilized yet):
            // everything it might touch is gone.
            for (auto &r : st.regs)
                r = RangeVal{top32, Congruence::top()};
            st.havocMemory();
            return;
        }
        for (unsigned flat = 0; flat < st.regs.size(); ++flat) {
            if (sum->mayDef.contains(RegId::fromFlat(flat)))
                st.regs[flat] = exit->regs[flat];
        }
        // The callee entry state joins every call site at the joint
        // fixpoint, so its exit cells already account for ours.
        if (exit->memHavoc) {
            st.havocMemory();
        } else {
            st.memHavoc = false;
            st.cells = exit->cells;
        }
        return;
      }

      default:
        break;
    }

    if (info.isLoad) {
        const RangeVal ea = evalEa(st, inst);
        RangeVal v{widthRange(info.memElemSize, info.memSigned),
                   Congruence::top()};
        std::int64_t a;
        if (ea.isConst(a) && a >= 0 &&
            a <= static_cast<std::int64_t>(UINT32_MAX)) {
            v = st.load(prog, static_cast<Addr>(a), info.memElemSize,
                        info.memSigned);
        }
        v = RangeVal{v.iv.meet(widthRange(info.memElemSize,
                                          info.memSigned)),
                     v.cg}
                .reduce();
        condWrite(inst.dst, v);
        return;
    }

    if (info.isStore) {
        const RangeVal ea = evalEa(st, inst);
        RangeVal v = st.regAt(inst.src1);
        if (conditional && ea.iv.singleton() && ea.iv.lo >= 0 &&
            ea.iv.lo <= static_cast<std::int64_t>(UINT32_MAX)) {
            // Weak update: the old contents may survive.
            const RangeVal old =
                st.load(prog, static_cast<Addr>(ea.iv.lo),
                        info.memElemSize, true);
            st.store(ea.iv, info.memElemSize, v.join(old), sabotage);
        } else {
            st.store(ea.iv, info.memElemSize, v, sabotage);
        }
        return;
    }

    if (info.isDataProc) {
        const RangeVal a = st.regAt(inst.src1);
        const RangeVal b = inst.hasImm ? RangeVal::of(inst.imm)
                                       : st.regAt(inst.src2);
        condWrite(inst.dst,
                  evalRangeOp(inst.op, a, b, inst.dst.isFloat(),
                              sabotage));
        return;
    }

    // Vector opcodes and anything unrecognized: havoc the destination.
    if (inst.dst.isValid())
        st.setReg(inst.dst, RangeVal{top32, Congruence::top()});
}

/** Refine @p s knowing relation @p cond between the last cmp's sides. */
void
applyCond(RangeState &s, Cond cond, unsigned sabotage)
{
    if (!s.reachable)
        return;
    const Interval lhs = s.cmpLhs;
    const Interval rhs = s.cmpRhs;
    if (lhs.isTop() && rhs.isTop())
        return;

    auto below = [&](const Interval &b, bool strict) {
        // x <(=) b: x <= b.hi (- 1)
        I128 hi = static_cast<I128>(b.hi);
        if (strict)
            hi -= 1;
        if (sabotage & SabEdgeTighten)
            hi -= 1;  // unsound off-by-one
        if (hi < INT64_MIN)
            return Interval::bottom();
        return Interval::make(INT64_MIN, satToI64(hi));
    };
    auto above = [&](const Interval &b, bool strict) {
        I128 lo = static_cast<I128>(b.lo);
        if (strict)
            lo += 1;
        if (lo > INT64_MAX)
            return Interval::bottom();
        return Interval::make(satToI64(lo), INT64_MAX);
    };

    auto refine = [&](int flat, const Interval &other, bool isLhs) {
        if (flat < 0)
            return;
        Interval c = Interval::top();
        switch (cond) {
          case Cond::LT:
            c = isLhs ? below(other, true) : above(other, true);
            break;
          case Cond::LE:
            c = isLhs ? below(other, false) : above(other, false);
            break;
          case Cond::GT:
            c = isLhs ? above(other, true) : below(other, true);
            break;
          case Cond::GE:
            c = isLhs ? above(other, false) : below(other, false);
            break;
          case Cond::EQ:
            c = other;
            break;
          case Cond::NE: {
            Interval cur = s.regs[flat].iv;
            if (other.singleton() && !cur.empty()) {
                if (cur.lo == other.lo)
                    cur.lo =
                        cur.lo == INT64_MAX ? cur.lo : cur.lo + 1;
                if (cur.hi == other.lo)
                    cur.hi =
                        cur.hi == INT64_MIN ? cur.hi : cur.hi - 1;
                s.regs[flat] =
                    RangeVal{s.regs[flat].iv.meet(cur), s.regs[flat].cg}
                        .reduce();
                if (s.regs[flat].isBottom())
                    s.reachable = false;
            }
            return;
          }
          default:
            return;
        }
        s.regs[flat] =
            RangeVal{s.regs[flat].iv.meet(c), s.regs[flat].cg}.reduce();
        if (s.regs[flat].isBottom())
            s.reachable = false;
    };

    refine(s.cmpLhsFlat, rhs, true);
    refine(s.cmpRhsFlat, lhs, false);
}

Cond
negateCond(Cond cond)
{
    switch (cond) {
      case Cond::EQ: return Cond::NE;
      case Cond::NE: return Cond::EQ;
      case Cond::LT: return Cond::GE;
      case Cond::GE: return Cond::LT;
      case Cond::GT: return Cond::LE;
      case Cond::LE: return Cond::GT;
      default: return Cond::AL;
    }
}

struct RangeProblem
{
    using State = RangeState;
    static constexpr bool forward = true;

    const Program &prog;
    const RegionCfg &cfg;
    const RangeState &entryState;
    CalleeEnv env;
    unsigned sabotage;
    int entryBlock;
    std::vector<bool> loopHead;

    RangeProblem(const Program &p, const RegionCfg &c,
                 const RangeState &entry, CalleeEnv e, unsigned sab)
        : prog(p), cfg(c), entryState(entry), env(e), sabotage(sab),
          entryBlock(c.blockOf(c.entryIndex())),
          loopHead(c.blocks().size(), false)
    {
        for (const CfgLoop &loop : c.loops()) {
            if (loop.headBlock >= 0)
                loopHead[loop.headBlock] = true;
        }
    }

    State initial(std::size_t) { return RangeState::bottom(); }
    bool isBoundary(std::size_t b)
    {
        return static_cast<int>(b) == entryBlock;
    }
    State boundary(std::size_t) { return entryState; }
    bool pinBoundary() { return false; }
    State noEdges(std::size_t) { return RangeState::bottom(); }
    void join(State &acc, const State &o)
    {
        acc.joinWith(o, prog, sabotage);
    }

    void
    edge(std::size_t from, std::size_t to, State &s)
    {
        const BasicBlock &bb = cfg.blocks()[from];
        if (bb.last < 0)
            return;
        const Inst &term = prog.code()[bb.last];
        if (!instEffects(term).condBranch())
            return;
        const int takenB = cfg.blockOf(term.target);
        const int fallB =
            bb.last + 1 < static_cast<int>(prog.code().size())
                ? cfg.blockOf(bb.last + 1)
                : -1;
        if (takenB == fallB)
            return;
        if (static_cast<int>(to) == takenB)
            applyCond(s, term.cond, sabotage);
        else if (static_cast<int>(to) == fallB)
            applyCond(s, negateCond(term.cond), sabotage);
    }

    State
    transfer(std::size_t b, const State &in)
    {
        if (!in.reachable)
            return RangeState::bottom();
        State st = in;
        const BasicBlock &bb = cfg.blocks()[b];
        for (int i = bb.first; i >= 0 && i <= bb.last; ++i)
            stepInst(st, prog, prog.code()[i], env, sabotage);
        return st;
    }

    bool equal(const State &a, const State &b) { return a == b; }
    bool widenAt(std::size_t b) { return loopHead[b]; }
    void widen(State &next, const State &prev)
    {
        next.widenWith(prev);
    }
};

/** Per-iteration step of @p ivFlat inside [first, last]; 0 if messy. */
std::int64_t
loopStep(const Program &prog, int first, int last, unsigned ivFlat,
         int *stepIndex)
{
    std::int64_t step = 0;
    int found = -1;
    for (int i = first; i <= last; ++i) {
        const Inst &inst = prog.code()[i];
        if (!instEffects(inst).writes.contains(RegId::fromFlat(ivFlat)))
            continue;
        const bool isStep =
            (inst.op == Opcode::Add || inst.op == Opcode::Sub) &&
            inst.cond == Cond::AL && inst.hasImm &&
            inst.dst.isValid() && inst.dst.flat() == ivFlat &&
            inst.src1.isValid() && inst.src1.flat() == ivFlat;
        if (!isStep || found >= 0)
            return 0;  // conditional, multiple, or non-affine update
        found = i;
        step = inst.op == Opcode::Add ? inst.imm
                                      : -static_cast<std::int64_t>(
                                            inst.imm);
    }
    if (stepIndex)
        *stepIndex = found;
    return found >= 0 ? step : 0;
}

/** Trip-count interval of one do-while loop; top when underivable. */
Interval
deriveTrip(Cond cond, const Interval &start, const Interval &bound,
           std::int64_t step)
{
    if (step == 0 || start.empty() || bound.empty() || start.isTop() ||
        bound.isTop())
        return Interval::top();

    // Normalize down-counting loops into the up-counting picture.
    Cond c = cond;
    Interval s = start, b = bound;
    std::int64_t k = step;
    if (c == Cond::GT || c == Cond::GE) {
        c = c == Cond::GT ? Cond::LT : Cond::LE;
        s = s.neg();
        b = b.neg();
        k = -k;
    }
    if (k <= 0)
        return Interval::top();

    auto ceilDiv = [](I128 num, std::int64_t den) -> I128 {
        if (num <= 0)
            return 0;
        return (num + den - 1) / den;
    };

    // After t body executions iv == s + t*k; the back edge re-enters
    // while `iv <(=) b` holds after the increment (do-while shape, so
    // t >= 1 always).
    switch (c) {
      case Cond::LT: {
        const I128 tmax = ceilDiv(static_cast<I128>(b.hi) - s.lo, k);
        const I128 tmin = ceilDiv(static_cast<I128>(b.lo) - s.hi, k);
        return Interval::make(
            std::max<std::int64_t>(1, satToI64(tmin)),
            std::max<std::int64_t>(1, satToI64(tmax)));
      }
      case Cond::LE: {
        const I128 tmax =
            (static_cast<I128>(b.hi) - s.lo) >= 0
                ? (static_cast<I128>(b.hi) - s.lo) / k + 1
                : 1;
        const I128 tmin =
            (static_cast<I128>(b.lo) - s.hi) >= 0
                ? (static_cast<I128>(b.lo) - s.hi) / k + 1
                : 1;
        return Interval::make(
            std::max<std::int64_t>(1, satToI64(tmin)),
            std::max<std::int64_t>(1, satToI64(tmax)));
      }
      case Cond::NE: {
        if (!s.singleton() || !b.singleton())
            return Interval::top();
        const I128 d = static_cast<I128>(b.lo) - s.lo;
        if (d <= 0 || d % k != 0)
            return Interval::top();
        return Interval::of(satToI64(d / k));
      }
      default:
        return Interval::top();
    }
}

} // namespace

// ---- interprocedural driver ------------------------------------------------

ProgramRanges
solveProgramRanges(const Program &prog, const RangeSolveOptions &opt)
{
    ProgramRanges pr;
    const ProgramLiveness pl = solveProgramLiveness(prog);
    pr.entries = pl.entries;

    const int mainEntry =
        prog.hasLabel("main") ? prog.labelIndex("main") : 0;

    // Entry environments. The core resets every register to zero and
    // memory to the image before the first instruction, so the program
    // entry's state is exact; bl targets start at bottom and grow from
    // their call sites (never-called targets fall back to everything,
    // staying sound for direct tool invocation).
    std::map<int, RangeState> entryStates;
    std::map<int, RangeState> exitStates;
    for (const int e : pr.entries) {
        RangeState s = RangeState::bottom();
        if (e == mainEntry) {
            s.reachable = true;
            for (auto &r : s.regs)
                r = RangeVal::of(0);
        } else {
            auto fn = pl.fns.find(e);
            if (fn == pl.fns.end() || fn->second.callSites == 0)
                s = RangeState::everything();
        }
        entryStates[e] = std::move(s);
        exitStates[e] = RangeState::bottom();
    }

    const unsigned maxRounds =
        opt.maxRounds ? opt.maxRounds
                      : static_cast<unsigned>(pr.entries.size()) + 3;

    std::map<int, FixSolution<RangeState>> sols;
    bool stable = false;

    FixParams params;
    params.widenDelay = 2;
    params.narrowSweeps = opt.narrowSweeps;

    for (pr.rounds = 0; pr.rounds < maxRounds && !stable; ++pr.rounds) {
        stable = true;
        for (const int e : pr.entries) {
            const RegionCfg &cfg = pl.cfgs.at(e);
            RangeProblem problem(prog, cfg, entryStates.at(e),
                                 CalleeEnv{&exitStates, &pl.summaries},
                                 opt.sabotage);
            FixSolution<RangeState> sol = fixSolve(cfg, problem, params);
            if (!sol.converged)
                pr.sound = false;

            RangeState exit = RangeState::bottom();
            for (std::size_t b = 0; b < cfg.blocks().size(); ++b) {
                if (cfg.blocks()[b].exits)
                    exit.joinWith(sol.out[b], prog, opt.sabotage);
            }
            clearCmp(exit);
            if (!(exitStates.at(e) == exit)) {
                exitStates[e] = std::move(exit);
                stable = false;
            }
            sols[e] = std::move(sol);
        }

        // Post-convergence call-site collection: re-derive the state
        // just before each bl and fold it into the callee's entry.
        std::map<int, RangeState> nextEntries;
        for (const int e : pr.entries)
            nextEntries[e] = RangeState::bottom();
        nextEntries[mainEntry] = entryStates.at(mainEntry);
        for (const int e : pr.entries) {
            const RegionCfg &cfg = pl.cfgs.at(e);
            const FixSolution<RangeState> &sol = sols.at(e);
            for (const int callIdx : cfg.calls()) {
                const Inst &bl = prog.code()[callIdx];
                if (nextEntries.find(bl.target) == nextEntries.end())
                    continue;
                const int b = cfg.blockOf(callIdx);
                if (b < 0 || !sol.in[b].reachable)
                    continue;
                RangeState at = sol.in[b];
                const BasicBlock &bb = cfg.blocks()[b];
                for (int i = bb.first; i < callIdx; ++i) {
                    stepInst(at, prog, prog.code()[i],
                             CalleeEnv{&exitStates, &pl.summaries},
                             opt.sabotage);
                }
                clearCmp(at);
                nextEntries[bl.target].joinWith(at, prog,
                                                opt.sabotage);
            }
        }
        for (const int e : pr.entries) {
            if (e == mainEntry)
                continue;
            auto fn = pl.fns.find(e);
            if (fn != pl.fns.end() && fn->second.callSites == 0)
                nextEntries[e] = RangeState::everything();
            if (!(nextEntries.at(e) == entryStates.at(e))) {
                entryStates[e] = nextEntries.at(e);
                stable = false;
            }
        }
    }
    if (!stable)
        pr.sound = false;

    // Materialize per-function summaries, loop facts and the joined
    // per-instruction facts.
    for (const int e : pr.entries) {
        const RegionCfg &cfg = pl.cfgs.at(e);
        const FixSolution<RangeState> &sol = sols.at(e);
        ProgramRanges::Fn fn;
        fn.entry = entryStates.at(e);
        fn.exit = exitStates.at(e);
        fn.converged = sol.converged;
        auto facts = pl.fns.find(e);
        fn.callSites = facts != pl.fns.end() ? facts->second.callSites
                                             : 0;

        for (const CfgLoop &loop : cfg.loops()) {
            if (loop.headBlock < 0 || loop.latchBlock < 0)
                continue;
            const RangeState &latchOut = sol.out[loop.latchBlock];
            if (!latchOut.reachable || latchOut.cmpLhsFlat < 0)
                continue;
            const Inst &back = prog.code()[loop.backedgeIndex];
            if (!instEffects(back).condBranch())
                continue;
            const unsigned ivFlat =
                static_cast<unsigned>(latchOut.cmpLhsFlat);
            const int first = cfg.blocks()[loop.headBlock].first;
            const int last = cfg.blocks()[loop.latchBlock].last;
            int stepIdx = -1;
            const std::int64_t step =
                loopStep(prog, first, last, ivFlat, &stepIdx);
            if (step == 0)
                continue;
            // The trip formulas assume the increment retires before
            // the latch compare (the canonical do-while shape).
            Interval start = Interval::bottom();
            for (const int p : cfg.blocks()[loop.headBlock].preds) {
                if (p >= loop.headBlock && p <= loop.latchBlock)
                    continue;  // back edge
                if (!sol.out[p].reachable)
                    continue;
                start = start.join(sol.out[p].regs[ivFlat].iv);
            }
            LoopFacts lf;
            lf.headIndex = first;
            lf.ivFlat = ivFlat;
            lf.step = step;
            lf.trip = deriveTrip(back.cond, start, latchOut.cmpRhs,
                                 step);
            lf.known = !lf.trip.isTop() && !lf.trip.empty();
            fn.loops[loop.headBlock] = lf;
        }
        pr.fns[e] = std::move(fn);

        for (std::size_t b = 0; b < cfg.blocks().size(); ++b) {
            RangeState st = sol.in[b];
            if (!st.reachable)
                continue;
            const BasicBlock &bb = cfg.blocks()[b];
            for (int i = bb.first; i >= 0 && i <= bb.last; ++i) {
                const Inst &inst = prog.code()[i];
                InstFacts &f = pr.facts[i];
                if (inst.isMem()) {
                    const RangeVal ea = evalEa(st, inst);
                    if (!ea.isBottom()) {
                        f.addr = f.hasAddr ? f.addr.join(ea.iv)
                                           : ea.iv;
                        f.addrCg = f.hasAddr ? f.addrCg.join(ea.cg)
                                             : ea.cg;
                        f.hasAddr = true;
                    }
                }
                stepInst(st, prog, inst,
                         CalleeEnv{&exitStates, &pl.summaries},
                         opt.sabotage);
                if (valueTracked(inst)) {
                    const RangeVal v = st.regAt(inst.dst);
                    f.val = f.hasVal ? f.val.join(v) : v;
                    f.hasVal = true;
                }
            }
        }
    }
    if (!pr.sound)
        pr.facts.clear();
    return pr;
}

// ---- ProgramRanges ---------------------------------------------------------

const ProgramRanges::Fn *
ProgramRanges::fnAt(int entry) const
{
    auto it = fns.find(entry);
    return it == fns.end() ? nullptr : &it->second;
}

const InstFacts *
ProgramRanges::factsAt(int index) const
{
    auto it = facts.find(index);
    return it == facts.end() ? nullptr : &it->second;
}

Interval
ProgramRanges::tripBound(int entry) const
{
    const Fn *fn = fnAt(entry);
    if (!fn || !sound)
        return Interval::top();
    Interval trip = Interval::bottom();
    bool any = false;
    for (const auto &[head, lf] : fn->loops) {
        if (!lf.known)
            continue;
        trip = trip.join(lf.trip);
        any = true;
    }
    return any ? trip : Interval::top();
}

std::uint64_t
ProgramRanges::accessAlign(int index) const
{
    if (!sound)
        return 1;
    const InstFacts *f = factsAt(index);
    if (!f || !f->hasAddr)
        return 1;
    if (f->addrCg.isConst()) {
        const std::int64_t v = f->addrCg.rem;
        return pow2Part(static_cast<std::uint64_t>(v < 0 ? -v : v));
    }
    if (f->addrCg.isTop())
        return 1;
    const std::uint64_t r = static_cast<std::uint64_t>(
        f->addrCg.rem < 0 ? -f->addrCg.rem : f->addrCg.rem);
    if (r == 0)
        return pow2Part(f->addrCg.mod);
    return pow2Part(gcd64(f->addrCg.mod, r));
}

// ---- RangeFacts ------------------------------------------------------------

RangeFacts::RangeFacts(const Program &prog, const ProgramRanges &ranges,
                       int entry)
    : prog_(prog), ranges_(ranges), fn_(ranges.fnAt(entry))
{
}

bool
RangeFacts::entryReg(RegId reg, Word &value, std::string &fact) const
{
    if (!ranges_.sound || !fn_ || !fn_->entry.reachable ||
        !reg.isScalar())
        return false;
    std::int64_t c;
    if (!fn_->entry.regs[reg.flat()].isConst(c))
        return false;
    value = static_cast<Word>(static_cast<SWord>(c));
    std::ostringstream os;
    os << "entry " << regName(reg) << " = " << c << " over "
       << fn_->callSites << " call site"
       << (fn_->callSites == 1 ? "" : "s");
    fact = os.str();
    return true;
}

bool
RangeFacts::readCell(Addr addr, unsigned size, bool sign_extend,
                     Word &value, std::string &fact) const
{
    if (!ranges_.sound || !fn_ || !fn_->entry.reachable ||
        fn_->entry.memHavoc)
        return false;
    const auto &cells = fn_->entry.cells;
    RangeVal v;
    bool from_image = false;
    auto it = cells.find(addr);
    if (it != cells.end() && it->second.size == size) {
        v = cellToLoad(it->second.val, size, sign_extend);
    } else {
        from_image = true;
        // Absent cell: unwritten on every path to entry, so the image
        // value persists — unless a differently-shaped write overlaps.
        for (auto o = cells.lower_bound(addr >= 8 ? addr - 8 : 0);
             o != cells.end() && o->first < addr + size; ++o) {
            if (o->first + o->second.size > addr)
                return false;
        }
        Word raw = 0;
        if (!prog_.readInitialElem(addr, size, sign_extend, raw))
            return false;
        v = RangeVal::of(
            static_cast<std::int64_t>(static_cast<SWord>(raw)));
    }
    std::int64_t c;
    if (!v.isConst(c))
        return false;
    if (sign_extend) {
        value = static_cast<Word>(static_cast<SWord>(c));
    } else {
        const std::uint64_t mask =
            size >= 4 ? 0xFFFFFFFFull : (1ull << (8 * size)) - 1;
        value = static_cast<Word>(static_cast<std::uint64_t>(c) & mask);
    }
    // Image reads dedupe to one fact per array: every region touches
    // many elements and per-cell lines would drown the report. Cells
    // a prior store pinned keep the exact per-cell constant.
    std::ostringstream os;
    const std::string sym = prog_.symbolAt(addr);
    if (from_image) {
        os << "entry image of ";
        if (!sym.empty())
            os << sym;
        else
            os << "0x" << std::hex << addr << std::dec;
        os << " unwritten before entry";
    } else {
        os << "entry cell ";
        if (!sym.empty())
            os << sym << "+" << addr - prog_.symbol(sym);
        else
            os << "0x" << std::hex << addr << std::dec;
        os << " = " << c;
    }
    fact = os.str();
    return true;
}

// ---- RangeObserver ---------------------------------------------------------

void
RangeObserver::onRetire(const RetireInfo &info, Cycles now)
{
    (void)now;
    if (!ranges_.sound || !info.executed || !info.inst)
        return;
    const Inst &inst = *info.inst;
    const InstFacts *f = ranges_.factsAt(info.index);
    if (!f)
        return;

    const OpInfo &op = inst.info();
    if (valueTracked(inst) && f->hasVal) {
        ++checked_;
        const std::int64_t v =
            static_cast<std::int64_t>(static_cast<SWord>(info.value));
        if (!f->val.contains(v)) {
            std::ostringstream os;
            os << "inst " << info.index << " `" << inst.toString()
               << "`: retired value " << v << " outside "
               << f->val.str();
            violations_.push_back(os.str());
        }
    }
    if (op.memElemSize != 0 && !op.isVector && f->hasAddr &&
        info.memAddr != invalidAddr) {
        ++checked_;
        const std::int64_t a = static_cast<std::int64_t>(info.memAddr);
        if (!f->addr.contains(a) || !f->addrCg.contains(a)) {
            std::ostringstream os;
            os << "inst " << info.index << " `" << inst.toString()
               << "`: address 0x" << std::hex << info.memAddr
               << std::dec << " outside " << f->addr.str() << " "
               << f->addrCg.str();
            violations_.push_back(os.str());
        }
    }
}

} // namespace liquid
