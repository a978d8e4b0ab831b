#include "asm/assembler.hh"

#include <cctype>
#include <stdexcept>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace liquid
{

namespace
{

/** Assembler working state shared across the two passes. */
struct AsmContext
{
    Program prog;
    std::map<std::string, std::uint32_t> cvecByName;
    int lineNo = 0;

    template <typename... Args>
    [[noreturn]] void
    error(const Args &...args) const
    {
        std::ostringstream os;
        detail::formatInto(os, args...);
        fatal("asm line ", lineNo, ": ", os.str());
    }
};

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    int bracket = 0;
    for (char c : s) {
        if (c == '[')
            ++bracket;
        if (c == ']')
            --bracket;
        if (c == ',' && bracket == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!trim(cur).empty())
        out.push_back(trim(cur));
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

std::optional<std::int64_t>
parseInt(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    std::size_t pos = 0;
    bool neg = false;
    if (s[pos] == '-' || s[pos] == '+') {
        neg = s[pos] == '-';
        ++pos;
    }
    int base = 10;
    if (pos + 1 < s.size() && s[pos] == '0' &&
        (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
        base = 16;
        pos += 2;
    }
    if (pos >= s.size())
        return std::nullopt;
    std::int64_t value = 0;
    for (; pos < s.size(); ++pos) {
        const char c =
            static_cast<char>(std::tolower(static_cast<unsigned char>(s[pos])));
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else
            return std::nullopt;
        if (digit >= base)
            return std::nullopt;
        value = value * base + digit;
    }
    return neg ? -value : value;
}

/** Mnemonic decomposition: opcode, condition, dot-suffix. */
struct Mnemonic
{
    Opcode op;
    Cond cond;
    std::string suffix;  ///< text after '.', e.g. "simd", "bfly8"
};

std::optional<Mnemonic>
parseMnemonic(const std::string &text)
{
    std::string head = text;
    std::string suffix;
    if (auto dot = text.find('.'); dot != std::string::npos) {
        head = text.substr(0, dot);
        suffix = text.substr(dot + 1);
    }

    Opcode op = parseOpcodeName(head);
    if (op != Opcode::NumOpcodes)
        return Mnemonic{op, Cond::AL, suffix};

    if (head.size() > 2) {
        Cond cond;
        if (parseCondName(head.substr(head.size() - 2), cond)) {
            op = parseOpcodeName(head.substr(0, head.size() - 2));
            if (op != Opcode::NumOpcodes)
                return Mnemonic{op, cond, suffix};
        }
    }
    return std::nullopt;
}

/** Parse "[sym + reg + #disp]" (any of reg/disp optional). */
MemRef
parseMemOperand(AsmContext &ctx, const std::string &text)
{
    std::string inner = trim(text);
    if (inner.size() < 2 || inner.front() != '[' || inner.back() != ']')
        ctx.error("expected memory operand, got '", text, "'");
    inner = inner.substr(1, inner.size() - 2);

    MemRef mem;
    bool have_base = false;
    std::string part;
    std::istringstream is(inner);
    while (std::getline(is, part, '+')) {
        part = trim(part);
        if (part.empty())
            ctx.error("empty memory operand component");
        if (part[0] == '#') {
            auto v = parseInt(part.substr(1));
            if (!v)
                ctx.error("bad displacement '", part, "'");
            mem.disp = static_cast<std::int32_t>(*v);
            continue;
        }
        RegId reg = parseRegName(part);
        if (reg.isValid()) {
            if (mem.index.isValid())
                ctx.error("memory operand has two index registers");
            mem.index = reg;
            continue;
        }
        if (have_base)
            ctx.error("memory operand has two base symbols");
        if (!ctx.prog.hasSymbol(part))
            ctx.error("unknown data symbol '", part, "'");
        mem.base = ctx.prog.symbol(part);
        mem.baseSym = part;
        have_base = true;
    }
    if (!have_base)
        ctx.error("memory operand needs a data-symbol base");
    return mem;
}

RegId
parseRegOperand(AsmContext &ctx, const std::string &text)
{
    RegId reg = parseRegName(text);
    if (!reg.isValid())
        ctx.error("expected register, got '", text, "'");
    return reg;
}

std::int32_t
parseImmOperand(AsmContext &ctx, const std::string &text)
{
    if (text.empty() || text[0] != '#')
        ctx.error("expected immediate, got '", text, "'");
    auto v = parseInt(text.substr(1));
    if (!v)
        ctx.error("bad immediate '", text, "'");
    return static_cast<std::int32_t>(*v);
}

void
handleDirective(AsmContext &ctx, const std::string &line)
{
    const auto toks = splitWhitespace(line);
    const std::string &dir = toks[0];

    auto wordsFrom = [&](std::size_t first) {
        std::vector<Word> words;
        for (std::size_t i = first; i < toks.size(); ++i) {
            auto v = parseInt(toks[i]);
            if (!v)
                ctx.error("bad word value '", toks[i], "'");
            words.push_back(static_cast<Word>(
                static_cast<std::int64_t>(*v)));
        }
        return words;
    };

    if (dir == ".data") {
        if (toks.size() < 3 || toks.size() > 4)
            ctx.error(".data needs: name bytes [align]");
        auto bytes = parseInt(toks[2]);
        if (!bytes || *bytes < 0)
            ctx.error("bad .data size");
        std::size_t align = 4;
        if (toks.size() == 4) {
            auto a = parseInt(toks[3]);
            if (!a || *a <= 0)
                ctx.error("bad .data align");
            align = static_cast<std::size_t>(*a);
        }
        ctx.prog.allocData(toks[1], static_cast<std::size_t>(*bytes),
                           align);
    } else if (dir == ".words") {
        if (toks.size() < 3)
            ctx.error(".words needs: name w0 ...");
        ctx.prog.allocWords(toks[1], wordsFrom(2));
    } else if (dir == ".floats") {
        // Word array of IEEE single-precision values.
        if (toks.size() < 3)
            ctx.error(".floats needs: name f0 ...");
        std::vector<Word> words;
        for (std::size_t i = 2; i < toks.size(); ++i) {
            try {
                std::size_t used = 0;
                const float f = std::stof(toks[i], &used);
                if (used != toks[i].size())
                    ctx.error("bad float value '", toks[i], "'");
                words.push_back(floatToBits(f));
            } catch (const std::invalid_argument &) {
                ctx.error("bad float value '", toks[i], "'");
            } catch (const std::out_of_range &) {
                ctx.error("float value out of range '", toks[i], "'");
            }
        }
        ctx.prog.allocWords(toks[1], words);
    } else if (dir == ".rowords") {
        // Read-only word array (compiler constant tables).
        if (toks.size() < 3)
            ctx.error(".rowords needs: name w0 ...");
        ctx.prog.allocRoWords(toks[1], wordsFrom(2));
    } else if (dir == ".cvec") {
        if (toks.size() < 3)
            ctx.error(".cvec needs: name w0 ...");
        if (ctx.cvecByName.count(toks[1]))
            ctx.error("duplicate cvec '", toks[1], "'");
        ctx.cvecByName[toks[1]] =
            ctx.prog.addCvec(ConstVec{wordsFrom(2)});
    } else if (dir == ".text") {
        // Section marker, accepted for readability; no effect.
    } else {
        ctx.error("unknown directive '", dir, "'");
    }
}

/** Parse "bfly8" / "rev4"-style permutation suffixes. */
void
parsePermSuffix(AsmContext &ctx, const std::string &suffix, Inst &inst)
{
    std::size_t digits = suffix.size();
    while (digits > 0 &&
           std::isdigit(static_cast<unsigned char>(suffix[digits - 1])))
        --digits;
    const std::string kind_name = suffix.substr(0, digits);
    auto block = parseInt(suffix.substr(digits));
    if (!block || *block < 2)
        ctx.error("bad permutation block in '", suffix, "'");

    for (unsigned k = 0; k < static_cast<unsigned>(PermKind::NumKinds);
         ++k) {
        if (kind_name == permKindName(static_cast<PermKind>(k))) {
            inst.permKind = static_cast<PermKind>(k);
            inst.permBlock = static_cast<std::uint8_t>(*block);
            return;
        }
    }
    ctx.error("unknown permutation kind '", kind_name, "'");
}

void
handleInstruction(AsmContext &ctx, const std::string &line)
{
    // Split mnemonic from operands.
    std::size_t sp = 0;
    while (sp < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[sp])))
        ++sp;
    const std::string mnemonic_text = line.substr(0, sp);
    const auto operands = splitCommas(trim(line.substr(sp)));

    auto mn = parseMnemonic(mnemonic_text);
    if (!mn)
        ctx.error("unknown mnemonic '", mnemonic_text, "'");

    const OpInfo &info = opInfo(mn->op);
    Inst inst;
    inst.op = mn->op;
    inst.cond = mn->cond;

    auto need = [&](std::size_t n) {
        if (operands.size() != n) {
            ctx.error(info.name, " expects ", n, " operand(s), got ",
                      operands.size());
        }
    };

    switch (mn->op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
        need(0);
        break;

      case Opcode::B:
        need(1);
        inst.targetSym = operands[0];
        break;

      case Opcode::Bl:
        need(1);
        inst.targetSym = operands[0];
        if (!mn->suffix.empty()) {
            if (mn->suffix.rfind("simd", 0) != 0)
                ctx.error("unknown bl suffix '", mn->suffix, "'");
            inst.hinted = true;
            const std::string width = mn->suffix.substr(4);
            if (!width.empty()) {
                auto w = parseInt(width);
                if (!w || *w < 2 || *w > 64)
                    ctx.error("bad bl.simd width '", mn->suffix, "'");
                inst.blWidthHint = static_cast<std::uint8_t>(*w);
            }
        }
        break;

      case Opcode::Cmp:
        need(2);
        inst.src1 = parseRegOperand(ctx, operands[0]);
        if (operands[1][0] == '#') {
            inst.hasImm = true;
            inst.imm = parseImmOperand(ctx, operands[1]);
        } else {
            inst.src2 = parseRegOperand(ctx, operands[1]);
        }
        break;

      case Opcode::Mov:
        need(2);
        inst.dst = parseRegOperand(ctx, operands[0]);
        if (operands[1][0] == '#') {
            inst.hasImm = true;
            inst.imm = parseImmOperand(ctx, operands[1]);
        } else {
            inst.src1 = parseRegOperand(ctx, operands[1]);
        }
        break;

      case Opcode::Vperm:
        need(2);
        inst.dst = parseRegOperand(ctx, operands[0]);
        inst.src1 = parseRegOperand(ctx, operands[1]);
        parsePermSuffix(ctx, mn->suffix, inst);
        break;

      case Opcode::Vmask: {
        need(3);
        inst.dst = parseRegOperand(ctx, operands[0]);
        inst.src1 = parseRegOperand(ctx, operands[1]);
        const std::string &m = operands[2];
        auto slash = m.find('/');
        if (m.empty() || m[0] != '#' || slash == std::string::npos)
            ctx.error("vmask needs #bits/block, got '", m, "'");
        auto bits = parseInt(m.substr(1, slash - 1));
        auto block = parseInt(m.substr(slash + 1));
        if (!bits || !block || *block < 2)
            ctx.error("bad vmask operand '", m, "'");
        inst.maskBits = static_cast<std::uint32_t>(*bits);
        inst.maskBlock = static_cast<std::uint8_t>(*block);
        break;
      }

      default:
        if (info.isLoad) {
            need(2);
            inst.dst = parseRegOperand(ctx, operands[0]);
            inst.mem = parseMemOperand(ctx, operands[1]);
        } else if (info.isStore) {
            need(2);
            inst.mem = parseMemOperand(ctx, operands[0]);
            inst.src1 = parseRegOperand(ctx, operands[1]);
        } else if (info.isReduction) {
            need(2);
            inst.dst = parseRegOperand(ctx, operands[0]);
            inst.src1 = inst.dst;
            inst.src2 = parseRegOperand(ctx, operands[1]);
        } else if (info.isDataProc) {
            need(3);
            inst.dst = parseRegOperand(ctx, operands[0]);
            inst.src1 = parseRegOperand(ctx, operands[1]);
            const std::string &s2 = operands[2];
            if (s2.rfind("cv:", 0) == 0) {
                auto it = ctx.cvecByName.find(s2.substr(3));
                if (it == ctx.cvecByName.end())
                    ctx.error("unknown cvec '", s2, "'");
                inst.cvec = it->second;
            } else if (s2[0] == '#') {
                inst.hasImm = true;
                inst.imm = parseImmOperand(ctx, s2);
            } else {
                inst.src2 = parseRegOperand(ctx, s2);
            }
        } else {
            ctx.error("cannot assemble opcode '", info.name, "'");
        }
        break;
    }

    if (const char *bad = operandClassError(inst))
        ctx.error("'", line, "': ", bad);
    ctx.prog.addInst(std::move(inst));
}

} // namespace

Program
assemble(const std::string &source)
{
    AsmContext ctx;

    std::istringstream is(source);
    std::string raw;
    while (std::getline(is, raw)) {
        ++ctx.lineNo;
        // Strip comments.
        if (auto semi = raw.find(';'); semi != std::string::npos)
            raw = raw.substr(0, semi);
        std::string line = trim(raw);
        if (line.empty())
            continue;

        // Labels (possibly followed by an instruction on the same line).
        while (true) {
            auto colon = line.find(':');
            if (colon == std::string::npos)
                break;
            const std::string head = trim(line.substr(0, colon));
            // "cv:" inside operands also contains ':'; only treat a
            // leading identifier as a label.
            bool is_label = !head.empty();
            for (char c : head) {
                if (!std::isalnum(static_cast<unsigned char>(c)) &&
                    c != '_')
                    is_label = false;
            }
            if (!is_label)
                break;
            ctx.prog.defineLabel(head);
            line = trim(line.substr(colon + 1));
            if (line.empty())
                break;
        }
        if (line.empty())
            continue;

        if (line[0] == '.')
            handleDirective(ctx, line);
        else
            handleInstruction(ctx, line);
    }

    ctx.prog.resolveBranches();
    return ctx.prog;
}

} // namespace liquid
