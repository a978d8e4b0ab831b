#include "isa/registers.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace liquid
{

std::string
regName(RegId reg)
{
    if (!reg.isValid())
        return "--";
    static const char *prefixes[] = {"r", "f", "v", "vf"};
    return std::string(prefixes[static_cast<unsigned>(reg.cls())]) +
           std::to_string(reg.idx());
}

RegId
parseRegName(const std::string &name)
{
    if (name.size() < 2)
        return RegId::invalid();

    RegClass cls;
    std::size_t digits = 1;
    if (name[0] == 'v') {
        if (name[1] == 'f') {
            cls = RegClass::VFlt;
            digits = 2;
        } else {
            cls = RegClass::Vec;
        }
    } else if (name[0] == 'r') {
        cls = RegClass::Int;
    } else if (name[0] == 'f') {
        cls = RegClass::Flt;
    } else {
        return RegId::invalid();
    }

    if (digits >= name.size())
        return RegId::invalid();
    unsigned idx = 0;
    for (std::size_t i = digits; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i])))
            return RegId::invalid();
        idx = idx * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (idx >= regsPerClass)
        return RegId::invalid();
    return RegId(cls, idx);
}

std::vector<RegId>
RegSet::regs() const
{
    std::vector<RegId> out;
    for (unsigned flat = 0; flat < 64; ++flat) {
        if (bits_ & (1ull << flat))
            out.push_back(RegId::fromFlat(flat));
    }
    return out;
}

std::string
RegSet::str() const
{
    if (empty())
        return "-";
    std::ostringstream os;
    bool first = true;
    for (const RegId reg : regs()) {
        os << (first ? "" : ", ") << regName(reg);
        first = false;
    }
    return os.str();
}

} // namespace liquid
