/**
 * @file
 * Option-value parsers shared by the command-line tools (header-only).
 */

#ifndef LIQUID_TOOLS_CLI_ARGS_HH
#define LIQUID_TOOLS_CLI_ARGS_HH

#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace liquid::cli
{

/** Split a comma list into its fields; empty fields are kept. */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(list.substr(pos));
            return out;
        }
        out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
}

/**
 * Parse a --widths value: a comma list of SIMD widths, each 2, 4, 8 or
 * 16. On bad input print a usage error to stderr, leave @p out
 * unchanged and return false.
 */
inline bool
parseWidths(const std::string &list, std::vector<unsigned> &out)
{
    std::vector<unsigned> widths;
    for (const std::string &field : splitList(list)) {
        unsigned w = 0;
        for (const unsigned cand : {2u, 4u, 8u, 16u}) {
            if (field == std::to_string(cand))
                w = cand;
        }
        if (w == 0) {
            std::cerr << "bad --widths '" << list
                      << "': expected a comma list of 2, 4, 8 or 16\n";
            return false;
        }
        widths.push_back(w);
    }
    out = std::move(widths);
    return true;
}

} // namespace liquid::cli

#endif // LIQUID_TOOLS_CLI_ARGS_HH
