/**
 * @file
 * Environment knobs of the randomized tests, which the nightly CI job
 * sets: sizes and seeds, and where a failing case dumps its program.
 */

#ifndef LIQUID_TESTS_TEST_ENV_HH
#define LIQUID_TESTS_TEST_ENV_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "asm/program.hh"

namespace liquid
{

/**
 * $name, or @p fallback when unset. A set value must be a decimal or
 * 0x-hex number that fits in T, so a typo fails the test instead of
 * shrinking its sweep to nothing.
 */
template <typename T = unsigned>
T
envNumber(const char *name, T fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    const bool hex = v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    const char *digits = hex ? v + 2 : v;
    const auto first = static_cast<unsigned char>(*digits);
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(digits, &end, hex ? 16 : 10);
    // strtoull alone would take "", " 7", "+7" and "-1" (as 2^64-1).
    if (!(hex ? std::isxdigit(first) : std::isdigit(first)) || *end ||
        errno == ERANGE || n > std::numeric_limits<T>::max()) {
        throw std::invalid_argument(
            std::string(name) + "='" + v + "' is not an unsigned " +
            std::to_string(std::numeric_limits<T>::digits) + "-bit number");
    }
    return static_cast<T>(n);
}

/**
 * Write @p note and @p prog's listing to <dir>/<name>.s for replay,
 * where dir is $dir_env, or @p fallback_dir when that is unset or empty.
 */
inline void
dumpListing(const char *dir_env, const char *fallback_dir,
            const std::string &name, const Program &prog,
            const std::string &note = "")
{
    const char *v = std::getenv(dir_env);
    const std::filesystem::path dir = v && *v ? v : fallback_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream out(dir / (name + ".s"));
    out << note << prog.listing();
}

} // namespace liquid

#endif // LIQUID_TESTS_TEST_ENV_HH
