/**
 * @file
 * Retire-stream digests of the cycle core: for every suite workload in
 * scalar, liquid (width 8) and native (width 8) mode, fold everything
 * the retire bus reports — each RetireInfo (index, executed, value,
 * memAddr, branchTaken) with the cycle stamp it retired at, every
 * call/return/interrupt notification with its stamp — and the final
 * cycle count into one FNV-1a digest, and compare it with the recorded
 * digests in tests/data/core_retire_digests.txt.
 *
 * The fig6 counters pin totals; this pins the per-retire stream the
 * translator sees, so a core change that moves one stamp or one value
 * shows up here even when the totals happen to agree.
 *
 * On a mismatch the test prints the whole computed table; a
 * deliberate timing change pastes it into the data file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/system.hh"
#include "workloads/workload.hh"

#ifndef LIQUID_SOURCE_DIR
#define LIQUID_SOURCE_DIR "."
#endif

namespace liquid
{
namespace
{

/** FNV-1a over 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Folds the retire bus into a digest and forwards to the translator. */
class DigestSink : public RetireSink
{
  public:
    explicit DigestSink(RetireSink *next) : next_(next) {}

    void
    onRetire(const RetireInfo &info, Cycles now) override
    {
        fnv_.add(1);
        fnv_.add(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(info.index)));
        fnv_.add(info.executed);
        fnv_.add(info.value);
        fnv_.add(info.memAddr);
        fnv_.add(info.branchTaken);
        fnv_.add(now);
        ++retires_;
        if (next_)
            next_->onRetire(info, now);
    }

    void
    onCall(Addr callee_entry, bool hinted, unsigned width_hint,
           Cycles now) override
    {
        fnv_.add(2);
        fnv_.add(callee_entry);
        fnv_.add(hinted);
        fnv_.add(width_hint);
        fnv_.add(now);
        if (next_)
            next_->onCall(callee_entry, hinted, width_hint, now);
    }

    void
    onReturn(Cycles now) override
    {
        fnv_.add(3);
        fnv_.add(now);
        if (next_)
            next_->onReturn(now);
    }

    void
    onInterrupt(Cycles now) override
    {
        fnv_.add(4);
        fnv_.add(now);
        if (next_)
            next_->onInterrupt(now);
    }

    Fnv &fnv() { return fnv_; }
    std::uint64_t retires() const { return retires_; }

  private:
    RetireSink *next_;
    Fnv fnv_;
    std::uint64_t retires_ = 0;
};

struct ModeCase
{
    const char *name;
    ExecMode mode;
    EmitOptions::Mode emit;
};

/** The three modes, built the way the lab builds them. */
const ModeCase modeCases[] = {
    {"scalar", ExecMode::ScalarBaseline, EmitOptions::Mode::InlineScalar},
    {"liquid", ExecMode::Liquid, EmitOptions::Mode::Scalarized},
    {"native", ExecMode::NativeSimd, EmitOptions::Mode::Native},
};

/** "<workload> <mode>" -> "<digest> <cycles> <retires>". */
std::map<std::string, std::string>
computeDigests()
{
    std::map<std::string, std::string> out;
    for (const auto &wl : makeSuite()) {
        for (const ModeCase &mc : modeCases) {
            const auto build = wl->build(mc.emit, 8);
            System sys(SystemConfig::make(mc.mode, 8), build.prog);
            DigestSink sink(mc.mode == ExecMode::Liquid
                                ? &sys.translator()
                                : nullptr);
            sys.core().setRetireSink(&sink);
            sys.run();
            sink.fnv().add(sys.cycles());
            sink.fnv().add(sys.core().instsRetired());

            std::ostringstream line;
            line << std::hex << sink.fnv().value() << std::dec << ' '
                 << sys.cycles() << ' ' << sink.retires();
            out[wl->name() + ' ' + mc.name] = line.str();
        }
    }
    return out;
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string workload, mode, digest, cycles, retires;
    while (in >> workload >> mode >> digest >> cycles >> retires)
        out[workload + ' ' + mode] = digest + ' ' + cycles + ' ' + retires;
    return out;
}

TEST(CoreRetireDigest, SuiteMatchesRecordedStream)
{
    const auto digests = computeDigests();
    ASSERT_EQ(digests.size(), 45u);

    const auto recorded = readDigests(std::string(LIQUID_SOURCE_DIR) +
                                      "/tests/data/core_retire_digests.txt");
    EXPECT_EQ(recorded.size(), digests.size())
        << "tests/data/core_retire_digests.txt is missing or short";
    for (const auto &[key, value] : digests) {
        const auto it = recorded.find(key);
        EXPECT_NE(it, recorded.end()) << key << " not recorded";
        if (it != recorded.end()) {
            EXPECT_EQ(value, it->second)
                << key << ": digest cycles retires differ";
        }
    }

    // A deliberate timing change pastes this table into the data file.
    if (::testing::Test::HasFailure()) {
        std::ostringstream table;
        for (const auto &[key, value] : digests)
            table << key << ' ' << value << '\n';
        ADD_FAILURE() << "computed tests/data/core_retire_digests.txt:\n"
                      << table.str();
    }
}

} // namespace
} // namespace liquid
