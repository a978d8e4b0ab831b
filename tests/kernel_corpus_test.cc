/**
 * @file
 * The random-kernel corpus: the programs a seed names are pinned, and
 * a scalarizer rejection is a counted skip.
 *
 * Every randomized test and tool output is recorded on the programs
 * the corpus builds, so the digests below (FNV-1a over each program's
 * listing and data image) pin the generator's draw order and the
 * program layout. They were recorded with the generator as it stood
 * before it moved into src/workloads. A mismatch means every seed now
 * names different kernels; there is no record mode.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/logging.hh"
#include "workloads/kernel_corpus.hh"

namespace liquid
{
namespace
{

std::uint64_t
digest(const Program &prog)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](unsigned char c) {
        h ^= c;
        h *= 0x100000001b3ull;
    };
    for (const char c : prog.listing())
        add(static_cast<unsigned char>(c));
    for (const std::uint8_t b : prog.dataImage())
        add(b);
    return h;
}

TEST(KernelCorpus, FirstProgramsOfSeedOneArePinned)
{
    using Mode = EmitOptions::Mode;
    // [kernel][Scalarized, Native, InlineScalar], width 8, data seed
    // 100 + kernel.
    const std::uint64_t pinned[3][3] = {
        {0x1096b9128307823cull, 0xbfb7ebf930cf3dbfull,
         0x1046066ac84d7c50ull},
        {0x541b177e0a864d0aull, 0x46acd988126884ecull,
         0x16e65e1effd5b0aaull},
        {0x20c4cfc664be893full, 0xdcd0b8592331213aull,
         0x4d290fe4cf328542ull},
    };
    KernelCorpus corpus(1);
    for (unsigned k = 0; k < 3; ++k) {
        corpus.next();
        unsigned m = 0;
        for (const Mode mode :
             {Mode::Scalarized, Mode::Native, Mode::InlineScalar}) {
            Rng data(100 + k);
            EXPECT_EQ(digest(corpus.mustBuild(data, mode, 8)),
                      pinned[k][m++])
                << "kernel " << k << " mode " << static_cast<int>(mode);
        }
    }
    EXPECT_EQ(corpus.skipped(), 0u);
}

TEST(KernelCorpus, SabotagedBuildIsPinned)
{
    KernelCorpus corpus(1);
    corpus.next();
    Rng data(100);
    EXPECT_EQ(digest(corpus.mustBuild(
                  data, EmitOptions::Mode::Scalarized, 8,
                  EmitOptions::Sabotage::OverlapStoreStore, 3)),
              0x473076aee41757cbull);
}

/**
 * Kernel 19 of seed 20261021 runs the scalarizer out of integer
 * registers (the nightly range oracle's first reject at that seed).
 * It is skipped once, however often it is built, and counted under
 * its reason; a caller that needs it gets the FatalError.
 */
TEST(KernelCorpus, RejectedKernelIsSkippedAndCounted)
{
    KernelCorpus corpus(20261021);
    for (unsigned i = 0; i < 20; ++i) {
        corpus.next();
        Rng data(i);
        EXPECT_EQ(corpus.build(data, EmitOptions::Mode::Scalarized, 8)
                      .has_value(),
                  i != 19)
            << "kernel " << i;
    }
    Rng data(19);
    EXPECT_FALSE(corpus.build(data, EmitOptions::Mode::Scalarized, 4));
    EXPECT_THROW(corpus.mustBuild(data, EmitOptions::Mode::Scalarized, 8),
                 FatalError);

    EXPECT_EQ(corpus.skipped(), 1u);
    const std::map<std::string, unsigned> expected = {
        {"scalarizer: out of integer registers", 1}};
    EXPECT_EQ(corpus.skips(), expected);
    EXPECT_EQ(corpus.skipSummary(),
              "1 kernel(s) skipped; scalarizer: out of integer "
              "registers: 1");
}

} // namespace
} // namespace liquid
