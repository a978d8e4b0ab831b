/**
 * @file
 * The random-kernel corpus that every randomized test and the --random
 * runs of liquid-fast and liquid-poly draw from. next() draws kernel
 * 0, 1, ... from the kernel RNG: random legal vir::Kernels from the
 * rule categories of paper Table 1, with values small enough to be
 * bit-exact at every width. The kernel it returns stays valid until
 * the next call. A caller may draw its own values from that RNG or
 * reseed it; the index keeps counting. build() wraps the current
 * kernel in a program: inputs filled from the caller's data RNG, output
 * arrays, the kernel, and a main with three hinted calls. A scalarizer
 * rejection (FatalError) is a skip, counted once per kernel by reason,
 * e.g. "scalarizer: out of integer registers"; mustBuild() throws it
 * instead. A PanicError is a simulator bug and propagates.
 */

#ifndef LIQUID_WORKLOADS_KERNEL_CORPUS_HH
#define LIQUID_WORKLOADS_KERNEL_CORPUS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "scalarizer/scalarizer.hh"

namespace liquid
{

struct GeneratedKernel
{
    vir::Kernel kernel;
    std::vector<std::string> inputs;   ///< initialized arrays
    std::vector<std::string> outputs;  ///< stored arrays to compare
};

class KernelCorpus
{
  public:
    explicit KernelCorpus(std::uint64_t seed) : rng_(seed) {}

    const GeneratedKernel &next();
    Rng &rng() { return rng_; }

    std::optional<Program>
    build(Rng &data, EmitOptions::Mode mode, unsigned width,
          EmitOptions::Sabotage sabotage = EmitOptions::Sabotage::None,
          unsigned sabotage_distance = 1);
    Program
    mustBuild(Rng &data, EmitOptions::Mode mode, unsigned width,
              EmitOptions::Sabotage sabotage = EmitOptions::Sabotage::None,
              unsigned sabotage_distance = 1) const;

    unsigned skipped() const { return skipped_; }
    const std::map<std::string, unsigned> &skips() const { return skips_; }
    /** "N kernel(s) skipped" plus "; reason: count" per reason. */
    std::string skipSummary() const;

  private:
    Rng rng_;
    unsigned index_ = 0;
    std::optional<GeneratedKernel> kernel_;
    bool kernelSkipped_ = false;
    unsigned skipped_ = 0;
    std::map<std::string, unsigned> skips_;
};

} // namespace liquid

#endif // LIQUID_WORKLOADS_KERNEL_CORPUS_HH
