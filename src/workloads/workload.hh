/**
 * @file
 * Workload framework: each workload mirrors one benchmark from the
 * paper's evaluation suite (SPECfp 92/95/2000, MediaBench, and signal
 * processing kernels — see DESIGN.md, substitution 3). A workload
 * supplies input data, a set of SIMD hot-loop kernels in vector IR, and
 * driver parameters; the framework builds complete programs for the
 * three execution modes and provides a golden-model run.
 */

#ifndef LIQUID_WORKLOADS_WORKLOAD_HH
#define LIQUID_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "memory/main_memory.hh"
#include "scalarizer/scalarizer.hh"
#include "scalarizer/vir.hh"

namespace liquid
{

/** One benchmark. */
class Workload
{
  public:
    /** The catalogue (suite.cc) names each benchmark it makes. */
    explicit Workload(std::string name) : name_(std::move(name)) {}
    virtual ~Workload() = default;

    /** Benchmark name, e.g. "171.swim". */
    const std::string &name() const { return name_; }

    /** Outer iterations: each calls every kernel callsPerRep() times. */
    unsigned
    reps() const
    {
        return repsOverride_ ? repsOverride_ : defaultReps();
    }

    /** Override the outer iteration count (amortization studies). */
    void setReps(unsigned reps) { repsOverride_ = reps; }

    virtual unsigned defaultReps() const { return 4; }

    /**
     * Back-to-back calls of each kernel per outer iteration — the
     * MPEG2 codecs call their 8-element block loops consecutively,
     * which is why the paper's Table 6 shows sub-300-cycle gaps only
     * for them.
     */
    virtual unsigned callsPerRep() const { return 1; }

    /**
     * Iterations of non-vectorizable scalar work per outer iteration
     * (shapes the SIMD-izable fraction S of Amdahl's law, which the
     * paper's Figure 6 speedups depend on).
     */
    virtual unsigned scalarWorkIters() const { return 200; }

    /** Allocate and initialize this workload's data arrays. */
    virtual void setupData(Program &prog) const = 0;

    /** The SIMD hot loops, in vector IR. */
    virtual std::vector<vir::Kernel> makeKernels() const = 0;

    /** Output arrays to verify: (symbol, length in words). */
    virtual std::vector<std::pair<std::string, unsigned>>
    outputs() const = 0;

    // ---- framework-provided -----------------------------------------------

    /** A built program plus per-kernel emission statistics. */
    struct Build
    {
        Program prog;
        std::vector<EmitResult> kernels;
        /** Entry addresses of the outlined kernels (empty if inline). */
        std::vector<Addr> kernelEntries;
    };

    /** Build the program for one execution mode. */
    Build build(EmitOptions::Mode mode, unsigned width = 8,
                bool hinted = true) const;

    /**
     * Golden run: interpret every kernel reps() times over @p mem
     * (freshly loaded from @p build's program) and record accumulator
     * results exactly as the driver does.
     */
    void goldenRun(const Build &build, MainMemory &mem) const;

    /** Name of the array recording kernel @p k / accumulator @p a. */
    std::string accResArray(unsigned k, unsigned a) const;

    /**
     * Read one output array (declared by outputs(), plus accumulator
     * result arrays) from a finished run.
     */
    static std::vector<Word> readArray(const Program &prog,
                                       const MainMemory &mem,
                                       const std::string &name,
                                       unsigned words);

    /** All output arrays including accumulator results. */
    std::vector<std::pair<std::string, unsigned>>
    allOutputs() const;

  private:
    std::string name_;
    unsigned repsOverride_ = 0;
};

/** The fifteen-benchmark suite from the paper's Section 5. */
std::vector<std::unique_ptr<Workload>> makeSuite();

/** The suite's names, in suite order, without building a workload. */
std::vector<std::string> workloadNames();

/**
 * The suite workload called @p name, built alone. An unknown name is a
 * user error: fatal("<errorPrefix>unknown workload '<name>'").
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const char *errorPrefix = "");

/**
 * The suite workloads a --workloads list names, in suite order and
 * each once; an empty list selects the whole suite. An unknown name is
 * fatal, as in makeWorkload.
 */
std::vector<std::unique_ptr<Workload>>
selectWorkloads(const std::vector<std::string> &names);

/** Deterministic data helpers for workload setup. */
std::vector<Word> randomWords(const std::string &seed, unsigned count,
                              std::int32_t lo, std::int32_t hi);
std::vector<Word> randomFloats(const std::string &seed, unsigned count,
                               float lo, float hi);

} // namespace liquid

#endif // LIQUID_WORKLOADS_WORKLOAD_HH
