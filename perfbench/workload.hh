/**
 * @file
 * The interface the three benchmark workloads implement, plus the
 * standalone compiler-step timing they share.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common.hh"
#include "compiler/compiler.hh"
#include "dag/dag.hh"

namespace perfbench {

/**
 * One benchmark workload. main() runs it in segments — set up, then
 * measure — so set-ups and measurements both spread over the whole
 * run instead of sitting in one stretch of host speed; finish() then
 * turns everything the segments collected into metrics.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs (and, where the workload says so, the
     *  program) once; returns the seconds it took. setup_s is the
     *  median over a run's set-ups. */
    virtual double setUp() = 0;

    /** Run the workload for about `seconds` on the last set-up,
     *  collecting samples; `traced` adds the standalone layer calls
     *  the per-layer split needs. */
    virtual void measure(double seconds, bool traced) = 0;

    /** Metrics from every sample since the previous finish(), which
     *  are then dropped: the end-to-end metrics except setup_s,
     *  peak_rss_mb and ok_frac (main() adds those) and, when
     *  `traced`, the per-layer metrics. */
    virtual PassResult finish(bool traced) = 0;
};

std::unique_ptr<Workload> makeLargePcCompile(const Options &opt);
std::unique_ptr<Workload> makeSptrsvServe(const Options &opt);
std::unique_ptr<Workload> makeDseGrid(const Options &opt);

/**
 * Steps 1 and 2 of compile(), run standalone through their public
 * entry points on the same binarized DAG and partitions compile()
 * uses: binarize, partitionByCount, decomposeRangeIntoBlocks per
 * partition (parallel over options.threads) and assignBanksForRange
 * (boundary-aware and sequential for partitioned DAGs, as compile()
 * does). Each step runs under its own span.
 */
struct StepTimes
{
    double binarizeS = 0;
    double blocksS = 0;
    double banksS = 0;
    size_t blocks = 0; ///< Must equal compile()'s CompileStats::blocks.
};
StepTimes timeCompilerSteps(const dpu::Dag &dag, const dpu::ArchConfig &cfg,
                            const dpu::CompileOptions &options);

/** Relative 1e-9 agreement (exact for infinities; never for NaN). */
bool closeEnough(double got, double want);

/** Simulator outputs vs. the reference value of each output node
 *  (indexed by binarized node id); false on any mismatch. */
bool outputsMatch(const dpu::CompiledProgram &prog,
                  const std::vector<double> &outputs,
                  const std::vector<double> &reference);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
