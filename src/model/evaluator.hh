/**
 * @file
 * Tiered-fidelity evaluation. The Evaluator makes the evaluation
 * fidelity a per-call choice between two tiers:
 *
 *  - Cycle    — wraps Machine::run unchanged. Ground truth.
 *  - Analytic — static estimate with fixed global event rates; no
 *               simulation. AsyncBatchServer admission uses it to
 *               predict a request without running it.
 *
 * What makes the Analytic tier cheap is that most of SimStats is
 * statically exact: the sim issues one instruction per cycle with no
 * stalls, so cycles == CompileStats::cycles, the instruction mix,
 * data-memory row traffic and instruction-memory bits are all fixed
 * at compile time. Only the five data-dependent event counters (PE
 * ops including replicas, pass-throughs, crossbar transfers, bank
 * reads/writes) need a model — each is estimated as
 * rate x static-driver, and those feed only the per-event terms of
 * energyOf. Latency from the Analytic tier is therefore *exact*; the
 * tier error lives entirely in energy.
 *
 * The declared error envelope (evalErrorBounds) is cross-validated
 * against Cycle over the workload suite by tests/test_evaluator.cc.
 */

#ifndef DPU_MODEL_EVALUATOR_HH
#define DPU_MODEL_EVALUATOR_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "compiler/program.hh"
#include "sim/machine.hh"

namespace dpu {

/** Evaluation tier, selectable per call. */
enum class EvalFidelity : uint8_t
{
    Cycle = 0,   ///< Cycle-accurate Machine::run.
    Analytic = 1 ///< Fixed-rate closed-form estimate.
};

inline constexpr size_t kNumFidelities = 2;

/** Stable lower-case tier name ("cycle" / "analytic") — the CLI and
 *  journal spelling. */
const char *fidelityName(EvalFidelity f);

/** Strict inverse of fidelityName (exact match only). */
bool parseFidelityName(const char *s, EvalFidelity &out);

/** Help/diagnostic text listing the valid tier names. */
extern const char *const kFidelityChoicesHelp;

/**
 * Declared relative-error envelope of a tier against Cycle, over the
 * built-in workload suite. Latency is exact by construction for every
 * tier (see file comment); the envelopes are enforced by the
 * cross-validation tests, so widening one is an observable contract
 * change.
 */
struct EvalErrorBounds
{
    double latencyRel = 0.0;
    double energyRel = 0.0;
};

EvalErrorBounds evalErrorBounds(EvalFidelity f);

/**
 * The tiered evaluator. Stateless apart from the chosen tier, so one
 * instance is safely shared across threads.
 */
class Evaluator
{
  public:
    explicit Evaluator(EvalFidelity fidelity = EvalFidelity::Cycle)
        : fid(fidelity)
    {
    }

    EvalFidelity fidelity() const { return fid; }

    /**
     * Evaluate one program execution at this tier. Cycle steps the
     * machine over `inputs`; Analytic returns estimate() and never
     * touches the input values (events on this machine are
     * data-independent in count, only in value).
     */
    SimStats run(const CompiledProgram &prog,
                 const std::vector<double> &inputs,
                 SimOptions options = {}) const;

    /** Static single-run estimate (Analytic only; a Cycle evaluator
     *  has nothing static to say — FatalError). */
    SimStats estimate(const CompiledProgram &prog) const;

    /** Transfer-inclusive single-run estimate: estimate() with
     *  SimStats::transferCycles filled from `transfer`, matching
     *  exactly what a cycle-accurate Machine run charged the same
     *  model reports (the transfer cost is static — see
     *  HostTransferModel). */
    SimStats estimate(const CompiledProgram &prog,
                      const HostTransferModel &transfer) const;

    /**
     * Static estimate of `runs` executions dealt round-robin over
     * `cores` model cores (BatchMachine semantics): wall cycles are
     * the busiest core's, event counters sum over all runs. Exact in
     * wall cycles at every tier.
     */
    SimStats estimateBatch(const CompiledProgram &prog, uint64_t runs,
                           uint32_t cores) const;

    /** Transfer-inclusive batch estimate: estimateBatch() plus the
     *  exact host-link cycles of a runs-sized dispatch in
     *  SimStats::transferCycles (BatchMachine agreement at every
     *  tier). */
    SimStats estimateBatch(const CompiledProgram &prog, uint64_t runs,
                           uint32_t cores,
                           const HostTransferModel &transfer) const;

    /** The exact lockstep wall-cycle count of a runs x cores batch —
     *  tier-independent (usable for admission control without an
     *  Evaluator instance). */
    static uint64_t batchWallCycles(const CompiledProgram &prog,
                                    uint64_t runs, uint32_t cores);

    /** The exact host-link cycles of a runs-sized dispatch of `prog`
     *  under `transfer` — tier-independent, matches
     *  BatchResult::transferCycles. */
    static uint64_t batchTransferCycles(const CompiledProgram &prog,
                                        uint64_t runs,
                                        const HostTransferModel &transfer);

    /** Transfer-inclusive wall clock of a dispatch: batchWallCycles
     *  + batchTransferCycles (matches BatchResult::totalWallCycles()
     *  exactly at every tier). */
    static uint64_t batchTotalCycles(const CompiledProgram &prog,
                                     uint64_t runs, uint32_t cores,
                                     const HostTransferModel &transfer);

  private:
    EvalFidelity fid;
};

} // namespace dpu

#endif // DPU_MODEL_EVALUATOR_HH
