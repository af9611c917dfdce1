/**
 * @file
 * Tests for the tiered evaluator (model/evaluator.hh):
 *
 *   - tier-name round trip and strict parsing;
 *   - static exactness of the Analytic tier: cycles, instruction mix,
 *     memory traffic and instruction bits match the cycle-accurate
 *     machine exactly; batch wall cycles match BatchMachine;
 *   - cross-validation: Analytic latency is *exact* and energy stays
 *     within the declared relative-error envelope of Cycle across the
 *     workload suite (the contract evalErrorBounds declares and
 *     README documents).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "model/dse.hh"
#include "model/evaluator.hh"
#include "sim/batch.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

std::vector<double>
randomInputs(const Dag &d, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(d.numInputs());
    for (auto &x : v)
        x = 0.5 + rng.uniform();
    return v;
}

ArchConfig
config(uint32_t depth, uint32_t banks, uint32_t regs)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = regs;
    return c;
}

// ---------------------------------------------------------------- //
// Names and envelopes.                                             //
// ---------------------------------------------------------------- //

TEST(Fidelity, NameRoundTrip)
{
    for (size_t i = 0; i < kNumFidelities; ++i) {
        EvalFidelity f = static_cast<EvalFidelity>(i);
        EvalFidelity back = EvalFidelity::Cycle;
        ASSERT_TRUE(parseFidelityName(fidelityName(f), back));
        EXPECT_EQ(back, f);
    }
}

TEST(Fidelity, ParseIsStrict)
{
    EvalFidelity f = EvalFidelity::Cycle;
    EXPECT_FALSE(parseFidelityName("", f));
    EXPECT_FALSE(parseFidelityName("Cycle", f));   // case-sensitive
    EXPECT_FALSE(parseFidelityName("cycles", f));  // no prefixes
    EXPECT_FALSE(parseFidelityName("tab", f));
    EXPECT_FALSE(parseFidelityName("table", f)); // a removed tier
    EXPECT_FALSE(parseFidelityName("exact", f));
    EXPECT_FALSE(parseFidelityName(nullptr, f));
}

TEST(Fidelity, DeclaredEnvelopes)
{
    // Latency is exact by construction at every tier; Cycle is ground
    // truth; Analytic declares a nonzero energy envelope.
    for (size_t i = 0; i < kNumFidelities; ++i)
        EXPECT_EQ(evalErrorBounds(static_cast<EvalFidelity>(i))
                      .latencyRel,
                  0.0);
    EXPECT_EQ(evalErrorBounds(EvalFidelity::Cycle).energyRel, 0.0);
    EXPECT_GT(evalErrorBounds(EvalFidelity::Analytic).energyRel, 0.0);
}

// ---------------------------------------------------------------- //
// Static exactness of the Analytic tier.                           //
// ---------------------------------------------------------------- //

TEST(Evaluator, EstimateMatchesMachineExactly)
{
    const WorkloadSpec &spec = findWorkload("msnbc");
    ArchConfig cfg = config(2, 16, 64);
    Dag dag;
    CompiledProgram prog = compileWorkload(spec, 0.3, cfg,
                                           CompileOptions{}, nullptr,
                                           &dag);
    SimStats sim = Machine(prog).run(randomInputs(dag, 11)).stats;

    SimStats est = Evaluator(EvalFidelity::Analytic).estimate(prog);
    // The statically exact fields must match the machine bit for bit
    // — this is what makes Analytic latency exact.
    EXPECT_EQ(est.cycles, sim.cycles);
    EXPECT_EQ(est.kindCount, sim.kindCount);
    EXPECT_EQ(est.memReads, sim.memReads);
    EXPECT_EQ(est.memWrites, sim.memWrites);
    EXPECT_EQ(est.instrBitsFetched, sim.instrBitsFetched);
    // The five estimated counters must be in the right ballpark
    // (nonzero whenever the real counter is).
    EXPECT_GT(est.peOperations, 0u);
    EXPECT_GT(est.bankReads, 0u);
    EXPECT_GT(est.bankWrites, 0u);
}

TEST(Evaluator, CycleTierWrapsMachineRun)
{
    const WorkloadSpec &spec = findWorkload("nltcs");
    ArchConfig cfg = config(1, 8, 64);
    Dag dag;
    CompiledProgram prog = compileWorkload(spec, 0.5, cfg,
                                           CompileOptions{}, nullptr,
                                           &dag);
    std::vector<double> inputs = randomInputs(dag, 5);
    SimStats direct = Machine(prog).run(inputs).stats;
    SimStats wrapped = Evaluator(EvalFidelity::Cycle).run(prog, inputs);
    EXPECT_EQ(wrapped.cycles, direct.cycles);
    EXPECT_EQ(wrapped.peOperations, direct.peOperations);
    EXPECT_EQ(wrapped.bankReads, direct.bankReads);
    EXPECT_EQ(wrapped.bankWrites, direct.bankWrites);
    EXPECT_EQ(wrapped.crossbarTransfers, direct.crossbarTransfers);
}

TEST(Evaluator, CycleTierHasNoStaticEstimate)
{
    const WorkloadSpec &spec = findWorkload("nltcs");
    Dag dag;
    CompiledProgram prog = compileWorkload(spec, 0.3, config(1, 8, 64),
                                           CompileOptions{}, nullptr,
                                           &dag);
    EXPECT_THROW(Evaluator(EvalFidelity::Cycle).estimate(prog),
                 FatalError);
}

TEST(Evaluator, BatchWallCyclesMatchesBatchMachine)
{
    const WorkloadSpec &spec = findWorkload("nltcs");
    Dag dag;
    CompiledProgram prog = compileWorkload(spec, 0.3, config(1, 8, 64),
                                           CompileOptions{}, nullptr,
                                           &dag);
    for (uint32_t cores : {1u, 2u, 3u}) {
        std::vector<std::vector<double>> inputs;
        for (uint64_t k = 0; k < 5; ++k)
            inputs.push_back(randomInputs(dag, 20 + k));
        BatchResult br =
            BatchMachine(prog, cores, /*operations=*/1).run(inputs);
        EXPECT_EQ(Evaluator::batchWallCycles(prog, inputs.size(),
                                             cores),
                  br.wallCycles)
            << cores << " cores";
    }
    EXPECT_EQ(Evaluator::batchWallCycles(prog, 0, 4), 0u);
    EXPECT_THROW(Evaluator::batchWallCycles(prog, 1, 0), FatalError);
}

TEST(Evaluator, EstimateBatchScalesCounters)
{
    const WorkloadSpec &spec = findWorkload("nltcs");
    Dag dag;
    CompiledProgram prog = compileWorkload(spec, 0.3, config(2, 8, 64),
                                           CompileOptions{}, nullptr,
                                           &dag);
    Evaluator ev(EvalFidelity::Analytic);
    SimStats one = ev.estimate(prog);
    SimStats batch = ev.estimateBatch(prog, 6, 2);
    EXPECT_EQ(batch.cycles, 3 * one.cycles); // ceil(6/2) lockstep rounds
    EXPECT_EQ(batch.peOperations, 6 * one.peOperations);
    EXPECT_EQ(batch.bankReads, 6 * one.bankReads);
    EXPECT_EQ(batch.instrBitsFetched, 6 * one.instrBitsFetched);
}

// ---------------------------------------------------------------- //
// Cross-validation against Cycle over the workload suite.          //
// ---------------------------------------------------------------- //

TEST(CrossValidation, FastTiersHonorDeclaredEnvelopes)
{
    // Suite-averaged DSE metrics per design point — the quantity the
    // envelope is declared over.
    const std::vector<WorkloadSpec> suite = smallSuite();
    const double scale = 0.03;
    const Evaluator analytic(EvalFidelity::Analytic);
    const EvalErrorBounds bounds = evalErrorBounds(EvalFidelity::Analytic);

    for (const ArchConfig &cfg :
         {config(1, 8, 64), config(2, 16, 32), config(3, 32, 64),
          config(2, 64, 32)}) {
        DsePoint cyc =
            evaluateDesign(cfg, suite, scale, 1, 1, nullptr);
        ASSERT_TRUE(cyc.feasible) << cfg.label();
        DsePoint fast = evaluateDesign(cfg, suite, scale, 1, 1, nullptr,
                                       nullptr, &analytic);
        ASSERT_TRUE(fast.feasible);
        EXPECT_EQ(fast.fidelity, EvalFidelity::Analytic);
        // Latency: exact, not just within an envelope.
        EXPECT_DOUBLE_EQ(fast.latencyPerOpNs, cyc.latencyPerOpNs)
            << cfg.label();
        EXPECT_DOUBLE_EQ(fast.areaMm2, cyc.areaMm2);
        double energy_err =
            std::abs(fast.energyPerOpPj - cyc.energyPerOpPj) /
            cyc.energyPerOpPj;
        EXPECT_LE(energy_err, bounds.energyRel) << cfg.label();
    }
}

} // namespace
} // namespace dpu
