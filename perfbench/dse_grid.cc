/**
 * @file
 * Workload `dse_grid`: runDseSweep at the Cycle tier over a small
 * depth x banks x regs grid of the Table I (a)+(b) suite at a reduced
 * scale, one fresh ProgramCache per repetition. Many small
 * unpartitioned compiles across configurations, fragment-cache reuse
 * along the regs axis, the model's evaluator and energy path and one
 * simulation per point. After each sweep the min-EDP design is
 * compiled again and every suite workload is simulated on it and
 * checked against dpu::evaluate (evaluateDesign checks no outputs).
 */

#include <algorithm>
#include <cstdio>

#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "dag/binarize.hh"
#include "dag/eval.hh"
#include "model/dse.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "trace.hh"
#include "workload.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

class DseGrid : public Workload
{
  public:
    explicit DseGrid(const Options &o) : opt(o)
    {
        for (dpu::WorkloadSpec spec : dpu::smallSuite()) {
            spec.seed = mixSeed(spec.seed, opt.seed);
            suite.push_back(spec);
        }
        sweep.space.depths = {1, 2, 3};
        sweep.space.banks = {8, 16, 32, 64};
        sweep.space.regs = {32, 64};
        sweep.space.workloadScale = opt.tiny ? 0.01 : 0.05;
        sweep.space.seed = 1;
        sweep.space.suite = suite;
        sweep.threads = 1;
        sweep.fidelity = dpu::EvalFidelity::Cycle;
    }

    double
    setUp() override
    {
        Span setup("bench.setup");
        Span gen("workloads.generate");
        dags.clear();
        for (const dpu::WorkloadSpec &spec : suite)
            dags.push_back(
                dpu::buildWorkloadDag(spec, sweep.space.workloadScale));
        generateS.push_back(gen.stop());
        gridPoints = dpu::expandDseGrid(sweep.space).size();
        sweep.shards = static_cast<uint32_t>(gridPoints);
        return setup.stop();
    }

    void
    measure(double seconds, bool traced) override
    {
        if (references.empty())
            prepareOracle();
        // Start another sweep only while it would end at most half a
        // sweep past the deadline, so runs keep to --seconds.
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(seconds);
        double last = 0;
        for (size_t reps = 0;
             reps < kMinReps ||
             Clock::now() + std::chrono::duration<double>(last / 2) <
                 deadline;
             ++reps) {
            try {
                Span sweep_span("bench.sweep_and_check");
                sweepOnce(traced);
                last = sweep_span.stop();
            } catch (const std::exception &e) {
                ++out.failed;
                out.correct = false;
                out.log.push_back(std::string("FAIL: ") + e.what());
                best = dpu::kDseNpos;
                break;
            }
        }
        segmentEnds.push_back(pointS.size());
    }

    PassResult
    finish(bool traced) override
    {
        PassResult r = std::move(out);
        out = {};
        if (best != dpu::kDseNpos && !sweepS.empty())
            report(r, traced);
        for (auto *v : {&generateS, &pointS, &sweepS, &perCompileS,
                        &compileShare, &instrRate, &runS, &binS, &blocksS,
                        &banksS, &tailS})
            v->clear();
        segmentEnds.clear();
        return r;
    }

  private:
    static constexpr size_t kMinReps = 1;

    /** One sweep with a fresh ProgramCache, then the oracle on its
     *  min-EDP design. */
    void
    sweepOnce(bool traced)
    {
        dpu::ProgramCache cache;
        dpu::DseSweepOptions options = sweep;
        options.cache = &cache;
        Span s("model.sweep");
        result = dpu::runDseSweep(options);
        double sweep_s = s.stop();
        out.attempted += result.points.size();

        sweepS.push_back(sweep_s);
        double compile_total = 0;
        uint64_t compiles = 0;
        for (const dpu::DseShardReport &r : result.shardReports) {
            pointS.push_back(r.seconds);
            compile_total += r.compileSeconds;
            compiles += r.compiles;
        }
        perCompileS.push_back(compile_total / static_cast<double>(compiles));
        compileShare.push_back(compile_total / sweep_s);
        dpu::ProgramCache::Stats cs = cache.stats();
        fragHits = cs.fragHits;
        fragLookups = cs.fragHits + cs.fragMisses;

        std::string why;
        uint64_t h = 1469598103934665603ull;
        for (size_t i = 0; i < result.points.size(); ++i) {
            std::string line = dpu::dseJournalPointLine(i, result.points[i]);
            h = fnv1a(line.data(), line.size(), h);
        }
        if (!fingerprint.observe("points", h, &why))
            throw std::runtime_error(why);
        best = dpu::minEdpIndex(result.points);
        if (best == dpu::kDseNpos)
            throw std::runtime_error("no feasible design point");

        // Oracle: every suite workload on the min-EDP design.
        const dpu::ArchConfig &cfg = result.points[best].cfg;
        dpu::CompileOptions copts;
        copts.seed = sweep.space.seed;
        double run_total = 0, tail_total = 0;
        double bin_total = 0, blocks_total = 0, banks_total = 0;
        cyclesSum = 0;
        cst = {};
        sst = {};
        for (size_t w = 0; w < suite.size(); ++w) {
            ++out.attempted;
            Span c("compiler.compile");
            dpu::CompiledProgram prog = dpu::compile(dags[w], cfg, copts);
            double compile_s = c.stop();
            Span r("sim.run");
            dpu::SimResult res = dpu::Machine(prog).run(inputs[w]);
            double run_s = r.stop();
            run_total += run_s;
            instrRate.push_back(static_cast<double>(prog.stats.instructions) /
                                run_s);
            bool ok = outputsMatch(prog, res.outputs, references[w]);
            if (ok)
                ok = fingerprint.observe("oracle:" + suite[w].name,
                                         programHash(prog), &why);
            else
                why = suite[w].name + " on " + cfg.label() +
                      ": simulation disagrees with dpu::evaluate";
            if (!ok) {
                ++out.failed;
                out.correct = false;
                out.log.push_back("FAIL: " + why);
            }
            cyclesSum += static_cast<double>(res.stats.cycles);
            accumulate(cst, prog.stats);
            accumulate(sst, res.stats);
            if (traced) {
                StepTimes t = timeCompilerSteps(dags[w], cfg, copts);
                if (t.blocks != prog.stats.blocks) {
                    out.correct = false;
                    out.log.push_back("FAIL: standalone steps disagree "
                                      "with compile() on the block count");
                }
                bin_total += t.binarizeS;
                blocks_total += t.blocksS;
                banks_total += t.banksS;
                tail_total += compile_s - t.binarizeS - t.blocksS - t.banksS;
            }
        }
        runS.push_back(run_total / static_cast<double>(suite.size()));
        binS.push_back(bin_total);
        blocksS.push_back(blocks_total);
        banksS.push_back(banks_total);
        tailS.push_back(tail_total);
    }

    void
    report(PassResult &r, bool traced) const
    {
        double sweep_total = 0;
        for (double s : sweepS)
            sweep_total += s;
        const dpu::DsePoint &opt_point = result.points[best];
        Tail tail = segmentedTail(pointS, segmentEnds);
        MetricValues &e = r.endToEnd;
        e["ops_per_s"] = static_cast<double>(pointS.size()) / sweep_total;
        e["latency_p50_ms"] = 1e3 * median(pointS);
        e["latency_tail_ms"] = 1e3 * tail.value;
        e["compile_s"] = median(perCompileS);
        e["dpu_cycles"] = cyclesSum / static_cast<double>(suite.size());
        e["dpu_edp_pj_ns"] = opt_point.edpPjNs;

        char line[256];
        std::snprintf(line, sizeof line,
                      "dse_grid: %zu sweeps of %zu points x %zu workloads at "
                      "scale %g; min-EDP design %s; points %s",
                      sweepS.size(), gridPoints, suite.size(),
                      sweep.space.workloadScale, opt_point.cfg.label().c_str(),
                      hex(fingerprint.hashes().at("points")).c_str());
        r.log.push_back(line);
        std::snprintf(line, sizeof line,
                      "latency_tail_ms is the median over %zu segments "
                      "of each segment's p%.2f; %zu samples",
                      segmentEnds.size(), tail.percentile, tail.samples);
        r.log.push_back(line);
        if (!traced)
            return;

        MetricValues &l = r.perLayer;
        l["workloads.generate_s"] = median(generateS);
        l["dag.binarize_s"] = median(binS);
        l["compiler.blocks_s"] = median(blocksS);
        l["compiler.banks_s"] = median(banksS);
        l["compiler.tail_s"] = median(tailS);
        l["compiler.instructions"] = static_cast<double>(cst.instructions);
        l["compiler.nops"] = static_cast<double>(cst.nops);
        l["compiler.bank_conflicts"] = static_cast<double>(cst.bankConflicts);
        l["compiler.spills"] = static_cast<double>(cst.spillStores);
        l["compiler.program_bits"] = static_cast<double>(cst.programBits);
        l["compiler.frag_hit_frac"] =
            fragLookups ? static_cast<double>(fragHits) /
                              static_cast<double>(fragLookups)
                        : 0.0;
        l["compiler.compile_share"] = median(compileShare);
        l["sim.run_s"] = median(runS);
        l["sim.instr_per_s"] = median(instrRate);
        l["sim.bank_reads"] = static_cast<double>(sst.bankReads);
        l["sim.bank_writes"] = static_cast<double>(sst.bankWrites);
        l["sim.mem_rows"] = static_cast<double>(sst.memReads + sst.memWrites);
        l["model.cycle_evals"] =
            static_cast<double>(result.cycleEvaluatedPoints);
    }

    static void
    accumulate(dpu::CompileStats &sum, const dpu::CompileStats &s)
    {
        sum.instructions += s.instructions;
        sum.nops += s.nops;
        sum.bankConflicts += s.bankConflicts;
        sum.spillStores += s.spillStores;
        sum.programBits += s.programBits;
    }

    static void
    accumulate(dpu::SimStats &sum, const dpu::SimStats &s)
    {
        sum.bankReads += s.bankReads;
        sum.bankWrites += s.bankWrites;
        sum.memReads += s.memReads;
        sum.memWrites += s.memWrites;
    }

    /** Seeded inputs and dpu::evaluate references per suite DAG. */
    void
    prepareOracle()
    {
        for (size_t w = 0; w < dags.size(); ++w) {
            dpu::Rng rng(mixSeed(3000 + w, opt.seed));
            std::vector<double> in(dags[w].numInputs());
            for (double &x : in)
                x = 0.5 + rng.uniform();
            references.push_back(
                dpu::evaluate(dpu::binarize(dags[w]).dag, in));
            inputs.push_back(std::move(in));
        }
    }

    Options opt;
    std::vector<dpu::WorkloadSpec> suite;
    dpu::DseSweepOptions sweep;
    size_t gridPoints = 0;
    std::vector<dpu::Dag> dags;
    std::vector<std::vector<double>> inputs, references;
    Fingerprint fingerprint;

    // Collected since the last finish().
    PassResult out;
    dpu::DseSweepResult result; ///< The last sweep.
    size_t best = dpu::kDseNpos; ///< Its min-EDP point.
    double cyclesSum = 0;        ///< Its oracle runs' cycles.
    dpu::CompileStats cst;       ///< Its oracle programs, summed.
    dpu::SimStats sst;           ///< Its oracle runs, summed.
    uint64_t fragHits = 0, fragLookups = 0;
    std::vector<double> generateS, pointS, sweepS, perCompileS,
        compileShare, instrRate, runS, binS, blocksS, banksS, tailS;
    std::vector<size_t> segmentEnds; ///< Into pointS.
};

} // namespace

std::unique_ptr<Workload>
makeDseGrid(const Options &opt)
{
    return std::make_unique<DseGrid>(opt);
}

} // namespace perfbench
