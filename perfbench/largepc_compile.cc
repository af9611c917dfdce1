/**
 * @file
 * Workload `largepc_compile`: a Table I(c) large-PC twin compiled
 * with the paper's 20 000-node partitions on the large configuration,
 * each compile followed by one simulation checked against
 * dpu::evaluate. The compiler does almost all the work; the server
 * and the DSE model do none.
 */

#include <algorithm>
#include <cstdio>

#include "compiler/compiler.hh"
#include "dag/binarize.hh"
#include "dag/eval.hh"
#include "model/energy.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "trace.hh"
#include "workload.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

class LargePcCompile : public Workload
{
  public:
    explicit LargePcCompile(const Options &o) : opt(o)
    {
        spec = dpu::findWorkload("pigs");
        spec.seed = mixSeed(spec.seed, opt.seed);
        scale = opt.tiny ? 0.01 : 0.2;
        copts.partitionNodes = opt.tiny ? 1000 : 20000;
        // Two compile threads: on a 4-core host four compile no faster
        // (boundary-aware step 2, the merge and finalize are
        // sequential), and the idle cores keep the timings steadier.
        copts.threads = std::min<uint32_t>(2, opt.threads);
    }

    double
    setUp() override
    {
        Span setup("bench.setup");
        Span gen("workloads.generate");
        dag = dpu::buildWorkloadDag(spec, scale);
        generateS.push_back(gen.stop());
        return setup.stop();
    }

    void
    measure(double seconds, bool traced) override
    {
        if (reference.empty())
            prepareOracle();
        // Start another op only while it would end at most half an op
        // past the deadline, so runs keep to --seconds.
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(seconds);
        double last = 0;
        for (size_t ops = 0;
             ops < kMinOps ||
             Clock::now() + std::chrono::duration<double>(last / 2) <
                 deadline;
             ++ops) {
            ++out.attempted;
            Span iteration("bench.iteration");
            try {
                Span op("bench.compile_and_run");
                Span c("compiler.compile");
                dpu::CompiledProgram p = dpu::compile(dag, cfg, copts);
                double cs = c.stop();
                Span r("sim.run");
                dpu::SimResult res = dpu::Machine(p).run(inputs);
                double rs = r.stop();
                double os = op.stop();

                std::string why;
                bool ok = outputsMatch(p, res.outputs, reference);
                if (!ok)
                    why = "simulation disagrees with dpu::evaluate";
                else
                    ok = fingerprint.observe("program", programHash(p),
                                             &why);
                if (traced && ok) {
                    StepTimes st = timeCompilerSteps(dag, cfg, copts);
                    if (st.blocks != p.stats.blocks) {
                        ok = false;
                        why = "standalone steps made " +
                              std::to_string(st.blocks) +
                              " blocks, compile() " +
                              std::to_string(p.stats.blocks);
                    }
                    binS.push_back(st.binarizeS);
                    blocksS.push_back(st.blocksS);
                    banksS.push_back(st.banksS);
                    tailS.push_back(cs - st.binarizeS - st.blocksS -
                                    st.banksS);
                }
                if (!ok) {
                    ++out.failed;
                    out.correct = false;
                    out.log.push_back("FAIL: " + why);
                    continue;
                }
                compileS.push_back(cs);
                runS.push_back(rs);
                opS.push_back(os);
                prog = std::move(p);
                sim = res.stats;
                last = iteration.stop();
            } catch (const std::exception &e) {
                ++out.failed;
                out.correct = false;
                out.log.push_back(std::string("FAIL: ") + e.what());
                if (out.failed > kMinOps)
                    break;
            }
        }
        segmentEnds.push_back(opS.size());
    }

    PassResult
    finish(bool traced) override
    {
        PassResult r = std::move(out);
        out = {};
        if (!opS.empty())
            report(r, traced);
        generateS.clear();
        compileS.clear();
        runS.clear();
        opS.clear();
        tailS.clear();
        binS.clear();
        blocksS.clear();
        banksS.clear();
        segmentEnds.clear();
        return r;
    }

  private:
    static constexpr size_t kMinOps = 2;

    void
    report(PassResult &r, bool traced) const
    {
        const dpu::CompileStats &cst = prog.stats;
        double total = 0;
        for (double s : opS)
            total += s;
        Tail tail = segmentedTail(opS, segmentEnds);
        MetricValues &e = r.endToEnd;
        e["ops_per_s"] = static_cast<double>(opS.size()) / total;
        e["latency_p50_ms"] = 1e3 * median(opS);
        e["latency_tail_ms"] = 1e3 * tail.value;
        e["compile_s"] = median(compileS);
        e["dpu_cycles"] = static_cast<double>(sim.cycles);
        e["dpu_edp_pj_ns"] =
            dpu::energyOf(cfg, sim, cst.numOperations).edpPjNs();

        char line[256];
        std::snprintf(line, sizeof line,
                      "largepc_compile: %zu ops, %zu compute nodes in "
                      "partitions of <= %u, %u threads; %llu instructions, "
                      "program %s (1-thread and repeated compiles agree)",
                      opS.size(), dag.numOperations(), copts.partitionNodes,
                      copts.threads,
                      static_cast<unsigned long long>(cst.instructions),
                      hex(fingerprint.hashes().at("program")).c_str());
        r.log.push_back(line);
        std::snprintf(line, sizeof line,
                      "latency_tail_ms is the median over %zu segments "
                      "of each segment's p%.1f; %zu samples",
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
        std::vector<double> share;
        for (size_t i = 0; i < opS.size(); ++i)
            share.push_back(compileS[i] / opS[i]);
        l["compiler.compile_share"] = median(share);
        l["sim.run_s"] = median(runS);
        l["sim.instr_per_s"] =
            static_cast<double>(cst.instructions) / median(runS);
        l["sim.bank_reads"] = static_cast<double>(sim.bankReads);
        l["sim.bank_writes"] = static_cast<double>(sim.bankWrites);
        l["sim.mem_rows"] = static_cast<double>(sim.memReads + sim.memWrites);
    }

    /** Inputs, the reference values and the 1-thread fingerprint. */
    void
    prepareOracle()
    {
        Span s("bench.oracle_prepare");
        dpu::Rng rng(mixSeed(17, opt.seed));
        inputs.resize(dag.numInputs());
        for (double &x : inputs)
            x = 0.5 + rng.uniform();
        reference = dpu::evaluate(dpu::binarize(dag).dag, inputs);

        // Thread-count determinism: the first fingerprint comes from a
        // 1-thread compile; every timed compile must reproduce it.
        dpu::CompileOptions one = copts;
        one.threads = 1;
        std::string why;
        if (!fingerprint.observe("program",
                                 programHash(dpu::compile(dag, cfg, one)),
                                 &why)) {
            out.correct = false;
            out.log.push_back("FAIL: " + why);
        }
    }

    Options opt;
    dpu::WorkloadSpec spec;
    double scale = 0;
    dpu::ArchConfig cfg = dpu::largeConfig();
    dpu::CompileOptions copts;
    dpu::Dag dag;
    std::vector<double> inputs;
    std::vector<double> reference;
    Fingerprint fingerprint;

    // Collected since the last finish().
    PassResult out;
    dpu::CompiledProgram prog; ///< Last checked program.
    dpu::SimStats sim;         ///< Its simulation.
    std::vector<double> generateS, compileS, runS, opS, tailS;
    std::vector<double> binS, blocksS, banksS;
    std::vector<size_t> segmentEnds; ///< Into opS.
};

} // namespace

std::unique_ptr<Workload>
makeLargePcCompile(const Options &opt)
{
    return std::make_unique<LargePcCompile>(opt);
}

} // namespace perfbench
