/**
 * @file
 * Workload `sptrsv_serve`: one seeded lower-triangular system shaped
 * like a Table I(b) twin goes through the real-matrix path (.mtx file
 * -> readMatrixMarketFile -> lowerTriangularFrom -> buildSpTrsvDag),
 * is compiled once (unpartitioned) and registered with an
 * AsyncBatchServer. A closed loop follows: each client thread submits
 * its next right-hand side only after its previous solution arrived
 * and was checked against solveLowerTriangular. There are more
 * clients than server workers, so batches coalesce. Steady state is
 * simulator plus server; the compiler runs only in set-up.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "compiler/compiler.hh"
#include "dag/binarize.hh"
#include "model/energy.hh"
#include "sim/async.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "trace.hh"
#include "workload.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"

namespace perfbench {

namespace {

class SptrsvServe : public Workload
{
  public:
    explicit SptrsvServe(const Options &o) : opt(o)
    {
        // Shaped like the jagmesh4 row of Table I(b): a mesh-like
        // pattern, ~5 off-diagonal nonzeros a row, depth ~70 levels.
        params.dim = opt.tiny ? 128 : 2048;
        params.depthLevels = opt.tiny ? 8 : 72;
        params.avgOffDiagonal = 5.0;
        params.seed = mixSeed(204, opt.seed);
        serverConfig.workers = 2;
        serverConfig.batchWindow = std::chrono::microseconds(1000);
    }

    double
    setUp() override
    {
        const std::string path = outPath(opt, "matrix", ".mtx");
        server.reset(); // joins the previous set-up's server threads
        Span setup("bench.setup");

        Span gen("workloads.generate");
        dpu::SparseMatrixCsr generated = dpu::makeLowerTriangular(params);
        double gen_s = gen.stop();
        {
            std::ofstream file(path);
            dpu::writeMatrixMarket(generated, file);
            if (!file)
                throw std::runtime_error("cannot write " + path);
        }

        Span load("workloads.mtx_load");
        dpu::SparseMatrixCsr read = dpu::readMatrixMarketFile(path);
        double load_s = load.stop();
        std::remove(path.c_str());

        Span lower_span("workloads.lower");
        lower = dpu::lowerTriangularFrom(read);
        lowered = dpu::buildSpTrsvDag(lower);
        double lower_s = lower_span.stop();

        Span comp("compiler.compile");
        prog = dpu::compile(lowered.dag, cfg);
        double compile_s = comp.stop();

        Span add("server.add_program");
        server = std::make_unique<dpu::AsyncBatchServer>(serverConfig);
        handle = server->addProgram(prog);
        add.stop();
        double setup_s = setup.stop();

        generateS.push_back(gen_s);
        loadShare.push_back(load_s / setup_s);
        lowerShare.push_back(lower_s / setup_s);
        compileS.push_back(compile_s);
        compileShare.push_back(compile_s / setup_s);
        std::string why;
        if (!fingerprint.observe("program", programHash(prog), &why)) {
            out.correct = false;
            out.log.push_back("FAIL: " + why);
        }
        return setup_s;
    }

    void
    measure(double seconds, bool traced) override
    {
        if (rowsOfOutput.empty())
            prepareOracle();

        std::vector<std::vector<double>> latency(kClients),
            submit(kClients);
        std::vector<uint64_t> attempted(kClients, 0), failed(kClients, 0);
        std::vector<std::string> errors(kClients);
        std::vector<Clock::time_point> lastDone(kClients);
        std::vector<dpu::SimStats> lastStats(kClients);

        const auto start = Clock::now();
        const auto deadline = start + std::chrono::duration<double>(seconds);
        auto client = [&](size_t c) {
            dpu::Rng rng(mixSeed(1000 + 100 * segment + c, opt.seed));
            lastDone[c] = Clock::now();
            while (Clock::now() < deadline ||
                   latency[c].size() < kMinSolves) {
                std::vector<double> rhs(lower.dim());
                for (double &x : rhs)
                    x = 2.0 * rng.uniform() - 1.0;
                std::vector<double> input =
                    dpu::sptrsvBatchInputs(lowered, lower, {rhs})[0];
                ++attempted[c];
                try {
                    uint64_t id = nextRequest.fetch_add(1);
                    Span request("bench.request", id);
                    Span sub("server.submit", id);
                    auto future = server->submit(handle, std::move(input));
                    double submit_s = sub.stop();
                    dpu::SimResult res = future.get();
                    double latency_s = request.stop();
                    lastDone[c] = Clock::now();
                    if (!solutionMatches(
                            res.outputs,
                            dpu::solveLowerTriangular(lower, rhs))) {
                        ++failed[c];
                        errors[c] = "served solution disagrees with "
                                    "solveLowerTriangular";
                        continue;
                    }
                    latency[c].push_back(latency_s);
                    submit[c].push_back(submit_s);
                    lastStats[c] = res.stats;
                    // Think time before the next request keeps the
                    // clients from locking into one batching pattern.
                    std::this_thread::sleep_for(std::chrono::duration<double>(
                        -kThinkS * std::log(1.0 - rng.uniform())));
                } catch (const std::exception &e) {
                    ++failed[c];
                    errors[c] = e.what();
                    if (failed[c] > kMinSolves)
                        return;
                }
            }
        };
        {
            std::vector<std::thread> threads;
            for (size_t c = 0; c < kClients; ++c)
                threads.emplace_back(client, c);
            for (std::thread &t : threads)
                t.join();
        }
        server->drain();
        ++segment;

        // More compile_s samples, taken after the loop so they never
        // compete with the served requests.
        for (int i = 0; i < kExtraCompiles; ++i) {
            Span comp("compiler.compile");
            dpu::CompiledProgram again = dpu::compile(lowered.dag, cfg);
            compileS.push_back(comp.stop());
            std::string why;
            if (!fingerprint.observe("program", programHash(again), &why)) {
                out.correct = false;
                out.log.push_back("FAIL: " + why);
            }
        }

        Clock::time_point end = start;
        for (size_t c = 0; c < kClients; ++c) {
            latencyS.insert(latencyS.end(), latency[c].begin(),
                            latency[c].end());
            submitS.insert(submitS.end(), submit[c].begin(),
                           submit[c].end());
            out.attempted += attempted[c];
            out.failed += failed[c];
            end = std::max(end, lastDone[c]);
            if (!latency[c].empty())
                sim = lastStats[c];
            if (!errors[c].empty()) {
                out.correct = false;
                out.log.push_back("FAIL: " + errors[c]);
            }
        }
        windowS += secondsBetween(start, end);
        segmentEnds.push_back(latencyS.size());

        const dpu::AsyncBatchServer::Stats st = server->stats();
        batches += st.batches;
        batchedRequests += st.requests;
        windowCuts += st.windowDispatches;
        for (const auto &s : st.serviceSamples) {
            serviceUs += s.actualUs;
            serviceRequestUs += s.actualUs * static_cast<double>(s.batchSize);
            sampledRequests += s.batchSize;
        }

        if (traced) {
            StepTimes t = timeCompilerSteps(lowered.dag, cfg, {});
            if (t.blocks != prog.stats.blocks) {
                out.correct = false;
                out.log.push_back("FAIL: standalone steps disagree with "
                                  "compile() on the block count");
            }
            binS.push_back(t.binarizeS);
            blocksS.push_back(t.blocksS);
            banksS.push_back(t.banksS);
            std::vector<double> ones(lower.dim(), 1.0);
            std::vector<double> input =
                dpu::sptrsvInputValues(lowered, lower, ones);
            Span run("sim.run");
            dpu::Machine(prog).run(input);
            runS.push_back(run.stop());
        }
    }

    PassResult
    finish(bool traced) override
    {
        PassResult r = std::move(out);
        out = {};
        if (!latencyS.empty() && serviceUs > 0)
            report(r, traced);
        generateS.clear();
        loadShare.clear();
        lowerShare.clear();
        compileS.clear();
        compileShare.clear();
        latencyS.clear();
        submitS.clear();
        binS.clear();
        blocksS.clear();
        banksS.clear();
        runS.clear();
        segmentEnds.clear();
        windowS = serviceUs = serviceRequestUs = 0;
        batches = batchedRequests = windowCuts = sampledRequests = 0;
        return r;
    }

  private:
    static constexpr size_t kClients = 3;
    static constexpr size_t kMinSolves = 11;
    static constexpr double kThinkS = 0.001; ///< Mean client think time.
    static constexpr int kExtraCompiles = 3; ///< compile_s samples.

    void
    report(PassResult &r, bool traced) const
    {
        Tail tail = segmentedTail(latencyS, segmentEnds);
        const dpu::CompileStats &cst = prog.stats;
        // Simulated instructions per host second of batch service,
        // over every sampled batch.
        double instr = static_cast<double>(cst.instructions) *
                       static_cast<double>(sampledRequests);
        MetricValues &e = r.endToEnd;
        e["ops_per_s"] = static_cast<double>(latencyS.size()) / windowS;
        e["latency_p50_ms"] = 1e3 * median(latencyS);
        e["latency_tail_ms"] = 1e3 * tail.value;
        e["compile_s"] = median(compileS);
        e["dpu_cycles"] = static_cast<double>(sim.cycles);
        e["dpu_edp_pj_ns"] =
            dpu::energyOf(cfg, sim, cst.numOperations).edpPjNs();
        double mean_batch = static_cast<double>(batchedRequests) /
                            static_cast<double>(batches);

        char line[256];
        std::snprintf(line, sizeof line,
                      "sptrsv_serve: dim %u, %zu nnz, %zu DAG ops, %llu "
                      "instructions, program %s; closed loop, %zu clients, "
                      "%u server workers, %zu solves, mean batch %.2f",
                      lower.dim(), lower.nnz(), lowered.dag.numOperations(),
                      static_cast<unsigned long long>(cst.instructions),
                      hex(fingerprint.hashes().at("program")).c_str(),
                      kClients, serverConfig.workers, latencyS.size(),
                      mean_batch);
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
        l["workloads.mtx_load_share"] = median(loadShare);
        l["workloads.lower_share"] = median(lowerShare);
        l["dag.binarize_s"] = median(binS);
        l["compiler.blocks_s"] = median(blocksS);
        l["compiler.banks_s"] = median(banksS);
        l["compiler.tail_s"] = median(compileS) - median(binS) -
                               median(blocksS) - median(banksS);
        l["compiler.instructions"] = static_cast<double>(cst.instructions);
        l["compiler.nops"] = static_cast<double>(cst.nops);
        l["compiler.bank_conflicts"] = static_cast<double>(cst.bankConflicts);
        l["compiler.spills"] = static_cast<double>(cst.spillStores);
        l["compiler.program_bits"] = static_cast<double>(cst.programBits);
        l["compiler.compile_share"] = median(compileShare);
        l["sim.run_s"] = median(runS);
        l["sim.instr_per_s"] = instr / (1e-6 * serviceUs);
        l["sim.bank_reads"] = static_cast<double>(sim.bankReads);
        l["sim.bank_writes"] = static_cast<double>(sim.bankWrites);
        l["sim.mem_rows"] = static_cast<double>(sim.memReads + sim.memWrites);
        double latency_total = 0, submit_total = 0;
        for (double x : latencyS)
            latency_total += x;
        for (double x : submitS)
            submit_total += x;
        l["server.submit_share"] = submit_total / latency_total;
        // Mean service time a request waits on (its batch's, over the
        // sampled batches) over mean request latency.
        l["server.service_share"] =
            1e-6 * serviceRequestUs / static_cast<double>(sampledRequests) /
            (latency_total / static_cast<double>(latencyS.size()));
        l["server.mean_batch"] = mean_batch;
        l["server.window_cut_frac"] = static_cast<double>(windowCuts) /
                                      static_cast<double>(batches);
    }

    /** Which matrix rows each program output solves. */
    void
    prepareOracle()
    {
        dpu::BinarizeResult bin = dpu::binarize(lowered.dag);
        std::vector<std::vector<uint32_t>> rowsOf(bin.dag.numNodes());
        for (uint32_t r = 0; r < lowered.solution.size(); ++r)
            rowsOf[bin.valueOf[lowered.solution[r]]].push_back(r);
        for (const auto &o : prog.outputs)
            rowsOfOutput.push_back(rowsOf[o.node]);
    }

    bool
    solutionMatches(const std::vector<double> &outputs,
                    const std::vector<double> &x) const
    {
        if (outputs.size() != rowsOfOutput.size())
            return false;
        size_t checked = 0;
        for (size_t k = 0; k < outputs.size(); ++k)
            for (uint32_t r : rowsOfOutput[k]) {
                if (!closeEnough(outputs[k], x[r]))
                    return false;
                ++checked;
            }
        return checked > 0;
    }

    Options opt;
    dpu::LowerTriangularParams params;
    dpu::AsyncServerConfig serverConfig;
    dpu::ArchConfig cfg = dpu::minEdpConfig();

    dpu::SparseMatrixCsr lower;
    dpu::SpTrsvDag lowered;
    dpu::CompiledProgram prog;
    std::vector<std::vector<uint32_t>> rowsOfOutput;
    Fingerprint fingerprint;
    std::atomic<uint64_t> nextRequest{1};
    size_t segment = 0;

    // Collected since the last finish().
    PassResult out;
    dpu::SimStats sim; ///< A checked solve's simulation.
    std::vector<double> generateS, loadShare, lowerShare, compileS,
        compileShare, latencyS, submitS, binS, blocksS, banksS, runS;
    double windowS = 0, serviceUs = 0, serviceRequestUs = 0;
    uint64_t batches = 0, batchedRequests = 0, windowCuts = 0,
             sampledRequests = 0;
    std::vector<size_t> segmentEnds; ///< Into latencyS.

    // Last: destroyed first, joining its threads while the rest lives.
    std::unique_ptr<dpu::AsyncBatchServer> server;
    dpu::AsyncBatchServer::ProgramHandle handle = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSptrsvServe(const Options &opt)
{
    return std::make_unique<SptrsvServe>(opt);
}

} // namespace perfbench
