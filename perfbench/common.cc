#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <unistd.h>

#include "compiler/blocks.hh"
#include "compiler/cache.hh"
#include "compiler/mapper.hh"
#include "compiler/partitioner.hh"
#include "dag/algorithms.hh"
#include "dag/binarize.hh"
#include "support/parallel.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"compile_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"dpu_cycles", "cycles"},
        {"dpu_edp_pj_ns", "pJ.ns"},
        {"ok_frac", "frac"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"workloads.generate_s", "s"},
        {"workloads.mtx_load_share", "frac"},
        {"workloads.lower_share", "frac"},
        {"dag.binarize_s", "s"},
        {"compiler.blocks_s", "s"},
        {"compiler.banks_s", "s"},
        {"compiler.tail_s", "s"},
        {"compiler.instructions", "count"},
        {"compiler.nops", "count"},
        {"compiler.bank_conflicts", "count"},
        {"compiler.spills", "count"},
        {"compiler.program_bits", "bits"},
        {"compiler.frag_hit_frac", "frac"},
        {"compiler.compile_share", "frac"},
        {"sim.run_s", "s"},
        {"sim.instr_per_s", "instr/s"},
        {"sim.bank_reads", "count"},
        {"sim.bank_writes", "count"},
        {"sim.mem_rows", "count"},
        {"server.submit_share", "frac"},
        {"server.service_share", "frac"},
        {"server.mean_batch", "req/batch"},
        {"server.window_cut_frac", "frac"},
        {"model.cycle_evals", "count"},
        {"trace.overhead_frac", "frac"},
    };
    return specs;
}

MetricValues
zeroPerLayer()
{
    MetricValues m;
    for (const MetricSpec &s : perLayerMetrics())
        m[s.name] = 0.0;
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    // Rank k leaves n - 1 - k samples above it; the highest rank
    // leaving >= 10 is n - 11.
    size_t k = n >= 11 ? n - 11 : n - 1;
    t.value = v[k];
    t.percentile = 100.0 * static_cast<double>(k + 1) /
                   static_cast<double>(n);
    return t;
}

Tail
segmentedTail(const std::vector<double> &samples,
              const std::vector<size_t> &segmentEnds)
{
    std::vector<double> values, percentiles;
    size_t begin = 0;
    for (size_t end : segmentEnds) {
        if (end > begin) {
            Tail t = tailOf(std::vector<double>(samples.begin() + begin,
                                                samples.begin() + end));
            values.push_back(t.value);
            percentiles.push_back(t.percentile);
        }
        begin = end;
    }
    Tail t;
    t.value = median(values);
    t.percentile = median(percentiles);
    t.samples = samples.size();
    return t;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
mixSeed(uint64_t base, uint64_t seed)
{
    uint64_t z = base + 0x9e3779b97f4a7c15ull * (seed + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t h)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
programHash(const dpu::CompiledProgram &prog)
{
    dpu::CompiledProgram copy = prog;
    copy.stats.compileSeconds = 0;
    copy.stats.verifySeconds = 0;
    copy.stats.cacheHits = 0;
    std::vector<uint8_t> image = dpu::serializeProgram(copy);
    return fnv1a(image.data(), image.size());
}

bool
Fingerprint::observe(const std::string &label, uint64_t hash,
                     std::string *why)
{
    auto [it, fresh] = first.emplace(label, hash);
    if (fresh || it->second == hash)
        return true;
    if (why)
        *why = "fingerprint mismatch for " + label + ": " +
               hex(it->second) + " then " + hex(hash);
    return false;
}

std::string
hex(uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
outPath(const Options &opt, const std::string &stem, const std::string &ext)
{
    return opt.outDir + "/" + opt.workload + "-" + stem + "-" +
           std::to_string(static_cast<long long>(getpid())) + ext;
}

StepTimes
timeCompilerSteps(const dpu::Dag &input, const dpu::ArchConfig &cfg,
                  const dpu::CompileOptions &options)
{
    StepTimes t;
    Span bin_span("dag.binarize");
    dpu::BinarizeResult bin = dpu::binarize(input);
    t.binarizeS = bin_span.stop();
    const dpu::Dag &dag = bin.dag;

    std::vector<dpu::PartitionRange> parts;
    if (options.partitionNodes)
        parts = dpu::partitionByCount(dag, options.partitionNodes);
    if (parts.empty())
        parts.push_back({0, static_cast<dpu::NodeId>(dag.numNodes())});
    std::vector<uint32_t> dfs = dpu::dfsPreorderPositions(dag);

    std::vector<dpu::RangeDecomposition> pieces(parts.size());
    Span blocks_span("compiler.blocks");
    dpu::parallelFor(parts.size(), options.threads, [&](size_t p) {
        pieces[p] = dpu::decomposeRangeIntoBlocks(dag, cfg, options.seed,
                                                  parts[p], dfs);
    });
    t.blocksS = blocks_span.stop();
    for (const auto &piece : pieces)
        t.blocks += piece.blocks.size();

    // Same per-partition seeds and boundary-aware chaining as
    // compile(); partition 0 keeps the user seed.
    auto seed_of = [&](size_t p) {
        return options.seed + 0x9e3779b97f4a7c15ull * p;
    };
    std::vector<dpu::BankAssignment> banks(parts.size());
    Span banks_span("compiler.banks");
    if (options.boundaryAwareBanks && parts.size() > 1) {
        std::vector<uint32_t> bank_of(dag.numNodes(),
                                      dpu::BankAssignment::invalid);
        for (size_t p = 0; p < parts.size(); ++p) {
            banks[p] = dpu::assignBanksForRange(dag, cfg, pieces[p],
                                                options.bankPolicy,
                                                seed_of(p), &bank_of);
            for (size_t i = 0; i < banks[p].bankOf.size(); ++i)
                bank_of[parts[p].first + i] = banks[p].bankOf[i];
        }
    } else {
        dpu::parallelFor(parts.size(), options.threads, [&](size_t p) {
            banks[p] = dpu::assignBanksForRange(
                dag, cfg, pieces[p], options.bankPolicy, seed_of(p));
        });
    }
    t.banksS = banks_span.stop();
    return t;
}

bool
closeEnough(double got, double want)
{
    return got == want || // also equal infinities
           std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

bool
outputsMatch(const dpu::CompiledProgram &prog,
             const std::vector<double> &outputs,
             const std::vector<double> &reference)
{
    if (outputs.size() != prog.outputs.size())
        return false;
    for (size_t k = 0; k < outputs.size(); ++k) {
        dpu::NodeId node = prog.outputs[k].node;
        if (node >= reference.size())
            return false;
        if (!closeEnough(outputs[k], reference[node]))
            return false;
    }
    return true;
}

} // namespace perfbench
