/**
 * @file
 * Simulator goldens: a hash over the output bits and every SimStats
 * field (occupancy trace and its stride included) of seeded compiled
 * programs across depths 1-3, banks 8-64, register files of 32, 64,
 * 100 and 256 words, and all three output interconnects. Each program
 * runs with tracing off, tracing on (unbounded), and tracing with
 * stride-doubling decimation. The hashes were recorded on the
 * original per-instruction interpreter; any engine must reproduce
 * them bit for bit. Never regenerate them to make a change pass.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "compiler/compiler.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"

namespace dpu {
namespace {

struct GoldenCase
{
    uint32_t depth, banks, regs;
    OutputInterconnect net;
    size_t inputs, operations;
    uint64_t seed;
    uint32_t partitionNodes; ///< 0 = unpartitioned compile.
    size_t pcDepth; ///< 0 = random DAG; else a layered PC this deep.
};

const GoldenCase kCases[] = {
    {1, 8, 32, OutputInterconnect::PerLayerSubtree, 12, 300, 101, 0, 0},
    {1, 16, 100, OutputInterconnect::PerLayerSubtree, 16, 500, 102, 0, 0},
    {2, 8, 64, OutputInterconnect::PerLayerSubtree, 10, 400, 103, 0, 0},
    {2, 32, 256, OutputInterconnect::PerLayerSubtree, 24, 800, 104, 0, 0},
    {3, 16, 32, OutputInterconnect::PerLayerSubtree, 16, 600, 105, 0, 0},
    {3, 64, 100, OutputInterconnect::PerLayerSubtree, 32, 1200, 106, 0, 0},
    {3, 64, 256, OutputInterconnect::PerLayerSubtree, 32, 1500, 107, 0, 0},
    {2, 64, 32, OutputInterconnect::PerLayerSubtree, 24, 900, 108, 0, 0},
    {2, 16, 64, OutputInterconnect::Crossbar, 16, 500, 109, 0, 0},
    {3, 32, 32, OutputInterconnect::OnePerPe, 16, 600, 110, 0, 0},
    {3, 64, 32, OutputInterconnect::PerLayerSubtree, 32, 1500, 111, 400, 0},
    // Shallow, wide PCs keep hundreds of values live: they fill whole
    // banks (full-bank priority encoding, spills) and occupy more
    // than 64 registers of a bank.
    {1, 8, 32, OutputInterconnect::PerLayerSubtree, 0, 1500, 201, 0, 4},
    {1, 16, 100, OutputInterconnect::PerLayerSubtree, 0, 3000, 202, 0, 4},
    {2, 8, 256, OutputInterconnect::PerLayerSubtree, 0, 3000, 203, 0, 3},
    {3, 16, 100, OutputInterconnect::OnePerPe, 0, 3000, 204, 0, 4},
    {3, 64, 256, OutputInterconnect::PerLayerSubtree, 0, 12000, 205, 0, 3},
    {2, 32, 64, OutputInterconnect::Crossbar, 0, 4000, 206, 0, 4},
    {3, 8, 32, OutputInterconnect::PerLayerSubtree, 0, 2000, 207, 500, 5},
};
constexpr size_t kNumCases = sizeof(kCases) / sizeof(kCases[0]);

/** FNV-1a over 64-bit words. */
struct Hasher
{
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t v)
    {
        for (int k = 0; k < 8; ++k) {
            h ^= (v >> (8 * k)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

uint64_t
hashResult(const SimResult &res)
{
    Hasher h;
    h.add(res.outputs.size());
    for (double v : res.outputs) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h.add(bits);
    }
    const SimStats &s = res.stats;
    h.add(s.cycles);
    for (uint64_t k : s.kindCount)
        h.add(k);
    h.add(s.bankReads);
    h.add(s.bankWrites);
    h.add(s.peOperations);
    h.add(s.pePassThroughs);
    h.add(s.crossbarTransfers);
    h.add(s.memReads);
    h.add(s.memWrites);
    h.add(s.instrBitsFetched);
    h.add(s.peakLiveRegisters);
    h.add(s.occupancyTrace.size());
    for (const auto &row : s.occupancyTrace) {
        h.add(row.size());
        for (uint32_t v : row)
            h.add(v);
    }
    h.add(s.traceStride);
    h.add(s.transferCycles);
    return h.h;
}

struct Compiled
{
    CompiledProgram prog;
    std::vector<double> inputs;
};

const Compiled &
compiledCase(size_t k)
{
    static std::vector<Compiled> cache = [] {
        std::vector<Compiled> out;
        for (const GoldenCase &gc : kCases) {
            ArchConfig cfg;
            cfg.depth = gc.depth;
            cfg.banks = gc.banks;
            cfg.regsPerBank = gc.regs;
            cfg.outputNet = gc.net;
            CompileOptions opt;
            opt.partitionNodes = gc.partitionNodes;
            Dag dag;
            if (gc.pcDepth) {
                PcParams pp;
                pp.targetOperations = gc.operations;
                pp.depth = gc.pcDepth;
                pp.seed = gc.seed;
                dag = generatePc(pp);
            } else {
                dag = generateRandomDag(gc.inputs, gc.operations, gc.seed);
            }
            Compiled c;
            c.prog = compile(dag, cfg, opt);
            Rng rng(gc.seed * 7 + 1);
            c.inputs.resize(dag.numInputs());
            for (double &x : c.inputs)
                x = rng.uniform() + 0.5;
            out.push_back(std::move(c));
        }
        return out;
    }();
    return cache[k];
}

void
checkGoldens(const SimOptions &opts, const uint64_t (&golden)[kNumCases])
{
    for (size_t k = 0; k < kNumCases; ++k) {
        const GoldenCase &gc = kCases[k];
        SCOPED_TRACE("case " + std::to_string(k) + ": D" +
                     std::to_string(gc.depth) + ".B" +
                     std::to_string(gc.banks) + ".R" +
                     std::to_string(gc.regs));
        const Compiled &c = compiledCase(k);
        EXPECT_EQ(hashResult(Machine(c.prog, opts).run(c.inputs)),
                  golden[k]);
    }
}

TEST(SimGolden, TracingOff)
{
    const uint64_t golden[kNumCases] = {
        13513859543134119198ull, 10787867438466206135ull,
        14853385580929212568ull, 432282613288806318ull,
        4153826380762440307ull, 1852189697390098622ull,
        3082042741942954847ull, 17449806095648713212ull,
        149849441862425696ull, 10803225075571388213ull,
        3944538061731772436ull, 11690513264002796104ull,
        6887154987580121160ull, 16463578226481862460ull,
        17743186274784503678ull, 4560512591877881147ull,
        162069183687664569ull, 14638192157904329576ull,
    };
    checkGoldens(SimOptions{}, golden);
}

TEST(SimGolden, TracingOn)
{
    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 3;
    opts.maxTraceSamples = 0; // unbounded
    const uint64_t golden[kNumCases] = {
        17777329572911798867ull, 12354871975005718420ull,
        17688929307782603553ull, 174744974119205551ull,
        17348746828072540699ull, 10388795116954739938ull,
        15961361066201588081ull, 3656414972425725814ull,
        14821200181275051267ull, 4099480388231949044ull,
        1122628972569160816ull, 6215073993025811112ull,
        9807213037018144873ull, 15107313481145149205ull,
        1488860074708927997ull, 8176126242541174497ull,
        6613747149883633224ull, 9469249276685710675ull,
    };
    checkGoldens(opts, golden);
}

TEST(SimGolden, TraceDecimation)
{
    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 1;
    opts.maxTraceSamples = 16;
    opts.transfer.cyclesPerByte = 0.25;
    opts.transfer.dispatchCycles = 40;
    const uint64_t golden[kNumCases] = {
        14597745894407294024ull, 7726306825477199800ull,
        448853742015133515ull, 12789070780426471914ull,
        2406909374939157963ull, 11160922605352625166ull,
        5117011919691796637ull, 12168151545332516070ull,
        5723516241852716974ull, 13120030594555433858ull,
        5362535187505705638ull, 5585454741908971363ull,
        5882105654266739894ull, 8047087175023414165ull,
        6541278545671640318ull, 15463836447420666444ull,
        6165314212541576759ull, 18077775407396688307ull,
    };
    checkGoldens(opts, golden);
}

} // namespace
} // namespace dpu
