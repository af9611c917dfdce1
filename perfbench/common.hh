/**
 * @file
 * Shared pieces of the benchmark: run options, the metric catalogue,
 * sample statistics, the program fingerprint and the result record
 * every workload fills in.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/program.hh"

namespace perfbench {

/** Default workload seed (recorded here and in README.md). */
inline constexpr uint64_t kDefaultSeed = 1;

/** One benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;    ///< Self-test sizes: every workload in seconds.
    std::string outDir;   ///< Scratch files and the Chrome trace.
    uint32_t threads = 1; ///< Host threads the workload may keep busy.
};

/** A metric's declared name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, reported by every untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Every per-layer metric, reported by every traced run. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Name -> value; filled by a workload, checked against a catalogue. */
using MetricValues = std::map<std::string, double>;

/**
 * What one measured pass of a workload produced. `endToEnd` and
 * `perLayer` are keyed by catalogue names; a per-layer metric the
 * workload's layers never touch stays at the 0 the catalogue starts
 * it at (only counts and fractions can be untouched — see README.md).
 */
struct PassResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;          ///< All oracles and fingerprints held.
    std::vector<std::string> log; ///< Human-readable summary lines.
    MetricValues endToEnd;
    MetricValues perLayer;
};

/** A fresh per-layer map: every catalogue name at 0. */
MetricValues zeroPerLayer();

// ---------------------------------------------------------------- //
// Sample statistics.                                               //
// ---------------------------------------------------------------- //

double median(std::vector<double> v);

/** Tail of a latency sample: the highest percentile that leaves at
 *  least ten samples above it (the maximum when there are fewer than
 *  eleven samples). */
struct Tail
{
    double value = 0;
    double percentile = 100; ///< In percent.
    size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/**
 * Tail of a run measured in segments: the median over segments of
 * each segment's tailOf(), with the median segment percentile. The
 * ten samples beyond a whole run's tail come from a handful of host
 * hiccups and move it by a third between runs; one segment's tail is
 * outvoted by the others. `segmentEnds` holds the end index in
 * `samples` of each segment, ascending.
 */
Tail segmentedTail(const std::vector<double> &samples,
                   const std::vector<size_t> &segmentEnds);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Seeds a workload's generator from its base seed and --seed. */
uint64_t mixSeed(uint64_t base, uint64_t seed);

// ---------------------------------------------------------------- //
// Determinism fingerprint.                                         //
// ---------------------------------------------------------------- //

/** 64-bit FNV-1a over bytes. */
uint64_t fnv1a(const void *data, size_t size, uint64_t h = 1469598103934665603ull);

/** Content hash of a compiled program: serializeProgram() of the
 *  program with its host-timing stats (compileSeconds,
 *  verifySeconds, cacheHits) cleared, so equal programs hash
 *  equally however long they took to build. */
uint64_t programHash(const dpu::CompiledProgram &prog);

/** Remembers the first hash seen under each label and reports any
 *  later mismatch. */
class Fingerprint
{
  public:
    /** False (and a message in `why`) when `hash` differs from the
     *  first hash recorded for `label`. */
    bool observe(const std::string &label, uint64_t hash,
                 std::string *why = nullptr);

    const std::map<std::string, uint64_t> &hashes() const
    {
        return first;
    }

  private:
    std::map<std::string, uint64_t> first;
};

/** "0x%016llx". */
std::string hex(uint64_t h);

/** Path for a scratch or output file of this run inside outDir. */
std::string outPath(const Options &opt, const std::string &stem,
                    const std::string &ext);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
