/**
 * @file
 * The benchmark binary. perfbench/run.py builds it and passes
 * its arguments through:
 *
 *   dpu_perfbench --workload <name> [--seed N] [--seconds S]
 *                 [--trace 0|1] [--tiny] [--out-dir DIR]
 *   dpu_perfbench --fingerprint-selftest
 *
 * An untraced run (--trace 0) measures the workload for --seconds in
 * segments, each after a fresh set-up, and reports every end-to-end
 * metric. A traced run spends half of --seconds untraced and half with
 * spans on, reports every per-layer metric plus the tracing overhead
 * (traced vs. untraced median operation latency), and writes the
 * spans to DIR/<workload>-seed<N>.trace.json.
 * The last line of standard output is always the JSON result.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "arch/config.hh"
#include "common.hh"
#include "compiler/compiler.hh"
#include "trace.hh"
#include "workload.hh"
#include "workloads/pc_generator.hh"

namespace perfbench {

namespace {

/** Segments per measured pass: each sets the workload up afresh
 *  and measures it for its share of the time, so set-ups and samples
 *  spread over the whole run. setup_s is the median set-up. */
constexpr int kSegments = 5;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "dpu_perfbench: %s\n"
                 "usage: dpu_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--tiny] [--out-dir DIR]\n"
                 "       dpu_perfbench --fingerprint-selftest\n",
                 why.c_str());
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

/** The fingerprint check must fire on two different programs and
 *  stay quiet on two compiles of the same one. */
int
fingerprintSelfTest()
{
    dpu::PcParams a;
    a.targetOperations = 300;
    a.depth = 12;
    a.seed = 1;
    dpu::PcParams b = a;
    b.seed = 2;
    dpu::ArchConfig cfg = dpu::minEdpConfig();
    dpu::Dag dag_a = dpu::generatePc(a);
    uint64_t first = programHash(dpu::compile(dag_a, cfg));
    uint64_t again = programHash(dpu::compile(dag_a, cfg));
    uint64_t other = programHash(dpu::compile(dpu::generatePc(b), cfg));

    Fingerprint fp;
    std::string why;
    bool ok = fp.observe("program", first) &&
              fp.observe("program", again) &&
              !fp.observe("program", other, &why) && !why.empty();
    std::printf("fingerprint self-test: %s (%s)\n", ok ? "ok" : "FAILED",
                why.c_str());
    return ok ? 0 : 1;
}

void
printJson(const PassResult &r, const MetricValues &values,
          const std::vector<MetricSpec> &specs)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < specs.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", specs[i].name, values.at(specs[i].name),
                    specs[i].unit);
    std::printf("}}\n");
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> w;
    if (opt.workload == "largepc_compile")
        w = makeLargePcCompile(opt);
    else if (opt.workload == "sptrsv_serve")
        w = makeSptrsvServe(opt);
    else if (opt.workload == "dse_grid")
        w = makeDseGrid(opt);
    else
        usage("unknown workload '" + opt.workload + "'");

    std::vector<double> setupS;
    auto pass = [&](double seconds, bool traced) {
        setTracing(traced);
        // Each segment gets an equal share of the time still left, so
        // set-ups and overshoot past a segment's end are absorbed.
        const auto end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        for (int k = 0; k < kSegments; ++k) {
            setupS.push_back(w->setUp());
            double left = secondsBetween(Clock::now(), end);
            w->measure(std::max(0.0, left / (kSegments - k)), traced);
        }
        setTracing(false);
        return w->finish(traced);
    };

    PassResult r;
    if (!opt.trace) {
        r = pass(opt.seconds, false);
    } else {
        PassResult plain = pass(opt.seconds / 2, false);
        r = pass(opt.seconds / 2, true);
        r.attempted += plain.attempted;
        r.failed += plain.failed;
        r.correct = r.correct && plain.correct;
        r.log.insert(r.log.begin(), plain.log.begin(), plain.log.end());
        double traced = r.endToEnd["latency_p50_ms"];
        double untraced = plain.endToEnd["latency_p50_ms"];
        MetricValues layers = zeroPerLayer();
        for (const auto &[name, value] : r.perLayer)
            layers[name] = value;
        if (untraced > 0)
            layers["trace.overhead_frac"] = traced / untraced - 1.0;
        r.perLayer = layers;

        char line[160];
        std::snprintf(line, sizeof line,
                      "tracing overhead: median op latency %.4f ms traced "
                      "vs %.4f ms untraced (%+.2f%%), %zu spans",
                      traced, untraced, 100.0 * (traced / untraced - 1.0),
                      recordedSpans());
        r.log.push_back(line);
        std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
        if (writeChromeTrace(path))
            r.log.push_back("trace written to " + path);
        else
            r.log.push_back("warning: cannot write " + path);
        for (const auto &[name, seconds] : selfTimeTotals()) {
            std::snprintf(line, sizeof line, "  self time %-26s %10.4f s",
                          name.c_str(), seconds);
            r.log.push_back(line);
        }
    }

    r.endToEnd["setup_s"] = median(setupS);
    r.endToEnd["peak_rss_mb"] = peakRssMb();
    if (r.attempted == 0) { // nothing ran: report it as one failure
        r.attempted = 1;
        r.failed = 1;
        r.correct = false;
    }
    r.endToEnd["ok_frac"] =
        static_cast<double>(r.attempted - r.failed) /
        static_cast<double>(r.attempted);

    const std::vector<MetricSpec> &specs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    MetricValues &values = opt.trace ? r.perLayer : r.endToEnd;
    for (const MetricSpec &s : specs) {
        auto it = values.find(s.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            r.correct = false;
            r.log.push_back(std::string("FAIL: metric ") + s.name +
                            " missing or not finite");
            values[s.name] = 0.0;
        }
    }

    std::printf("perfbench %s seed %llu, %.1f s%s, %u threads\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? " traced" : "", opt.threads);
    for (const std::string &line : r.log)
        std::printf("%s\n", line.c_str());
    for (const MetricSpec &s : specs)
        std::printf("  %-26s %16.6g %s\n", s.name, values.at(s.name), s.unit);
    printJson(r, values, specs);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = std::min(4u, hw);
    opt.outDir = "perfbench/out";
    bool fingerprintTest = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        bool inline_value = false;
        if (size_t eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            inline_value = true;
        }
        auto next = [&]() -> std::string {
            if (inline_value)
                return value;
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--seed") {
            if (!parseUnsigned(next(), n))
                usage("--seed needs a non-negative integer");
            opt.seed = n;
        } else if (arg == "--seconds") {
            std::string v = next();
            char *end = nullptr;
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                usage("--seconds needs a number in (0, 3600]");
        } else if (arg == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--out-dir") {
            opt.outDir = next();
        } else if (arg == "--fingerprint-selftest") {
            fingerprintTest = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (fingerprintTest)
        return fingerprintSelfTest();
    if (opt.workload.empty())
        usage("--workload is required");

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "dpu_perfbench: cannot create %s: %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return 1;
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dpu_perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
}
