#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (the benchmark package, which
compiles the library sources under src/ in Release mode) into
.bench_build/perfbench when needed, then runs one workload and passes
its output through; the last line of standard output is the JSON
result. Build output goes to standard error.

--self-test runs every workload of BENCHMARK.json at tiny sizes, traced
and untraced, at two seeds, and checks that every declared metric is
present with its unit, that nothing failed, and that the program
fingerprint check fires on two different programs. It exits 0 when all
of that holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dpu_perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "compiler", "compiler.hh")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % timeout, 1)
    return done.returncode, done.stdout


def check_result(text, names_units, label):
    """Problems with one run's JSON result line (empty when fine)."""
    lines = text.strip().splitlines()
    if not lines:
        return [label + ": no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [label + ": last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(label + ": unexpected keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append(label + ": correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(label + ": attempted must be a whole number >= 1")
    if result["failed"] != 0:
        problems.append(label + ": %s operations failed" % result["failed"])
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names_units):
        problems.append(label + ": metric names differ from BENCHMARK.json")
    for name, unit in names_units.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            problems.append(label + ": metric %s malformed" % name)
            continue
        if m["unit"] != unit:
            problems.append(label + ": %s unit %s, declared %s"
                            % (name, m["unit"], unit))
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(label + ": %s is not a finite number" % name)
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    problems = []
    code, out = run_binary(["--fingerprint-selftest"])
    sys.stdout.write(out)
    if code != 0:
        problems.append("fingerprint self-test failed")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in ("1", "2"):
            for trace, names in (("0", e2e), ("1", layers)):
                label = "%s seed %s trace %s" % (workload, seed, trace)
                code, out = run_binary(
                    ["--workload", workload, "--seed", seed, "--seconds",
                     "1", "--trace", trace, "--tiny", "--out-dir", OUT_DIR])
                if code != 0:
                    problems.append(label + ": exit code %d" % code)
                    continue
                found = check_result(out, names, label)
                if trace == "0" and not found:
                    result = json.loads(out.strip().splitlines()[-1])
                    for name, m in result["metrics"].items():
                        if m["value"] == 0:
                            found.append(label + ": %s reads 0" % name)
                problems += found
                print("%-40s %s" % (label, "ok" if not found else "FAILED"))
    for p in problems:
        print("self-test: " + p)
    print("self-test: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    build()
    code, out = run_binary(args + ["--out-dir", OUT_DIR])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
