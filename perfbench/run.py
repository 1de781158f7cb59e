#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
librespect and the benchmark into .bench_build/ (Release, failpoints and obs
spans compiled in, RESPECT_SIMD off); later calls only rebuild what changed.
Each workload runs in its own process, which prints its metrics and, as the
last line, one JSON object.  `--workload all` runs the four workloads in turn
and prints one row per workload.  The exit code is non-zero when the build
fails or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["zoo-compile", "serve-zipf", "rollout-refill", "fleet-forward"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at %s/src" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "--build", BUILD, "-j", jobs],
        [os.path.join(BUILD, "perfbench_stats_test")],
    ]
    return all(subprocess.run(s, stdout=sys.stderr).returncode == 0 for s in steps)


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [
        os.path.join(BUILD, "respect_bench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", WORKDIR,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return done.returncode, done.stdout


def print_rows(results):
    """One row per workload, one column per metric with its unit."""
    names = []
    units = {}
    for _, result in results:
        for name, metric in result.get("metrics", {}).items():
            if name not in units:
                names.append(name)
                units[name] = metric["unit"]
    header = ["workload", "correct", "attempted", "failed", "fail_frac"]
    header += ["%s [%s]" % (n, units[n]) for n in names]
    print("\t".join(header))
    for workload, result in results:
        attempted = result.get("attempted", 0)
        failed = result.get("failed", 0)
        row = [workload, str(result.get("correct", False)).lower(),
               str(attempted), str(failed),
               "%.6g" % (failed / attempted if attempted else 1.0)]
        for n in names:
            metric = result.get("metrics", {}).get(n)
            row.append("%.6g" % metric["value"] if metric else "-")
        print("\t".join(row))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2

    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    results = []
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(workload, args.seed, args.seconds, args.trace)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        try:
            results.append((workload, json.loads(lines[-1])))
        except (IndexError, ValueError):
            results.append((workload, {}))
            worst = max(worst, 1)
    print_rows(results)
    return worst


if __name__ == "__main__":
    sys.exit(main())
