#!/usr/bin/env python3
"""Benchmark regression gate over google-benchmark JSON output.

Compares the current BENCH_micro.json against a baseline artifact (the
previous run's upload) and fails when a watched throughput metric regresses
by more than --max-regression (a fraction; 0.15 = 15%).

Watched by default:
  * BM_DecodeGreedyWorkspace/100    — decode throughput at B = 1 (items/s;
                                      one-order graphs, so no network runs),
  * BM_DecodeGreedyZoo              — fused decode at the zoo-compile shape
                                      (default agent on ResNet152; items are
                                      nodes),
  * BM_DecodeGreedyBranchy          — fused decode of InceptionV3, whose
                                      steps are mostly choices,
  * BM_BatchedDecode/16             — lock-stepped decode throughput at B = 16
                                      (one-order graphs),
  * BM_BatchedDecodeBranchy/4       — lock-stepped decode of fork/join graphs
                                      with choices at B = 4,
  * BM_MissStormRefill              — grouped refill through the single cold
                                      path (requests/s),
  * BM_HashDag/sampled24,
    BM_HashDag/resnet152            — the graph digest every cache key folds
                                      in (hashes/s; a 24-node sampled graph
                                      and ResNet152),
  * BM_CompileServiceWarmCache      — warm-cache serving throughput,
  * BM_CompileServiceDiskWarmStart  — persistent-tier (disk) hit throughput,
  * BM_TenantFairness               — weighted-fair queue throughput under an
                                      adversarial tenant mix (its jain /
                                      tenant_wait_p99_ms counters ride along
                                      in the JSON for inspection),
  * BM_DegradedFallbackLatency      — degraded requests/s through the
                                      budget-blown-attempt -> fallback-solve
                                      path (the graceful-degradation tax),
  * BM_FleetWarmFetch               — peer spill fetches/s over the loopback
                                      wire protocol (the restart-warm-start
                                      tax of a fleet shard),
  * BM_TraceOverheadDisarmed        — the warm-cache path with every OBS_SPAN
                                      site compiled in but the tracer stopped;
                                      must track BM_CompileServiceWarmCache
                                      (disarmed tracing is one relaxed load
                                      per span site).

Benchmarks present in only one of the two files are reported and skipped
(renames and newly added benchmarks must not hard-fail the gate); a missing
baseline file passes with a notice (the first run on a branch has no
artifact to compare against); a regression in any watched metric exits
non-zero.  Unwatched benchmarks shared by both files are reported as INFO
deltas so a passing run still shows the whole perf surface at a glance.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json \
      [--max-regression 0.15] [--watch NAME ...]
"""

import argparse
import json
import sys

DEFAULT_WATCH = [
    "BM_DecodeGreedyWorkspace/100",
    "BM_DecodeGreedyZoo",
    "BM_DecodeGreedyBranchy",
    "BM_BatchedDecode/16",
    "BM_BatchedDecodeBranchy/4",
    "BM_MissStormRefill",
    "BM_HashDag/sampled24",
    "BM_HashDag/resnet152",
    "BM_CompileServiceWarmCache",
    "BM_CompileServiceDiskWarmStart",
    "BM_TenantFairness",
    "BM_DegradedFallbackLatency",
    "BM_FleetWarmFetch",
    "BM_TraceOverheadDisarmed",
]


def load_items_per_second(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    metrics = {}
    for bench in data.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) carry the same name with a
        # suffix; plain runs are what CI produces.
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("items_per_second")
        if rate is not None:
            metrics[bench["name"]] = float(rate)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="allowed fractional drop (default 0.15)")
    parser.add_argument("--watch", nargs="*", default=DEFAULT_WATCH,
                        help="benchmark names to gate on")
    args = parser.parse_args()

    try:
        baseline = load_items_per_second(args.baseline)
    except FileNotFoundError:
        print(f"no baseline yet ({args.baseline} does not exist); "
              "nothing to gate against — passing")
        return 0
    current = load_items_per_second(args.current)

    failures = []
    for name in args.watch:
        old = baseline.get(name)
        new = current.get(name)
        if old is None or new is None:
            where = "baseline" if old is None else "current run"
            print(f"SKIP  {name}: not present in {where}")
            continue
        change = (new - old) / old
        floor = old * (1.0 - args.max_regression)
        verdict = "FAIL" if new < floor else "ok"
        print(f"{verdict:4}  {name}: {old:,.1f} -> {new:,.1f} items/s "
              f"({change:+.1%}, floor {floor:,.1f})")
        if new < floor:
            failures.append(name)

    if failures:
        print(f"\nregression gate failed for: {', '.join(failures)} "
              f"(allowed drop: {args.max_regression:.0%})")
        return 1

    # Informational deltas for everything both runs measured but the gate
    # does not watch — the whole perf surface at a glance on a green run.
    unwatched = sorted(name for name in baseline
                       if name in current and name not in args.watch)
    for name in unwatched:
        old, new = baseline[name], current[name]
        change = (new - old) / old if old else 0.0
        print(f"INFO  {name}: {old:,.1f} -> {new:,.1f} items/s ({change:+.1%})")

    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
