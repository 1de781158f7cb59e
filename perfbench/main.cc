// The repository benchmark.  One process runs one workload:
//
//   respect_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>]
//
// It prints notes, a table of every metric by name and unit, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  It exits non-zero when any output check failed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Report;

void Usage() {
  std::fprintf(stderr,
               "usage: respect_bench --workload "
               "zoo-compile|serve-zipf|rollout-refill|fleet-forward "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage();
    return 2;
  }
  using Runner = void (*)(const Args&, Report&);
  const std::map<std::string, Runner> workloads = {
      {"zoo-compile", perfbench::RunZooCompile},
      {"serve-zipf", perfbench::RunServeZipf},
      {"rollout-refill", perfbench::RunRolloutRefill},
      {"fleet-forward", perfbench::RunFleetForward},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    Usage();
    return 2;
  }
  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    // Counters and shares of layers this workload never touched are zero;
    // every time metric must have been measured.
    for (const perfbench::MetricSpec& spec : perfbench::LayerMetrics()) {
      if (std::strcmp(spec.unit, "ratio") == 0 ||
          std::strcmp(spec.unit, "count") == 0 ||
          std::strcmp(spec.unit, "bytes") == 0) {
        report.SetIfAbsent(spec.name, 0.0);
      }
    }
  }
  return report.Print(args.workload, args.trace);
}
