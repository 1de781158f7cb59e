// Fig. 5 reproduction: gap-to-optimal analysis of parameter caching.
//
// For the twelve ImageNet models and 4/5/6-stage pipelines, prints the peak
// per-stage parameter memory (MB, quantized — what the 8 MiB cache holds) of
// the exact-optimal schedule and of RESPECT, plus the absolute gap.
// The paper reports average gaps of 2.26% / 2.74% / 6.31% for 4/5/6 stages.
#include <cstdio>

#include "bench/bench_common.h"
#include "models/zoo.h"

int main() {
  using namespace respect;
  PipelineCompiler compiler = bench::MakeTrainedCompiler();

  std::printf("\nFig. 5: gap-to-optimal peak per-stage parameter memory "
              "(MB)\n");

  for (const int stages : bench::kStageCounts) {
    std::printf("\n-- %d-stage pipeline --\n", stages);
    std::printf("%-20s %12s %12s %10s\n", "Model", "Optimal(MB)",
                "RESPECT(MB)", "Gap(%)");

    double gap_sum = 0.0;
    int count = 0;
    for (const models::ModelName name : models::Fig5Models()) {
      const graph::Dag dag = models::BuildModel(name);
      const auto exact = compiler.Compile(dag, stages, "ExactILP");
      const auto rl = compiler.Compile(dag, stages, "RESPECT");

      const double opt_mb =
          static_cast<double>(exact.peak_stage_param_bytes) / 1048576.0;
      const double rl_mb =
          static_cast<double>(rl.peak_stage_param_bytes) / 1048576.0;
      const double gap = 100.0 * (rl_mb - opt_mb) / opt_mb;
      gap_sum += gap;
      ++count;

      std::printf("%-20s %12.2f %12.2f %9.2f%%\n",
                  std::string(models::ModelNameString(name)).c_str(), opt_mb,
                  rl_mb, gap);
    }
    std::printf("average gap-to-optimal at %d stages: %.2f%%   "
                "(paper: %s)\n",
                stages, gap_sum / count,
                stages == 4 ? "2.26%" : (stages == 5 ? "2.74%" : "6.31%"));
  }
  return 0;
}
