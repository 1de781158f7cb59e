// Domain example 1: deploy ResNet-101 on a 4-stage pipelined Edge TPU
// system end to end — the paper's headline workload.
//
// Flow (Fig. 1a): build the computational graph, schedule with RESPECT,
// quantize + extract per-device sub-models, save the deployment package,
// and measure simulated inference throughput against the Edge TPU compiler
// baseline.
//
//   $ ./build/examples/pipeline_resnet [num_stages]
#include <cstdio>
#include <cstdlib>

#include "core/respect.h"
#include "models/zoo.h"
#include "tpu/sim.h"

int main(int argc, char** argv) {
  using namespace respect;
  const int stages = argc > 1 ? std::atoi(argv[1]) : 4;
  if (stages < 1 || stages > 16) {
    std::fprintf(stderr, "usage: %s [num_stages in 1..16]\n", argv[0]);
    return 1;
  }

  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet101);
  std::printf("ResNet101: |V|=%d, %.1f M parameters, %.2f GMACs\n",
              dag.NodeCount(), dag.TotalParamBytes() / 4.0 / 1e6,
              dag.TotalMacs() / 1e9);

  CompilerOptions options;
  options.compiler.refinement_rounds = 12;  // keep the demo snappy
  PipelineCompiler compiler(options);

  const CompileResult respect_result = compiler.Compile(dag, stages, "RESPECT");
  const CompileResult baseline =
      compiler.Compile(dag, stages, "EdgeTPUCompiler");

  // Persist the deployable artifact (the stand-in for n .tflite files).
  const std::string package_path = "resnet101_pipeline.bin";
  deploy::SavePackage(respect_result.package, package_path);
  std::printf("wrote deployment package to %s\n\n", package_path.c_str());

  std::printf("per-stage parameter memory (quantized):\n");
  std::printf("%8s %16s %16s\n", "stage", "RESPECT (MB)", "compiler (MB)");
  for (int k = 0; k < stages; ++k) {
    std::printf("%8d %16.2f %16.2f\n", k,
                respect_result.package.segments[k].param_bytes / 1048576.0,
                baseline.package.segments[k].param_bytes / 1048576.0);
  }

  tpu::SimConfig sim;
  sim.num_inferences = 1000;
  const auto rl_run = tpu::SimulatePipeline(respect_result.package, sim);
  const auto base_run = tpu::SimulatePipeline(baseline.package, sim);

  std::printf("\n1000-inference simulation on the %d-stage pipeline:\n",
              stages);
  std::printf("  RESPECT : %9.1f us/inference (bottleneck stage %d)\n",
              rl_run.per_inference_us, rl_run.bottleneck_stage);
  std::printf("  compiler: %9.1f us/inference (bottleneck stage %d)\n",
              base_run.per_inference_us, base_run.bottleneck_stage);
  std::printf("  speedup : %.2fx\n",
              base_run.per_inference_us / rl_run.per_inference_us);
  return 0;
}
