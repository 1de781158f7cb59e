// Quickstart: build a small computational graph by hand, schedule it onto a
// 3-stage Edge TPU pipeline with every registered engine, and simulate the
// deployment.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/respect.h"
#include "tpu/sim.h"

int main() {
  using namespace respect;

  // A toy residual network: input -> conv -> (branch conv / identity) ->
  // add -> dense head.
  graph::Dag dag("toy-resnet");
  const auto input = dag.AddNode(
      {"input", graph::OpType::kInput, 0, 150'528, 0});  // 224x224x3
  const auto conv1 = dag.AddNode(
      {"conv1", graph::OpType::kConv2D, 9'408 * 4, 802'816, 118'013'952});
  const auto conv2 = dag.AddNode(
      {"conv2", graph::OpType::kConv2D, 36'864 * 4, 802'816, 462'422'016});
  const auto conv3 = dag.AddNode(
      {"conv3", graph::OpType::kConv2D, 36'864 * 4, 802'816, 462'422'016});
  const auto add = dag.AddNode(
      {"add", graph::OpType::kAdd, 0, 802'816, 802'816});
  const auto pool = dag.AddNode(
      {"pool", graph::OpType::kGlobalPool, 0, 256, 802'816});
  const auto fc = dag.AddNode(
      {"fc", graph::OpType::kDense, 257'000 * 4, 4'000, 256'000});
  dag.AddEdge(input, conv1);
  dag.AddEdge(conv1, conv2);
  dag.AddEdge(conv2, conv3);
  dag.AddEdge(conv1, add);  // residual
  dag.AddEdge(conv3, add);
  dag.AddEdge(add, pool);
  dag.AddEdge(pool, fc);

  PipelineCompiler compiler;  // fresh (untrained) RESPECT agent is fine here
  std::printf("scheduling '%s' (|V|=%d) onto a 3-stage pipeline\n\n",
              dag.Name().c_str(), dag.NodeCount());
  std::printf("%-16s %8s %14s %14s\n", "method", "solve ms", "peak stage KB",
              "per-inference us");

  for (const engines::EngineRegistration& engine :
       engines::EngineRegistry::Global().Registrations()) {
    const CompileResult result = compiler.Compile(dag, 3, engine.name);
    const auto sim = tpu::SimulatePipeline(result.package);
    std::printf("%-16s %8.2f %14.1f %14.1f\n", engine.name.c_str(),
                result.solve_seconds * 1e3,
                result.peak_stage_param_bytes / 1024.0,
                sim.per_inference_us);
  }

  // Show the RESPECT stage assignment in detail.
  const CompileResult respect_result = compiler.Compile(dag, 3, "RESPECT");
  std::printf("\nRESPECT stage assignment:\n");
  for (graph::NodeId v = 0; v < dag.NodeCount(); ++v) {
    std::printf("  %-8s -> Edge TPU %d\n", dag.Attr(v).name.c_str(),
                respect_result.schedule.stage[v]);
  }
  return 0;
}
