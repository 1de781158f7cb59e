// Baseline schedulers: feasibility on random graphs, quality orderings, the
// compiler substitute's behaviour and the mini backend.
#include <gtest/gtest.h>

#include <random>

#include "exact/bnb_scheduler.h"
#include "exact/dp_partitioner.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "heuristics/annealing.h"
#include "heuristics/backend_compile.h"
#include "heuristics/edgetpu_compiler.h"
#include "heuristics/list_scheduler.h"
#include "models/zoo.h"

namespace respect::heuristics {
namespace {

sched::PipelineConstraints Stages(int n) {
  sched::PipelineConstraints c;
  c.num_stages = n;
  return c;
}

class AllHeuristicsFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllHeuristicsFeasibilityTest, EverySchedulerProducesValidSchedules) {
  const auto [seed, stages] = GetParam();
  std::mt19937_64 rng(seed * 131);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);

  EXPECT_TRUE(
      ValidateSchedule(dag, ListSchedule(dag, stages), Stages(stages)).ok);
  AnnealingConfig annealing;
  annealing.num_stages = stages;
  annealing.iterations = 2000;
  EXPECT_TRUE(
      ValidateSchedule(dag, AnnealSchedule(dag, annealing), Stages(stages)).ok);
  EdgeTpuCompilerConfig compiler;
  compiler.num_stages = stages;
  compiler.refinement_rounds = 2;
  compiler.compile_passes = 1;
  EXPECT_TRUE(ValidateSchedule(dag, CompileForPipeline(dag, compiler).schedule,
                               Stages(stages))
                  .ok);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllHeuristicsFeasibilityTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(2, 4, 6)));

TEST(AnnealingTest, ImprovesOrMatchesItsSeed) {
  std::mt19937_64 rng(7);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  const auto seed_obj = exact::PartitionDefaultOrder(dag, 4).objective;
  AnnealingConfig config;
  config.num_stages = 4;
  config.iterations = 5000;
  const auto annealed = Evaluate(dag, AnnealSchedule(dag, config));
  EXPECT_LE(annealed.peak_param_bytes, seed_obj.peak_param_bytes);
}

TEST(AnnealingTest, DeterministicForFixedSeed) {
  std::mt19937_64 rng(8);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  AnnealingConfig config;
  config.num_stages = 3;
  config.iterations = 3000;
  const auto a = AnnealSchedule(dag, config);
  const auto b = AnnealSchedule(dag, config);
  EXPECT_EQ(a.stage, b.stage);
}

TEST(ListSchedulerTest, HigherPriorityScheduledNoLater) {
  // In a fork of two independent chains, the longer (higher critical path)
  // chain should never lag behind the shorter one stage-wise.
  graph::Dag dag;
  const graph::NodeId root = dag.AddNode({"root", graph::OpType::kInput, 0, 1, 0});
  graph::NodeId heavy = root, light = root;
  for (int i = 0; i < 4; ++i) {
    const graph::NodeId h =
        dag.AddNode({"h" + std::to_string(i), graph::OpType::kConv2D, 10, 1, 1000});
    dag.AddEdge(heavy, h);
    heavy = h;
  }
  const graph::NodeId l =
      dag.AddNode({"l", graph::OpType::kRelu, 10, 1, 1});
  dag.AddEdge(light, l);
  const graph::NodeId join = dag.AddNode({"join", graph::OpType::kAdd, 10, 1, 1});
  dag.AddEdge(heavy, join);
  dag.AddEdge(l, join);

  const auto s = ListSchedule(dag, 2);
  EXPECT_TRUE(ValidateSchedule(dag, s, Stages(2)).ok);
}

TEST(BackendCompileTest, DeterministicChecksum) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet50);
  const auto topo = graph::AnalyzeTopology(dag);
  const std::vector<graph::NodeId> ops(topo.order.begin(),
                                       topo.order.begin() + 40);
  const CompiledSegment a = CompileSegment(dag, ops);
  const CompiledSegment b = CompileSegment(dag, ops);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.scratch_bytes, b.scratch_bytes);
  EXPECT_GT(a.code.size(), ops.size());  // at least one instr per op
}

TEST(BackendCompileTest, ParamBytesMatchSegmentContents) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet50);
  const auto topo = graph::AnalyzeTopology(dag);
  const std::vector<graph::NodeId> ops(topo.order.begin(),
                                       topo.order.begin() + 25);
  const CompiledSegment seg = CompileSegment(dag, ops);
  std::int64_t expected = 0;
  for (const graph::NodeId v : ops) expected += dag.Attr(v).param_bytes;
  EXPECT_EQ(seg.param_bytes, expected);
}

TEST(BackendCompileTest, ScratchCoversWidestLiveSet) {
  // Two tensors alive simultaneously cannot share addresses.
  graph::Dag dag;
  for (int i = 0; i < 3; ++i) {
    graph::OpAttr attr;
    attr.output_bytes = 1000;
    dag.AddNode(std::move(attr));
  }
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 2);
  const CompiledSegment seg = CompileSegment(dag, {0, 1, 2});
  EXPECT_GE(seg.scratch_bytes, 2000);
}

TEST(BackendCompileTest, RejectsDuplicateOps) {
  graph::Dag dag;
  dag.AddNode({});
  EXPECT_THROW(CompileSegment(dag, {0, 0}), std::invalid_argument);
}

TEST(EdgeTpuCompilerTest, ProducesContiguousMonotoneSegments) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kXception);
  EdgeTpuCompilerConfig config;
  config.num_stages = 4;
  config.refinement_rounds = 4;
  config.compile_passes = 1;
  const EdgeTpuCompileResult result = CompileForPipeline(dag, config);
  EXPECT_TRUE(ValidateSchedule(dag, result.schedule, Stages(4)).ok);
  EXPECT_EQ(result.rounds_executed, 4);
  EXPECT_GT(result.ops_compiled, dag.NodeCount());
}

TEST(EdgeTpuCompilerTest, MemoryBalanceWorseOrEqualToExact) {
  // The miscorrelated latency balancing must not beat the exact memory
  // optimizer on peak memory (this is the mechanism behind Fig. 4/5).
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet101);
  EdgeTpuCompilerConfig config;
  config.num_stages = 6;
  config.refinement_rounds = 6;
  config.compile_passes = 1;
  const auto compiler_peak =
      Evaluate(dag, CompileForPipeline(dag, config).schedule).peak_param_bytes;

  exact::BnbConfig bnb;
  bnb.num_stages = 6;
  bnb.max_expansions = 500'000;
  const auto exact_peak =
      exact::SolveExact(dag, bnb).objective.peak_param_bytes;
  EXPECT_GE(compiler_peak, exact_peak);
}

}  // namespace
}  // namespace respect::heuristics
