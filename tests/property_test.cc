// Cross-module property tests: invariants that must hold across random
// graphs, stage counts and schedulers, plus structural edge cases.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "exact/bnb_scheduler.h"
#include "exact/dp_partitioner.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "heuristics/list_scheduler.h"
#include "sched/postprocess.h"
#include "sched/rho.h"

namespace respect {
namespace {

using graph::Dag;
using sched::Schedule;

class SchedulingInvariantsTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulingInvariantsTest, ExactIsLowerBoundAndBoundsAreConsistent) {
  const auto [seed, stages] = GetParam();
  std::mt19937_64 rng(seed * 7919);
  const Dag dag = graph::SampleTrainingDag(24, rng);

  exact::BnbConfig config;
  config.num_stages = stages;
  config.max_expansions = 400'000;
  const exact::BnbResult exact = exact::SolveExact(dag, config);

  // Peak can never beat perfect balance or the heaviest node.
  std::int64_t max_node = 0;
  for (graph::NodeId v = 0; v < dag.NodeCount(); ++v) {
    max_node = std::max(max_node, dag.Attr(v).param_bytes);
  }
  const std::int64_t balance_lb =
      (dag.TotalParamBytes() + stages - 1) / stages;
  EXPECT_GE(exact.objective.peak_param_bytes,
            std::max(max_node, balance_lb));

  // Every heuristic is feasible and no better than exact on the objective.
  sched::PipelineConstraints c;
  c.num_stages = stages;
  for (const Schedule& s :
       {heuristics::ListSchedule(dag, stages),
        exact::PartitionDefaultOrder(dag, stages).schedule}) {
    ASSERT_TRUE(ValidateSchedule(dag, s, c).ok);
    EXPECT_GE(Evaluate(dag, s).peak_param_bytes,
              exact.objective.peak_param_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulingInvariantsTest,
    ::testing::Combine(::testing::Range(1, 9), ::testing::Values(2, 3, 4, 6)));

class PackSequenceOptimalityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PackSequenceOptimalityTest, PeakEqualsMinBottleneckOfTheOrder) {
  const auto [seed, stages] = GetParam();
  std::mt19937_64 rng(seed * 104729);
  const Dag dag = graph::SampleTrainingDag(30, rng);
  const auto topo = graph::AnalyzeTopology(dag);

  const Schedule s = sched::PackSequence(dag, topo.order, stages);
  std::vector<std::int64_t> weights(topo.order.size());
  for (std::size_t i = 0; i < topo.order.size(); ++i) {
    weights[i] = dag.Attr(topo.order[i]).param_bytes;
  }
  const auto metrics = ComputeMetrics(dag, s);
  EXPECT_EQ(metrics.peak_stage_param_bytes,
            sched::MinBottleneckBound(weights, stages));

  // Also equals the DP partitioner's bottleneck for the same order.
  const auto dp = exact::PartitionTopoOrder(dag, topo.order, stages);
  EXPECT_EQ(metrics.peak_stage_param_bytes, dp.objective.peak_param_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackSequenceOptimalityTest,
    ::testing::Combine(::testing::Range(1, 9), ::testing::Values(2, 4, 5)));

TEST(PropertyTest, PostProcessIdempotent) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 6; ++trial) {
    const Dag dag = graph::SampleTrainingDag(25, rng);
    sched::PipelineConstraints c;
    c.num_stages = 4;
    Schedule s =
        sched::PackSequence(dag, graph::AnalyzeTopology(dag).order, 4);
    PostProcess(dag, c, s);
    Schedule again = s;
    PostProcess(dag, c, again);
    EXPECT_EQ(s.stage, again.stage);
  }
}

TEST(PropertyTest, DpInvariantToEquivalentOrders) {
  // Chains have a single topological order; DP must agree with the packer.
  Dag dag("chain");
  std::mt19937_64 rng(11);
  for (int i = 0; i < 12; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = 1 + static_cast<std::int64_t>(rng() % 500);
    attr.output_bytes = 1;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  const auto dp = exact::PartitionDefaultOrder(dag, 4);
  const auto packed =
      sched::PackSequence(dag, graph::AnalyzeTopology(dag).order, 4);
  EXPECT_EQ(dp.objective.peak_param_bytes,
            ComputeMetrics(dag, packed).peak_stage_param_bytes);
}

TEST(EdgeCaseTest, GraphWithExactlyStagesNodes) {
  // |V| == num_stages: every stage gets exactly one node.
  Dag dag("tiny");
  for (int i = 0; i < 4; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = 10 * (i + 1);
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  exact::BnbConfig config;
  config.num_stages = 4;
  const auto result = exact::SolveExact(dag, config);
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_EQ(result.objective.peak_param_bytes, 40);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(result.schedule.stage[i], i);
}

TEST(EdgeCaseTest, WideForkJoin) {
  // One source fanning out to many parallel nodes and joining: monotone
  // assignments may split the parallel section across stages.
  Dag dag("fork");
  graph::OpAttr src_attr;
  src_attr.param_bytes = 1;
  const auto src = dag.AddNode(std::move(src_attr));
  std::vector<graph::NodeId> mid;
  for (int i = 0; i < 8; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = 100;
    attr.output_bytes = 10;
    mid.push_back(dag.AddNode(std::move(attr)));
    dag.AddEdge(src, mid.back());
  }
  graph::OpAttr sink_attr;
  sink_attr.param_bytes = 1;
  const auto sink = dag.AddNode(std::move(sink_attr));
  for (const auto m : mid) dag.AddEdge(m, sink);

  exact::BnbConfig config;
  config.num_stages = 4;
  config.max_expansions = 0;
  const auto result = exact::SolveExact(dag, config);
  EXPECT_TRUE(result.proved_optimal);
  // 802 total over 4 stages; parallel nodes are free to move, so the optimum
  // is a 1+2x100 / 2x100 / 2x100 / 2x100+1 style split with peak 202.
  EXPECT_LE(result.objective.peak_param_bytes, 202);
}

TEST(EdgeCaseTest, ZeroParameterGraphStillSchedules) {
  // All-zero parameter bytes (e.g. purely elementwise models) must not
  // break the packers or solvers.
  Dag dag("zeros");
  for (int i = 0; i < 8; ++i) {
    graph::OpAttr attr;
    attr.output_bytes = 64;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  const auto packed =
      sched::PackSequence(dag, graph::AnalyzeTopology(dag).order, 4);
  sched::PipelineConstraints c;
  c.num_stages = 4;
  EXPECT_TRUE(ValidateSchedule(dag, packed, c).ok);
  const auto exact = exact::SolveExact(dag, {.num_stages = 4});
  EXPECT_EQ(exact.objective.peak_param_bytes, 0);
}

TEST(EdgeCaseTest, HeavySingleNodeDominatesBottleneck) {
  Dag dag("heavy");
  for (int i = 0; i < 6; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = (i == 3) ? 1'000'000 : 10;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  const auto result = exact::SolveExact(dag, {.num_stages = 3});
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_EQ(result.objective.peak_param_bytes, 1'000'000);
}

TEST(EdgeCaseTest, RepairHandlesFullyReversedSchedule) {
  std::mt19937_64 rng(17);
  const Dag dag = graph::SampleTrainingDag(20, rng);
  Schedule s{5, std::vector<int>(20)};
  const auto topo = graph::AnalyzeTopology(dag);
  // Assign stages in reverse topological order: maximally infeasible.
  for (int i = 0; i < 20; ++i) {
    s.stage[topo.order[i]] = 4 - (i * 5) / 20;
  }
  sched::PipelineConstraints c;
  c.num_stages = 5;
  PostProcess(dag, c, s);
  EXPECT_TRUE(ValidateSchedule(dag, s, c).ok);
}

}  // namespace
}  // namespace respect
