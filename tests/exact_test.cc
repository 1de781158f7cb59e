// Exactness proofs for the solvers: DP partitioner vs exhaustive cut
// enumeration, and branch-and-bound vs brute force over all monotone
// assignments on random small graphs, both directly and through the
// ExactILP engine of the façade.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <tuple>

#include "core/respect.h"
#include "exact/bnb_scheduler.h"
#include "exact/dp_partitioner.h"
#include "graph/sampler.h"
#include "graph/topology.h"

namespace respect::exact {
namespace {

using sched::ObjectiveValue;
using sched::Schedule;

/// Brute force over every monotone assignment with no empty stage
/// (exponential; tiny graphs only).  Returns the lexicographically best
/// (peak, comm).
ObjectiveValue BruteForceBest(const graph::Dag& dag, int stages) {
  const int n = dag.NodeCount();
  const graph::TopoInfo topo = graph::AnalyzeTopology(dag);
  std::vector<int> assign(n, 0);
  ObjectiveValue best{std::numeric_limits<std::int64_t>::max(), 0};

  const std::function<void(int)> recurse = [&](int idx) {
    if (idx == n) {
      Schedule s{stages, assign};
      std::vector<bool> used(stages, false);
      for (const int k : assign) used[k] = true;
      for (const bool u : used) {
        if (!u) return;
      }
      const ObjectiveValue value = Evaluate(dag, s);
      if (value < best) best = value;
      return;
    }
    const graph::NodeId v = topo.order[idx];
    int lo = 0;
    for (const graph::NodeId p : dag.Parents(v)) {
      lo = std::max(lo, assign[p]);
    }
    for (int k = lo; k < stages; ++k) {
      assign[v] = k;
      recurse(idx + 1);
    }
    assign[v] = 0;
  };
  recurse(0);
  return best;
}

TEST(MinBottleneckTest, KnownInstances) {
  EXPECT_EQ(MinBottleneck({1, 1, 1, 1}, 2), 2);
  EXPECT_EQ(MinBottleneck({5, 1, 1, 1}, 2), 5);
  EXPECT_EQ(MinBottleneck({3, 3, 3}, 3), 3);
  EXPECT_EQ(MinBottleneck({10}, 1), 10);
  EXPECT_EQ(MinBottleneck({2, 2, 2, 2, 2, 2}, 3), 4);
}

TEST(MinBottleneckTest, SingleStageIsTotal) {
  EXPECT_EQ(MinBottleneck({4, 7, 2}, 1), 13);
}

TEST(MinBottleneckTest, RejectsEmpty) {
  EXPECT_THROW((void)MinBottleneck({}, 2), std::invalid_argument);
}

TEST(DpPartitionerTest, ChainExactness) {
  graph::Dag dag("chain");
  const std::int64_t weights[] = {5, 3, 8, 2, 4, 6};
  for (int i = 0; i < 6; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = weights[i];
    attr.output_bytes = 1;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  const DpResult r = PartitionDefaultOrder(dag, 3);
  // Optimal split of [5,3,8,2,4,6] into 3: e.g. [5,3]=8 | [8,2]=10 | [4,6]=10.
  EXPECT_EQ(r.objective.peak_param_bytes, 10);
  sched::PipelineConstraints c;
  c.num_stages = 3;
  EXPECT_TRUE(ValidateSchedule(dag, r.schedule, c).ok);
}

TEST(DpPartitionerTest, RejectsTooFewNodes) {
  graph::Dag dag;
  dag.AddNode({});
  dag.AddNode({});
  dag.AddEdge(0, 1);
  const auto topo = graph::AnalyzeTopology(dag);
  EXPECT_THROW(PartitionTopoOrder(dag, topo.order, 3), std::invalid_argument);
}

TEST(DpPartitionerTest, RejectsNonTopologicalOrder) {
  graph::Dag dag;
  for (int i = 0; i < 3; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  EXPECT_THROW(PartitionTopoOrder(dag, {2, 1, 0}, 2), std::invalid_argument);
}

class DpMatchesExhaustiveCutsTest : public ::testing::TestWithParam<int> {};

TEST_P(DpMatchesExhaustiveCutsTest, OnRandomChains) {
  // For chains, every monotone assignment is a contiguous partition, so the
  // DP on the unique topological order must equal the brute force optimum.
  std::mt19937_64 rng(GetParam());
  graph::Dag dag("chain");
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = 1 + static_cast<std::int64_t>(rng() % 1000);
    attr.output_bytes = 1 + static_cast<std::int64_t>(rng() % 100);
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  const DpResult dp = PartitionDefaultOrder(dag, 3);
  const ObjectiveValue brute = BruteForceBest(dag, 3);
  EXPECT_EQ(dp.objective, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpMatchesExhaustiveCutsTest,
                         ::testing::Range(1, 13));

/// (nodes, stages); each case runs seeds 1-15.
class BnbMatchesBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BnbMatchesBruteForceTest, OnRandomSmallDags) {
  const auto [nodes, stages] = GetParam();
  for (int seed = 1; seed <= 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 977);
    graph::SamplerConfig config;
    config.num_nodes = nodes;
    config.max_in_degree = 2 + static_cast<int>(rng() % 3);
    const graph::Dag dag = graph::SampleDag(config, rng);

    BnbConfig bnb;
    bnb.num_stages = stages;
    bnb.max_expansions = 0;  // unlimited: prove optimality
    const BnbResult result = SolveExact(dag, bnb);
    EXPECT_TRUE(result.proved_optimal);

    const ObjectiveValue brute = BruteForceBest(dag, stages);
    EXPECT_EQ(result.objective, brute);

    sched::PipelineConstraints c;
    c.num_stages = stages;
    EXPECT_TRUE(ValidateSchedule(dag, result.schedule, c).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BnbMatchesBruteForceTest,
                         ::testing::Values(std::tuple{6, 2},
                                           std::tuple{7, 2},
                                           std::tuple{9, 3}));

class ExactIlpEngineMatchesBruteForceTest
    : public ::testing::TestWithParam<int> {};

TEST_P(ExactIlpEngineMatchesBruteForceTest, ThroughCompile) {
  // The ExactILP engine plus the façade's repair pass must keep the
  // brute-force lexicographic (peak, comm) optimum, not just the peak.
  const int stages = GetParam();
  CompilerOptions options;
  options.exact_max_expansions = 0;
  options.exact_time_limit_seconds = 0.0;
  const PipelineCompiler compiler(options);
  for (int seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 977);
    graph::SamplerConfig config;
    config.num_nodes = 8;
    config.max_in_degree = 2 + seed % 3;
    const graph::Dag dag = graph::SampleDag(config, rng);

    const CompileResult result = compiler.Compile(dag, stages, "exact");
    EXPECT_TRUE(result.proved_optimal);
    EXPECT_EQ(sched::Evaluate(dag, result.schedule),
              BruteForceBest(dag, stages));
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, ExactIlpEngineMatchesBruteForceTest,
                         ::testing::Values(2, 3, 4));

TEST(BnbSchedulerTest, BeatsOrMatchesContiguousDp) {
  // The full search space includes all contiguous partitions, so B&B can
  // never be worse than the DP seed.
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    const graph::Dag dag = graph::SampleTrainingDag(16, rng);
    const DpResult dp = PartitionDefaultOrder(dag, 4);
    BnbConfig bnb;
    bnb.num_stages = 4;
    bnb.max_expansions = 500'000;
    const BnbResult result = SolveExact(dag, bnb);
    EXPECT_LE(result.objective, dp.objective);
  }
}

TEST(BnbSchedulerTest, BudgetReturnsFeasibleIncumbent) {
  std::mt19937_64 rng(5);
  const graph::Dag dag = graph::SampleTrainingDag(40, rng);
  BnbConfig bnb;
  bnb.num_stages = 5;
  bnb.max_expansions = 100;  // absurdly small
  const BnbResult result = SolveExact(dag, bnb);
  sched::PipelineConstraints c;
  c.num_stages = 5;
  EXPECT_TRUE(ValidateSchedule(dag, result.schedule, c).ok);
}

TEST(BnbSchedulerTest, RejectsTooManyStages) {
  graph::Dag dag;
  dag.AddNode({});
  dag.AddNode({});
  dag.AddEdge(0, 1);
  BnbConfig bnb;
  bnb.num_stages = 4;
  EXPECT_THROW(SolveExact(dag, bnb), std::invalid_argument);
}

TEST(BnbSchedulerTest, SingleStageTrivial) {
  std::mt19937_64 rng(6);
  const graph::Dag dag = graph::SampleTrainingDag(12, rng);
  BnbConfig bnb;
  bnb.num_stages = 1;
  const BnbResult result = SolveExact(dag, bnb);
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_EQ(result.objective.peak_param_bytes, dag.TotalParamBytes());
  EXPECT_EQ(result.objective.comm_bytes, 0);
}

}  // namespace
}  // namespace respect::exact
