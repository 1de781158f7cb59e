// Topological analysis tests: orders, ASAP levels, depth, critical path —
// including property sweeps on random DAGs.
#include <gtest/gtest.h>

#include <random>

#include "graph/sampler.h"
#include "graph/topology.h"

namespace respect::graph {
namespace {

Dag Chain(int n) {
  Dag dag("chain");
  for (int i = 0; i < n; ++i) {
    dag.AddNode(OpAttr{"c" + std::to_string(i), OpType::kGeneric, 1, 1, 1});
  }
  for (int i = 0; i + 1 < n; ++i) dag.AddEdge(i, i + 1);
  return dag;
}

Dag Diamond() {
  Dag dag("diamond");
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 3);
  dag.AddEdge(2, 3);
  return dag;
}

TEST(TopologyTest, ChainLevels) {
  const TopoInfo t = AnalyzeTopology(Chain(5));
  EXPECT_EQ(t.depth, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(t.asap_level[i], i);
  }
}

TEST(TopologyTest, DiamondLevels) {
  const TopoInfo t = AnalyzeTopology(Diamond());
  EXPECT_EQ(t.depth, 3);
  EXPECT_EQ(t.asap_level[0], 0);
  EXPECT_EQ(t.asap_level[1], 1);
  EXPECT_EQ(t.asap_level[2], 1);
  EXPECT_EQ(t.asap_level[3], 2);
}

TEST(TopologyTest, SlackNodeTakesItsEarliestLevel) {
  // 0 -> 1 -> 2 -> 3 and 0 -> s -> 3: s could sit at level 1 or 2.
  Dag dag;
  for (int i = 0; i < 5; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  dag.AddEdge(2, 3);
  dag.AddEdge(0, 4);
  dag.AddEdge(4, 3);
  const TopoInfo t = AnalyzeTopology(dag);
  EXPECT_EQ(t.asap_level[4], 1);
}

TEST(TopologyTest, OrderIsTopological) {
  const Dag dag = Diamond();
  const TopoInfo t = AnalyzeTopology(dag);
  EXPECT_TRUE(IsTopologicalOrder(dag, t.order));
}

TEST(TopologyTest, IsTopologicalOrderRejectsBadOrders) {
  const Dag dag = Diamond();
  EXPECT_FALSE(IsTopologicalOrder(dag, {3, 2, 1, 0}));   // reversed
  EXPECT_FALSE(IsTopologicalOrder(dag, {0, 1, 2}));      // incomplete
  EXPECT_FALSE(IsTopologicalOrder(dag, {0, 0, 1, 2}));   // duplicate
}

TEST(TopologyTest, OrderPositionsInverts) {
  const std::vector<NodeId> order{2, 0, 1};
  const std::vector<int> pos = OrderPositions(order, 3);
  EXPECT_EQ(pos[2], 0);
  EXPECT_EQ(pos[0], 1);
  EXPECT_EQ(pos[1], 2);
}

TEST(TopologyTest, OrderPositionsRejectsNonPermutation) {
  EXPECT_THROW(OrderPositions({0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(OrderPositions({0, 5}, 2), std::invalid_argument);
}

TEST(TopologyTest, CriticalPathMacsChain) {
  Dag dag = Chain(4);
  for (NodeId v = 0; v < 4; ++v) dag.MutableAttr(v).macs = 10;
  const auto cp = CriticalPathMacs(dag);
  EXPECT_EQ(cp[0], 40);
  EXPECT_EQ(cp[3], 10);
}

// Property sweep: invariants on sampled graphs across seeds and degrees.
class TopologyPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopologyPropertyTest, SampledGraphInvariants) {
  const auto [seed, degree] = GetParam();
  std::mt19937_64 rng(seed);
  SamplerConfig config;
  config.num_nodes = 30;
  config.max_in_degree = degree;
  const Dag dag = SampleDag(config, rng);
  const TopoInfo t = AnalyzeTopology(dag);

  EXPECT_TRUE(IsTopologicalOrder(dag, t.order));
  EXPECT_LE(dag.MaxInDegree(), degree);
  EXPECT_EQ(dag.Sources().size(), 1u);
  EXPECT_EQ(dag.Sinks().size(), 1u);

  // Depth consistent with level range; every edge climbs a level.
  for (NodeId v = 0; v < dag.NodeCount(); ++v) {
    EXPECT_LT(t.asap_level[v], t.depth);
    for (const NodeId p : dag.Parents(v)) {
      EXPECT_LT(t.asap_level[p], t.asap_level[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TopologyPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(2, 3, 4, 5, 6)));

}  // namespace
}  // namespace respect::graph
