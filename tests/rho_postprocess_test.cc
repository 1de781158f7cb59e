// ρ (sequence packing), schedule<->sequence conversions and the
// post-inference repair passes.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "graph/sampler.h"
#include "graph/topology.h"
#include "sched/postprocess.h"
#include "sched/rho.h"

namespace respect::sched {
namespace {

graph::Dag UniformChain(int n, std::int64_t bytes = 100) {
  graph::Dag dag("chain");
  for (int i = 0; i < n; ++i) {
    graph::OpAttr attr;
    attr.name = "c" + std::to_string(i);
    attr.param_bytes = bytes;
    attr.output_bytes = 10;
    dag.AddNode(std::move(attr));
  }
  for (int i = 0; i + 1 < n; ++i) dag.AddEdge(i, i + 1);
  return dag;
}

TEST(PackSequenceTest, UniformChainPacksEvenly) {
  const graph::Dag dag = UniformChain(8);
  std::vector<graph::NodeId> seq(8);
  std::iota(seq.begin(), seq.end(), 0);
  const Schedule s = PackSequence(dag, seq, 4);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.stage[i], i / 2);
}

TEST(PackSequenceTest, EveryStageNonEmptyEvenWithSkewedMass) {
  // One huge node up front must not starve the remaining stages.
  graph::Dag dag("skew");
  for (int i = 0; i < 6; ++i) {
    graph::OpAttr attr;
    attr.param_bytes = (i == 0) ? 1'000'000 : 1;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  std::vector<graph::NodeId> seq(6);
  std::iota(seq.begin(), seq.end(), 0);
  const Schedule s = PackSequence(dag, seq, 3);
  std::vector<int> count(3, 0);
  for (const int st : s.stage) ++count[st];
  for (const int c : count) EXPECT_GT(c, 0);
}

TEST(PackSequenceTest, MonotoneOnTopologicalOrder) {
  std::mt19937_64 rng(13);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  const auto topo = graph::AnalyzeTopology(dag);
  const Schedule s = PackSequence(dag, topo.order, 4);
  PipelineConstraints c;
  c.num_stages = 4;
  EXPECT_TRUE(ValidateSchedule(dag, s, c).ok);
}

TEST(PackSequenceTest, RejectsBadInputs) {
  const graph::Dag dag = UniformChain(4);
  EXPECT_THROW(PackSequence(dag, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(PackSequence(dag, {0, 1, 2, 3}, 0), std::invalid_argument);
}

TEST(MinBottleneckBoundTest, DistinguishesItsErrorPaths) {
  // Each invalid input names its actual problem — an empty weight vector
  // must not be blamed for a bad segment count and vice versa.
  try {
    (void)MinBottleneckBound({}, 2);
    FAIL() << "empty weights accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty weights"), std::string::npos)
        << e.what();
  }
  try {
    (void)MinBottleneckBound({1, 2, 3}, 0);
    FAIL() << "num_segments = 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_segments"), std::string::npos)
        << e.what();
  }
  try {
    (void)MinBottleneckBound({1, -2, 3}, 2);
    FAIL() << "negative weight accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("negative weight"),
              std::string::npos)
        << e.what();
  }
}

TEST(MinBottleneckBoundTest, SurvivesWeightsNearInt64Max) {
  // Three ~5e18 weights sum past int64 max; the greedy fill and the search
  // interval must saturate instead of overflowing (UB before this guard).
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 7;
  EXPECT_EQ(MinBottleneckBound({big, big}, 2), big);
  EXPECT_EQ(MinBottleneckBound({big, big, big}, 3), big);
  // Two segments for three huge weights: one segment must take two weights,
  // whose exact sum exceeds int64 max, so the bound saturates at max.
  EXPECT_EQ(MinBottleneckBound({big, big, big}, 2),
            std::numeric_limits<std::int64_t>::max());
}

TEST(MinBottleneckBoundTest, ExactBoundsOnSmallInputs) {
  EXPECT_EQ(MinBottleneckBound({1, 2, 3, 4}, 1), 10);
  EXPECT_EQ(MinBottleneckBound({1, 2, 3, 4}, 2), 6);  // best cut: {1,2,3}|{4}
  EXPECT_EQ(MinBottleneckBound({1, 2, 3, 4}, 4), 4);
  EXPECT_EQ(MinBottleneckBound({0, 0, 0}, 2), 0);
  EXPECT_EQ(MinBottleneckBound({1, 1, 1, 1}, 2), 2);
  EXPECT_EQ(MinBottleneckBound({5, 1, 1, 1}, 2), 5);
  EXPECT_EQ(MinBottleneckBound({3, 3, 3}, 3), 3);
  EXPECT_EQ(MinBottleneckBound({10}, 1), 10);
  EXPECT_EQ(MinBottleneckBound({2, 2, 2, 2, 2, 2}, 3), 4);
  EXPECT_EQ(MinBottleneckBound({4, 7, 2}, 1), 13);
}

TEST(ScheduleToSequenceTest, SortsByStageThenTopo) {
  const graph::Dag dag = UniformChain(4);
  const Schedule s{2, {0, 0, 1, 1}};
  EXPECT_EQ(ScheduleToSequence(dag, s),
            (std::vector<graph::NodeId>{0, 1, 2, 3}));
  const Schedule rev{2, {1, 1, 1, 1}};  // all stage 1 -> pure topo order
  EXPECT_EQ(ScheduleToSequence(dag, rev),
            (std::vector<graph::NodeId>{0, 1, 2, 3}));
}

TEST(RepairDependenciesTest, PushesChildrenForward) {
  const graph::Dag dag = UniformChain(3);
  Schedule s{3, {2, 0, 1}};
  const int moved = RepairDependencies(dag, s);
  EXPECT_EQ(moved, 2);
  EXPECT_EQ(s.stage, (std::vector<int>{2, 2, 2}));
}

TEST(RepairDependenciesTest, NoopOnFeasible) {
  const graph::Dag dag = UniformChain(3);
  Schedule s{3, {0, 1, 2}};
  EXPECT_EQ(RepairDependencies(dag, s), 0);
}

TEST(EnforceCochildrenTest, GroupsSiblingsAtEarliestStage) {
  // 0 -> {1, 2}; 1 -> 3; 2 -> 3.
  graph::Dag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 3);
  dag.AddEdge(2, 3);
  Schedule s{4, {0, 1, 3, 3}};
  EnforceCochildren(dag, s);
  // Children of 0 are {1,2}: earliest predicted stage is 1.
  EXPECT_EQ(s.stage[1], 1);
  EXPECT_EQ(s.stage[2], 1);
  // Dependencies still hold.
  EXPECT_LE(s.stage[1], s.stage[3]);
}

TEST(EnforceCochildrenTest, ResultSatisfiesCochildValidation) {
  std::mt19937_64 rng(21);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  Schedule s = PackSequence(dag, graph::AnalyzeTopology(dag).order, 4);
  EnforceCochildren(dag, s);
  PipelineConstraints c;
  c.num_stages = 4;
  c.require_cochildren = true;
  c.allow_empty_stages = true;  // grouping may empty stages
  EXPECT_TRUE(ValidateSchedule(dag, s, c).ok) << ValidateSchedule(dag, s, c).reason;
}

TEST(FillEmptyStagesTest, RepopulatesEmptyStages) {
  const graph::Dag dag = UniformChain(6);
  Schedule s{3, {0, 0, 0, 0, 0, 0}};
  FillEmptyStages(dag, s);
  PipelineConstraints c;
  c.num_stages = 3;
  EXPECT_TRUE(ValidateSchedule(dag, s, c).ok);
}

TEST(FillEmptyStagesTest, ThrowsWhenImpossible) {
  const graph::Dag dag = UniformChain(2);
  Schedule s{3, {0, 0}};
  EXPECT_THROW(FillEmptyStages(dag, s), std::logic_error);
}

TEST(PostProcessTest, ArbitraryPermutationBecomesDeployable) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Dag dag = graph::SampleTrainingDag(30, rng);
    std::vector<graph::NodeId> perm(dag.NodeCount());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    Schedule s = PackSequence(dag, perm, 5);
    PipelineConstraints c;
    c.num_stages = 5;
    PostProcess(dag, c, s);
    EXPECT_TRUE(ValidateSchedule(dag, s, c).ok);
  }
}

TEST(PostProcessTest, HonoursCochildConstraintWhenRequested) {
  std::mt19937_64 rng(37);
  const graph::Dag dag = graph::SampleTrainingDag(24, rng);
  Schedule s = PackSequence(dag, graph::AnalyzeTopology(dag).order, 3);
  PipelineConstraints c;
  c.num_stages = 3;
  c.require_cochildren = true;
  c.allow_empty_stages = true;
  PostProcess(dag, c, s);
  EXPECT_TRUE(ValidateSchedule(dag, s, c).ok);
}

}  // namespace
}  // namespace respect::sched
