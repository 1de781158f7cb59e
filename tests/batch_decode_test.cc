// Guards for the lock-stepped decode (DecodeGreedyBatch; a
// single-graph DecodeGreedy is its B = 1 case):
//  * DecodeGreedyBatch is bit-identical to sequential one-graph decodes
//    (deg 2-6, both MaskingModes, batch sizes 1, 3 and 8) and to the frozen
//    reference, and the same workspace survives different (nodes, batch,
//    hidden) shapes; empty, null and mixed-size inputs are rejected; a fired
//    CancelToken unwinds the decode (B = 1 and batched) and leaves its
//    workspace reusable;
//  * a batch mixing one-order graphs (decoded without the network) with
//    same-size graphs that have choices gives each graph its B = 1 and
//    reference sequence, in every lane order;
//  * the compiler-level group path (CompileGroup, chunked by node count)
//    returns element-wise the same schedules as sequential Compile() calls,
//    and SolveStats reports the batch/single split correctly — stragglers
//    are decoded one at a time;
//  * a steady-state decode on a warm DecodeWorkspace performs ZERO heap
//    allocations, also when B = 1 decodes and groups interleave on it and
//    when the graphs have choices (counted via a replaced global operator
//    new).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/cancel.h"
#include "core/respect.h"
#include "engines/engine.h"
#include "graph/sampler.h"
#include "rl/decode_workspace.h"
#include "rl/ptrnet.h"
#include "rl/scheduler.h"
#include "tests/support/fork_join_dag.h"
#include "tests/support/reference_decode.h"

// ---- Global allocation counter (same funnel as decode_parity_test). ----

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace respect {
namespace {

rl::PtrNetConfig NetConfig(rl::MaskingMode masking) {
  rl::PtrNetConfig config;
  config.hidden_dim = 24;
  config.masking = masking;
  return config;
}

std::vector<graph::Dag> SampleSameSizeDags(int count, int nodes, int deg,
                                           std::mt19937_64& rng) {
  graph::SamplerConfig sampler;
  sampler.max_in_degree = deg;
  sampler.num_nodes = nodes;
  std::vector<graph::Dag> dags;
  dags.reserve(count);
  for (int i = 0; i < count; ++i) dags.push_back(graph::SampleDag(sampler, rng));
  return dags;
}

std::vector<const graph::Dag*> Pointers(const std::vector<graph::Dag>& dags) {
  std::vector<const graph::Dag*> ptrs;
  ptrs.reserve(dags.size());
  for (const graph::Dag& dag : dags) ptrs.push_back(&dag);
  return ptrs;
}

TEST(BatchDecodeTest, BatchMatchesSequentialAcrossComplexities) {
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    const rl::PtrNetAgent agent(NetConfig(masking));
    rl::DecodeWorkspace batch_ws;
    rl::DecodeWorkspace single_ws;
    std::mt19937_64 rng(101);
    for (int deg = 2; deg <= 6; ++deg) {
      for (const int batch : {1, 3, 8}) {
        const auto dags = SampleSameSizeDags(batch, 30, deg, rng);
        const auto ptrs = Pointers(dags);
        const auto& sequences = agent.DecodeGreedyBatch(
            std::span<const graph::Dag* const>(ptrs), batch_ws);
        for (int g = 0; g < batch; ++g) {
          EXPECT_EQ(sequences[g], agent.DecodeGreedy(dags[g], single_ws))
              << "deg=" << deg << " batch=" << batch << " g=" << g;
        }
      }
    }
  }
}

TEST(BatchDecodeTest, BatchMatchesReferenceAcrossSizes) {
  // Against the frozen pre-optimization reference, across node counts and
  // shrinking/growing workspace reuse (60 -> 12 -> 45).
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  rl::DecodeWorkspace ws;
  std::mt19937_64 rng(131);
  for (const int nodes : {60, 12, 45}) {
    const auto dags = SampleSameSizeDags(4, nodes, 3, rng);
    const auto ptrs = Pointers(dags);
    const auto& sequences =
        agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
    for (int g = 0; g < 4; ++g) {
      EXPECT_EQ(sequences[g], rl::ReferenceDecodeGreedy(agent, dags[g]))
          << "nodes=" << nodes << " g=" << g;
    }
  }
}

TEST(BatchDecodeTest, WorkspaceServesDifferentHiddenSizes) {
  rl::PtrNetConfig big = NetConfig(rl::MaskingMode::kReadySet);
  big.hidden_dim = 32;
  rl::PtrNetConfig small = NetConfig(rl::MaskingMode::kReadySet);
  small.hidden_dim = 16;
  const rl::PtrNetAgent agent_big(big);
  const rl::PtrNetAgent agent_small(small);
  std::mt19937_64 rng(141);
  const auto dags = SampleSameSizeDags(3, 25, 4, rng);
  const auto ptrs = Pointers(dags);

  rl::DecodeWorkspace ws;
  for (const rl::PtrNetAgent* agent : {&agent_big, &agent_small, &agent_big}) {
    const auto& sequences =
        agent->DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(sequences[g], agent->DecodeGreedy(dags[g]));
    }
  }
}

TEST(BatchDecodeTest, RejectsMixedNodeCounts) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(151);
  const graph::Dag a = graph::SampleTrainingDag(20, rng);
  const graph::Dag b = graph::SampleTrainingDag(30, rng);
  rl::DecodeWorkspace ws;
  // Mixed sizes, and null entries first (read before any node count) and
  // in the middle.
  for (const std::vector<const graph::Dag*>& ptrs :
       {std::vector<const graph::Dag*>{&a, &b},
        std::vector<const graph::Dag*>{nullptr, &a},
        std::vector<const graph::Dag*>{&a, nullptr, &a}}) {
    EXPECT_THROW((void)agent.DecodeGreedyBatch(
                     std::span<const graph::Dag* const>(ptrs), ws),
                 std::invalid_argument);
  }
}

TEST(BatchDecodeTest, FiredTokenUnwindsTheBatchDecode) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(153);
  const auto dags = SampleSameSizeDags(3, 20, 3, rng);
  const auto ptrs = Pointers(dags);
  const core::CancelToken cancel = core::CancelToken::Manual();
  cancel.Cancel();

  rl::DecodeWorkspace ws;
  EXPECT_THROW((void)agent.DecodeGreedyBatch(
                   std::span<const graph::Dag* const>(ptrs), ws, cancel),
               core::CancelledError);
  // The unwound workspace still decodes exactly like a fresh one.
  rl::DecodeWorkspace fresh;
  const auto expected =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), fresh);
  const auto& reused =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  for (int g = 0; g < 3; ++g) EXPECT_EQ(reused[g], expected[g]) << "g=" << g;
}

TEST(BatchDecodeTest, FiredTokenUnwindsTheSingleDecode) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(155);
  const graph::Dag one_order = SampleSameSizeDags(1, 20, 3, rng)[0];
  const graph::Dag branchy = ForkJoinDag(20, 3, 155);
  const core::CancelToken cancel = core::CancelToken::Manual();
  cancel.Cancel();

  rl::DecodeWorkspace ws;
  for (const graph::Dag* dag : {&one_order, &branchy}) {
    EXPECT_THROW((void)agent.DecodeGreedy(*dag, ws, cancel),
                 core::CancelledError);
    EXPECT_EQ(agent.DecodeGreedy(*dag, ws), agent.DecodeGreedy(*dag));
  }
}

TEST(BatchDecodeTest, MixedBatchMatchesSingleDecodesAndReference) {
  // One-order graphs leave the lock-step before packing; the graphs with
  // choices decode as a narrower batch.  Every lane order must give each
  // graph exactly its B = 1 and reference sequence.
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    const rl::PtrNetAgent agent(NetConfig(masking));
    rl::DecodeWorkspace ws;
    rl::DecodeWorkspace single_ws;
    std::mt19937_64 rng(157);
    for (const int nodes : {20, 45}) {
      // Relabelled, so no two graphs share a Kahn order.
      std::vector<graph::Dag> one_order;
      for (const graph::Dag& dag : SampleSameSizeDags(2, nodes, 3, rng)) {
        one_order.push_back(RelabelNodes(dag, rng()));
      }
      const graph::Dag fork_a = ForkJoinDag(nodes, 2, 157 + nodes);
      const graph::Dag fork_b =
          RelabelNodes(ForkJoinDag(nodes, 4, 158 + nodes), rng());
      ASSERT_EQ(ChoiceSteps(one_order[0]), 0);
      ASSERT_EQ(ChoiceSteps(one_order[1]), 0);
      ASSERT_GT(ChoiceSteps(fork_a), 0);
      ASSERT_GT(ChoiceSteps(fork_b), 0);
      const graph::Dag* const a = &one_order[0];
      const graph::Dag* const b = &one_order[1];
      for (const std::vector<const graph::Dag*>& group :
           {std::vector<const graph::Dag*>{a, &fork_a},
            std::vector<const graph::Dag*>{&fork_a, a},
            std::vector<const graph::Dag*>{a, &fork_a, b, &fork_b},
            std::vector<const graph::Dag*>{&fork_b, a, b},
            std::vector<const graph::Dag*>{a, b},
            std::vector<const graph::Dag*>{&fork_a, &fork_b}}) {
        const auto& sequences = agent.DecodeGreedyBatch(
            std::span<const graph::Dag* const>(group), ws);
        for (std::size_t g = 0; g < group.size(); ++g) {
          EXPECT_EQ(sequences[g], agent.DecodeGreedy(*group[g], single_ws))
              << "nodes=" << nodes << " B=" << group.size() << " g=" << g;
          EXPECT_EQ(sequences[g], rl::ReferenceDecodeGreedy(agent, *group[g]))
              << "nodes=" << nodes << " B=" << group.size() << " g=" << g;
        }
      }
    }
  }
}

TEST(BatchDecodeTest, SteadyStateBatchDecodeIsAllocationFree) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(161);
  const auto dags = SampleSameSizeDags(8, 50, 3, rng);
  const auto ptrs = Pointers(dags);

  rl::DecodeWorkspace ws;
  const auto cold = agent.DecodeGreedyBatch(
      std::span<const graph::Dag* const>(ptrs), ws);  // warms every buffer
  ASSERT_EQ(cold.size(), 8u);

  const std::uint64_t before = g_alloc_count.load();
  const auto& warm =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state batch decode allocated " << (after - before)
      << " times";
  for (int g = 0; g < 8; ++g) EXPECT_EQ(warm[g], cold[g]);

  // Still allocation-free after a smaller batch of smaller graphs (buffers
  // shrink logically but keep their capacity).
  const auto small = SampleSameSizeDags(3, 20, 3, rng);
  const auto small_ptrs = Pointers(small);
  (void)agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  const std::uint64_t before2 = g_alloc_count.load();
  (void)agent.DecodeGreedyBatch(
      std::span<const graph::Dag* const>(small_ptrs), ws);
  (void)agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  const std::uint64_t after2 = g_alloc_count.load();
  EXPECT_EQ(after2 - before2, 0u);

  // One warm workspace serves single decodes and groups interleaved
  // (RlEngine's thread_local does): B = 1, B = 8, B = 1, still without an
  // allocation, and each sequence equals the reference.
  std::vector<std::vector<graph::NodeId>> expected;
  for (const graph::Dag& dag : dags) {
    expected.push_back(rl::ReferenceDecodeGreedy(agent, dag));
  }
  std::vector<std::vector<graph::NodeId>> got(dags.size() + 2);
  for (auto& sequence : got) sequence.reserve(50);
  const std::uint64_t before3 = g_alloc_count.load();
  got[0] = agent.DecodeGreedy(dags[0], ws);
  const auto& group =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  for (std::size_t g = 0; g < dags.size(); ++g) got[g + 1] = group[g];
  got[dags.size() + 1] = agent.DecodeGreedy(dags[7], ws);
  const std::uint64_t after3 = g_alloc_count.load();
  EXPECT_EQ(after3 - before3, 0u)
      << "interleaved decodes allocated " << (after3 - before3) << " times";
  EXPECT_EQ(got[0], expected[0]);
  for (std::size_t g = 0; g < dags.size(); ++g) {
    EXPECT_EQ(got[g + 1], expected[g]) << "g=" << g;
  }
  EXPECT_EQ(got[dags.size() + 1], expected[7]);
}

TEST(BatchDecodeTest, SteadyStateBatchDecodeWithChoicesIsAllocationFree) {
  // The guard above decodes one-order graphs, which skip the network; this
  // one lock-steps graphs with choices, mixed with a one-order graph, at
  // B = 5 and interleaved with B = 1 and a smaller B = 3.
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(163);
  std::vector<graph::Dag> dags;
  for (int i = 0; i < 4; ++i) dags.push_back(ForkJoinDag(50, 2 + i, 163 + i));
  dags.push_back(SampleSameSizeDags(1, 50, 3, rng)[0]);
  const auto ptrs = Pointers(dags);
  std::vector<graph::Dag> small;
  for (int i = 0; i < 3; ++i) small.push_back(ForkJoinDag(20, 3, 173 + i));
  const auto small_ptrs = Pointers(small);

  rl::DecodeWorkspace ws;
  const auto cold = agent.DecodeGreedyBatch(
      std::span<const graph::Dag* const>(ptrs), ws);  // warms every buffer
  ASSERT_EQ(cold.size(), 5u);

  const std::uint64_t before = g_alloc_count.load();
  const auto& warm =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state batch decode allocated " << (after - before)
      << " times";
  for (int g = 0; g < 5; ++g) EXPECT_EQ(warm[g], cold[g]);

  const std::uint64_t before2 = g_alloc_count.load();
  (void)agent.DecodeGreedy(dags[0], ws);
  (void)agent.DecodeGreedyBatch(
      std::span<const graph::Dag* const>(small_ptrs), ws);
  (void)agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  (void)agent.DecodeGreedy(dags[4], ws);
  const std::uint64_t after2 = g_alloc_count.load();
  EXPECT_EQ(after2 - before2, 0u)
      << "interleaved decodes allocated " << (after2 - before2) << " times";
}

TEST(BatchScheduleTest, ScheduleRawBatchMatchesSequential) {
  const rl::RlScheduler scheduler(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(171);
  const auto dags = SampleSameSizeDags(5, 35, 4, rng);
  const auto ptrs = Pointers(dags);
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;

  rl::DecodeWorkspace ws;
  const auto batched = scheduler.ScheduleRawBatch(
      std::span<const graph::Dag* const>(ptrs), constraints, ws);
  ASSERT_EQ(batched.size(), 5u);
  for (int g = 0; g < 5; ++g) {
    const auto single = scheduler.ScheduleRaw(dags[g], constraints);
    EXPECT_EQ(batched[g].sequence, single.sequence) << "g=" << g;
    EXPECT_EQ(batched[g].schedule.stage, single.schedule.stage) << "g=" << g;
  }
}

TEST(BatchCompileTest, CompileGroupChunksBySizeAndMatchesSequential) {
  CompilerOptions options;
  options.net.hidden_dim = 16;
  const PipelineCompiler compiler(options);

  // Mixed node counts: 4x40, 3x25, 1x33 (straggler) interleaved.
  std::mt19937_64 rng(181);
  std::vector<graph::Dag> dags;
  for (const int nodes : {40, 25, 40, 33, 25, 40, 25, 40}) {
    dags.push_back(graph::SampleTrainingDag(nodes, rng));
  }
  const auto ptrs = Pointers(dags);

  engines::SolveStats stats;
  const auto batched = compiler.CompileGroup(
      std::span<const graph::Dag* const>(ptrs), 4, "RESPECT",
      tpu::DefaultProfile(), /*cancel=*/{}, &stats);
  ASSERT_EQ(batched.size(), dags.size());
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const auto single = compiler.Compile(dags[i], 4, "RESPECT");
    EXPECT_EQ(batched[i].schedule.stage, single.schedule.stage) << "i=" << i;
  }
  // 4x40 and 3x25 batch-solve; the lone 33-node graph is a straggler.
  EXPECT_EQ(stats.batch_solved, 7u);
  EXPECT_EQ(stats.single_solved, 1u);
  EXPECT_EQ(stats.batch_groups, 2u);
  EXPECT_NEAR(stats.BatchUtilization(), 7.0 / 8.0, 1e-12);
}

TEST(BatchCompileTest, CompileGroupRunsInlineAndMatchesSequential) {
  CompilerOptions options;
  options.net.hidden_dim = 16;
  const PipelineCompiler compiler(options);
  std::mt19937_64 rng(191);
  const auto dags = SampleSameSizeDags(4, 30, 3, rng);
  const auto ptrs = Pointers(dags);

  engines::SolveStats stats;
  const auto grouped = compiler.CompileGroup(
      std::span<const graph::Dag* const>(ptrs), 4, "respect",
      tpu::DefaultProfile(), /*cancel=*/{}, &stats);
  ASSERT_EQ(grouped.size(), 4u);
  for (int g = 0; g < 4; ++g) {
    const auto single = compiler.Compile(dags[g], 4, "RESPECT");
    EXPECT_EQ(grouped[g].schedule.stage, single.schedule.stage);
  }
  EXPECT_EQ(stats.batch_solved, 4u);
  EXPECT_EQ(stats.single_solved, 0u);
  EXPECT_EQ(stats.batch_groups, 1u);
}

TEST(BatchCompileTest, NonBatchEnginesFallBackToSingleSolves) {
  const PipelineCompiler compiler;
  std::mt19937_64 rng(201);
  const auto dags = SampleSameSizeDags(3, 15, 3, rng);
  const auto ptrs = Pointers(dags);

  engines::SolveStats stats;
  const auto results = compiler.CompileGroup(
      std::span<const graph::Dag* const>(ptrs), 4, "ListScheduling",
      tpu::DefaultProfile(), /*cancel=*/{}, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(stats.batch_solved, 0u);
  EXPECT_EQ(stats.single_solved, 3u);
  EXPECT_EQ(stats.batch_groups, 0u);
}

}  // namespace
}  // namespace respect
