// Guards for the batched multi-graph decode path and the opt-in SIMD
// activation path:
//  * DecodeGreedyBatch on the scalar path is bit-identical to sequential
//    single-graph decodes (deg 2-6, both MaskingModes, mixed batch sizes
//    including B=1), and the same workspace survives different
//    (nodes, batch, hidden) shapes; a fired CancelToken unwinds the batch
//    decode and leaves its workspace reusable;
//  * the compiler-level batch path (CompileBatch size-grouping, CompileGroup)
//    returns element-wise the same schedules as sequential Compile() calls,
//    and SolveStats reports the batch/single split correctly — stragglers
//    fall back to the single-graph path;
//  * a steady-state batched decode on a warm BatchDecodeWorkspace performs
//    ZERO heap allocations (counted via a replaced global operator new);
//  * nn::simd is OFF by default, cannot be enabled unless compiled in, and
//    when enabled keeps FastTanh/FastSigmoid within tolerance of libm while
//    batch and single decodes stay mutually consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/cancel.h"
#include "core/respect.h"
#include "core/thread_pool.h"
#include "engines/engine.h"
#include "graph/sampler.h"
#include "nn/simd.h"
#include "rl/batch_decode_workspace.h"
#include "rl/decode_workspace.h"
#include "rl/ptrnet.h"
#include "rl/reference_decode.h"
#include "rl/scheduler.h"

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
    rl::BatchDecodeWorkspace batch_ws;
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
  rl::BatchDecodeWorkspace ws;
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

  rl::BatchDecodeWorkspace ws;
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
  const std::vector<const graph::Dag*> ptrs = {&a, &b};
  rl::BatchDecodeWorkspace ws;
  EXPECT_THROW(
      (void)agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs),
                                    ws),
      std::invalid_argument);
}

TEST(BatchDecodeTest, FiredTokenUnwindsTheBatchDecode) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(153);
  const auto dags = SampleSameSizeDags(3, 20, 3, rng);
  const auto ptrs = Pointers(dags);
  const core::CancelToken cancel = core::CancelToken::Manual();
  cancel.Cancel();

  rl::BatchDecodeWorkspace ws;
  EXPECT_THROW((void)agent.DecodeGreedyBatch(
                   std::span<const graph::Dag* const>(ptrs), ws, cancel),
               core::CancelledError);
  // The unwound workspace still decodes exactly like a fresh one.
  rl::BatchDecodeWorkspace fresh;
  const auto expected =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), fresh);
  const auto& reused =
      agent.DecodeGreedyBatch(std::span<const graph::Dag* const>(ptrs), ws);
  for (int g = 0; g < 3; ++g) EXPECT_EQ(reused[g], expected[g]) << "g=" << g;
}

TEST(BatchDecodeTest, SteadyStateBatchDecodeIsAllocationFree) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(161);
  const auto dags = SampleSameSizeDags(8, 50, 3, rng);
  const auto ptrs = Pointers(dags);

  rl::BatchDecodeWorkspace ws;
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
}

TEST(BatchScheduleTest, ScheduleRawBatchMatchesSequential) {
  const rl::RlScheduler scheduler(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(171);
  const auto dags = SampleSameSizeDags(5, 35, 4, rng);
  const auto ptrs = Pointers(dags);
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;

  rl::BatchDecodeWorkspace ws;
  const auto batched = scheduler.ScheduleRawBatch(
      std::span<const graph::Dag* const>(ptrs), constraints, ws);
  ASSERT_EQ(batched.size(), 5u);
  for (int g = 0; g < 5; ++g) {
    const auto single = scheduler.ScheduleRaw(dags[g], constraints);
    EXPECT_EQ(batched[g].sequence, single.sequence) << "g=" << g;
    EXPECT_EQ(batched[g].schedule.stage, single.schedule.stage) << "g=" << g;
  }
}

TEST(BatchCompileTest, CompileBatchGroupsBySizeAndMatchesSequential) {
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
  core::ThreadPool pool(3);
  const auto batched = compiler.CompileBatch(
      std::span<const graph::Dag* const>(ptrs), 4, Method::kRespectRl, pool,
      &stats);
  ASSERT_EQ(batched.size(), dags.size());
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const auto single = compiler.Compile(dags[i], 4, Method::kRespectRl);
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
    const auto single = compiler.Compile(dags[g], 4, Method::kRespectRl);
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
  core::ThreadPool pool(2);
  const auto results = compiler.CompileBatch(
      std::span<const graph::Dag* const>(ptrs), 4, Method::kHuLevel, pool,
      &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(stats.batch_solved, 0u);
  EXPECT_EQ(stats.single_solved, 3u);
  EXPECT_EQ(stats.batch_groups, 0u);
}

// ---- Opt-in SIMD activation path. ----

TEST(SimdPathTest, DisabledByDefaultAndGatedOnCompile) {
  EXPECT_FALSE(nn::simd::Enabled());
  const bool effective = nn::simd::SetEnabled(true);
  EXPECT_EQ(effective, nn::simd::Compiled());
  EXPECT_EQ(nn::simd::Enabled(), nn::simd::Compiled());
  EXPECT_FALSE(nn::simd::SetEnabled(false));
  EXPECT_FALSE(nn::simd::Enabled());
}

TEST(SimdPathTest, FastActivationsWithinTolerance) {
  // The tolerance contract backing the SIMD parity claim: the polynomial
  // activations track libm within ~1e-6 absolute over the whole range the
  // decode kernels feed them (logits are clipped to ±10, pre-activations
  // rarely exceed ±20).
  for (float x = -20.0f; x <= 20.0f; x += 0.0103f) {
    EXPECT_NEAR(nn::simd::FastTanh(x), std::tanh(x), 2e-6f) << "x=" << x;
    EXPECT_NEAR(nn::simd::FastSigmoid(x), 1.0f / (1.0f + std::exp(-x)), 2e-6f)
        << "x=" << x;
  }
  // Saturation tails.
  EXPECT_NEAR(nn::simd::FastTanh(50.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(nn::simd::FastTanh(-50.0f), -1.0f, 1e-6f);
}

TEST(SimdPathTest, SimdDecodeParityWithReference) {
  if (!nn::simd::Compiled()) {
    GTEST_SKIP() << "RESPECT_SIMD not compiled in";
  }
  // With the fast path enabled, batch and single decodes must stay
  // mutually bit-identical (they share the same kernels and accumulation
  // order), every decoded sequence must still be a valid permutation, and
  // on these graphs the ~1e-6 activation error must not flip any greedy
  // decision vs the frozen reference decode.
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(211);
  const auto dags = SampleSameSizeDags(6, 30, 4, rng);
  const auto ptrs = Pointers(dags);

  ASSERT_TRUE(nn::simd::SetEnabled(true));
  rl::BatchDecodeWorkspace batch_ws;
  rl::DecodeWorkspace single_ws;
  const auto batched = agent.DecodeGreedyBatch(
      std::span<const graph::Dag* const>(ptrs), batch_ws);
  int agree = 0;
  for (int g = 0; g < 6; ++g) {
    const auto single = agent.DecodeGreedy(dags[g], single_ws);
    EXPECT_EQ(batched[g], single) << "batch/single SIMD divergence, g=" << g;
    auto sorted = batched[g];
    std::sort(sorted.begin(), sorted.end());
    for (int v = 0; v < 30; ++v) EXPECT_EQ(sorted[v], v);
    if (batched[g] == rl::ReferenceDecodeGreedy(agent, dags[g])) ++agree;
  }
  nn::simd::SetEnabled(false);
  // Tolerance contract vs the reference: identical decisions except where
  // numerically marginal.  On this fixed seed no decision is marginal.
  EXPECT_EQ(agree, 6);
}

}  // namespace
}  // namespace respect
