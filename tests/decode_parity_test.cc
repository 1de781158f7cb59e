// Guards for the fused zero-allocation inference decode (one entry point,
// DecodeGreedyBatch, with DecodeGreedy as its one-graph case):
//  * DecodeGreedy produces bit-identical sequences to the frozen
//    pre-optimization reference implementation
//    (tests/support/reference_decode.h) across sampled graph complexities
//    (deg 2-6) and both MaskingModes;
//  * both branches of the decode-step kernels — the k-major panel GEMVs at
//    B = 1 and the row-pair GEMM at B >= 2 — match the allocating Step /
//    PointerLogits value for value, at hidden sizes that are not multiples
//    of four (the Axpy k-tail) and with exact ±0 weights planted in every
//    panel-swept matrix; whole decodes keep reference parity with those
//    zeros at B = 1 and B = 3;
//  * the sampled graphs above each have one topological order, so under
//    the deployed ready-set mask their decode makes no choice; zoo models
//    (ResNet50, Xception, InceptionV3) and a fork/join graph, which do
//    have choices, keep reference parity at B = 1 and B = 3, under both
//    masks, with and without planted zeros, and with attention weights
//    scaled so that some choices depend on the decoder state; a one-order
//    graph decodes to its Kahn order without running the network;
//  * a steady-state decode on a warm DecodeWorkspace performs ZERO heap
//    allocations (counted via a replaced global operator new), on
//    one-order graphs and on graphs with choices;
//  * repair runs exactly once on both the standalone-scheduler path and the
//    engine/façade path, and both paths agree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/respect.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "models/zoo.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "rl/decode_workspace.h"
#include "rl/ptrnet.h"
#include "rl/scheduler.h"
#include "sched/postprocess.h"
#include "tests/support/fork_join_dag.h"
#include "tests/support/reference_decode.h"

// ---- Global allocation counter.  Every operator new in this binary funnels
// through malloc with a counter bump, so the zero-allocation guard below can
// measure exactly what one decode call allocates. ----

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

TEST(DecodeParityTest, GreedyMatchesReferenceAcrossComplexities) {
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    const rl::PtrNetAgent agent(NetConfig(masking));
    rl::DecodeWorkspace ws;
    std::mt19937_64 rng(17);
    for (int deg = 2; deg <= 6; ++deg) {
      graph::SamplerConfig sampler;
      sampler.max_in_degree = deg;
      for (const int nodes : {12, 30, 60}) {
        sampler.num_nodes = nodes;
        const graph::Dag dag = graph::SampleDag(sampler, rng);
        const auto expected = rl::ReferenceDecodeGreedy(agent, dag);
        EXPECT_EQ(agent.DecodeGreedy(dag), expected)
            << "deg=" << deg << " nodes=" << nodes;
        // The workspace overload must agree too, including when the
        // workspace is warm from a previous (different-sized) graph.
        EXPECT_EQ(agent.DecodeGreedy(dag, ws), expected)
            << "workspace deg=" << deg << " nodes=" << nodes;
      }
    }
  }
}

TEST(DecodeParityTest, OddHiddenSizesMatchReference) {
  // 23 and 66 leave a k-tail of 3 and 2 after the four-row panel sweeps.
  for (const int hidden : {23, 66}) {
    rl::PtrNetConfig config = NetConfig(rl::MaskingMode::kReadySet);
    config.hidden_dim = hidden;
    const rl::PtrNetAgent agent(config);
    rl::DecodeWorkspace ws;
    std::mt19937_64 graph_rng(61);
    for (const int deg : {2, 5}) {
      graph::SamplerConfig sampler;
      sampler.max_in_degree = deg;
      sampler.num_nodes = 40;
      const graph::Dag dag = graph::SampleDag(sampler, graph_rng);
      const auto expected = rl::ReferenceDecodeGreedy(agent, dag);
      EXPECT_EQ(agent.DecodeGreedy(dag), expected) << "d=" << hidden;
      EXPECT_EQ(agent.DecodeGreedy(dag, ws), expected) << "d=" << hidden;
    }
  }
}

/// Zeroes roughly one entry in six of `w` (alternating +0 and -0) plus
/// three whole columns — the first, a middle one and the last, which the
/// k-tail sweeps when the column count is not a multiple of four.
void PlantZeros(nn::Tensor& w, std::mt19937_64& rng) {
  std::bernoulli_distribution pick(1.0 / 6.0);
  bool negative = false;
  for (int i = 0; i < w.Rows(); ++i) {
    for (int k = 0; k < w.Cols(); ++k) {
      if (pick(rng)) {
        w.At(i, k) = negative ? -0.0f : 0.0f;
        negative = !negative;
      }
    }
  }
  for (const int k : {0, w.Cols() / 2, w.Cols() - 1}) {
    for (int i = 0; i < w.Rows(); ++i) w.At(i, k) = 0.0f;
  }
}

/// Exact bit comparison (EXPECT_EQ on floats would equate +0 and -0).
bool SameBits(const float* a, const float* b, int n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<std::size_t>(n)) == 0;
}

/// Exact bit comparison of column `g` of the packed (rows, B) `packed`
/// against the (rows, 1) `column`.
bool SameColumnBits(const nn::Tensor& column, const nn::Tensor& packed,
                    int g) {
  for (int k = 0; k < column.Rows(); ++k) {
    if (!SameBits(column.Data() + k,
                  packed.Data() + std::int64_t{k} * packed.Cols() + g, 1)) {
      return false;
    }
  }
  return true;
}

TEST(DecodeParityTest, KMajorKernelsMatchAllocatingPathBitForBit) {
  // Sequence parity is coarse (an argmax rarely flips), so both branches of
  // the decode-step kernels — the k-major panel GEMVs at B = 1 and the
  // row-pair GEMM at B = 3 — are also checked value by value, column by
  // column, against the MatMul-based allocating path, with and without
  // planted zeros.
  for (const int hidden : {23, 64, 66}) {
    for (const bool zeros : {false, true}) {
      for (const int batch : {1, 3}) {
        std::mt19937_64 rng(81);
        nn::ParamStore store;
        const nn::LstmCell cell(store, "lstm", hidden, hidden, rng);
        const nn::PointerAttention attention(store, "attention", hidden, rng);
        if (zeros) {
          for (const std::string name :
               {"lstm.Wh", "attention.Wq_g", "attention.Wq_p"}) {
            PlantZeros(store.Value(name), rng);
          }
        }

        std::vector<rl::LstmState> slow(
            batch, rl::LstmState{nn::Tensor::Zeros(hidden, 1),
                                 nn::Tensor::Zeros(hidden, 1)});
        nn::LstmCell::State fast{nn::Tensor(hidden, batch),
                                 nn::Tensor(hidden, batch)};
        nn::Tensor panel, gates(4 * hidden, batch), zx(4 * hidden, batch);
        std::vector<int> zx_cols(batch);
        cell.RecurrentPanelInto(panel);
        for (int step = 0; step < 5; ++step) {
          for (int g = 0; g < batch; ++g) {
            const nn::Tensor x = nn::Tensor::Xavier(hidden, 1, rng);
            const nn::Tensor zx_g = nn::MatMul(cell.InputWeight(), x);
            for (int i = 0; i < 4 * hidden; ++i) zx.At(i, g) = zx_g.At(i, 0);
            zx_cols[g] = g;
            slow[g] = rl::LstmStep(store, "lstm", x, slow[g], hidden);
          }
          cell.StepInto(zx, zx_cols.data(), batch, panel, gates, fast);
          for (int g = 0; g < batch; ++g) {
            ASSERT_TRUE(SameColumnBits(slow[g].h, fast.h, g))
                << "h d=" << hidden << " zeros=" << zeros << " B=" << batch
                << " step=" << step << " g=" << g;
            ASSERT_TRUE(SameColumnBits(slow[g].c, fast.c, g))
                << "c d=" << hidden << " zeros=" << zeros << " B=" << batch
                << " step=" << step << " g=" << g;
          }
        }

        // Graph g's contexts are columns g·nodes .. of the packed matrix,
        // with a per-graph validity pattern.
        const int nodes = 17;
        const int total = nodes * batch;
        const nn::Tensor packed = nn::Tensor::Xavier(hidden, total, rng);
        std::vector<std::uint8_t> valid_bytes(total);
        for (int c = 0; c < total; ++c) {
          valid_bytes[c] = (c % nodes + c / nodes) % 3 != 1 ? 1 : 0;
        }
        nn::PointerAttention::Scratch scratch;
        scratch.Reserve(hidden, nodes, batch);
        nn::Tensor logits(1, total);
        nn::PointerAttention::CachedRefs packed_refs;
        attention.PrecomputeInto(packed, packed_refs);
        attention.PointerLogitsInto(packed, packed_refs, fast.h, valid_bytes,
                                    nodes, batch, scratch, logits);
        for (int g = 0; g < batch; ++g) {
          const nn::Tensor contexts =
              nn::SliceCols(packed, g * nodes, (g + 1) * nodes);
          std::vector<bool> valid(nodes);
          for (int j = 0; j < nodes; ++j) {
            valid[j] = valid_bytes[g * nodes + j] != 0;
          }
          nn::PointerAttention::CachedRefs refs;
          attention.PrecomputeInto(contexts, refs);
          const nn::Tensor expected =
              rl::PointerLogits(store, "attention", contexts, refs.glimpse_ref,
                                refs.pointer_ref, slow[g].h, valid, hidden);
          for (int j = 0; j < nodes; ++j) {
            if (!valid[j]) continue;
            EXPECT_TRUE(SameBits(expected.Data() + j,
                                 logits.Data() + g * nodes + j, 1))
                << "logit " << j << " d=" << hidden << " zeros=" << zeros
                << " B=" << batch << " g=" << g;
          }
        }
      }
    }
  }
}

TEST(DecodeParityTest, PlantedZeroWeightsMatchReference) {
  // The reference (MatMul) skips zero weights; the k-major and batched
  // kernels add their ±0 products instead.  Both must give the same bits.
  for (const int hidden : {23, 64, 66}) {
    // Visited-only masking keeps every unpicked node in the argmax, which
    // makes the sequences far more sensitive to logit bits.
    rl::PtrNetConfig config = NetConfig(rl::MaskingMode::kVisitedOnly);
    config.hidden_dim = hidden;
    rl::PtrNetAgent agent(config);
    std::mt19937_64 plant_rng(71);
    for (const std::string name : {"encoder.Wh", "decoder.Wh",
                                   "attention.Wq_g", "attention.Wq_p"}) {
      PlantZeros(agent.Params().Value(name), plant_rng);
    }

    std::mt19937_64 graph_rng(73);
    std::vector<graph::Dag> dags;
    for (int g = 0; g < 3; ++g) {
      graph::SamplerConfig sampler;
      sampler.max_in_degree = 2 + g;
      sampler.num_nodes = 36;
      dags.push_back(graph::SampleDag(sampler, graph_rng));
    }
    std::vector<const graph::Dag*> ptrs;
    for (const graph::Dag& dag : dags) ptrs.push_back(&dag);

    rl::DecodeWorkspace ws;
    rl::DecodeWorkspace batch_ws;
    const auto& batched = agent.DecodeGreedyBatch(
        std::span<const graph::Dag* const>(ptrs), batch_ws);
    for (std::size_t g = 0; g < dags.size(); ++g) {
      const auto expected = rl::ReferenceDecodeGreedy(agent, dags[g]);
      EXPECT_EQ(agent.DecodeGreedy(dags[g]), expected)
          << "d=" << hidden << " g=" << g;
      EXPECT_EQ(agent.DecodeGreedy(dags[g], ws), expected)
          << "workspace d=" << hidden << " g=" << g;
      EXPECT_EQ(batched[g], expected) << "batch d=" << hidden << " g=" << g;
    }
  }
}

TEST(DecodeParityTest, ZooModelsWithChoicesMatchReference) {
  // The zoo models have ready-set choices: ResNet50 forces most of its
  // steps, InceptionV3 few.  Their decodes mix choice steps, forced steps
  // inside the lock-step and the forced tail after the last choice; the
  // B = 3 group lock-steps each model with a fork/join graph of its size.
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    for (const bool zeros : {false, true}) {
      rl::PtrNetAgent agent(NetConfig(masking));
      if (zeros) {
        std::mt19937_64 plant_rng(97);
        for (const std::string name : {"encoder.Wh", "decoder.Wh",
                                       "attention.Wq_g", "attention.Wq_p"}) {
          PlantZeros(agent.Params().Value(name), plant_rng);
        }
      }
      rl::DecodeWorkspace ws;
      for (const models::ModelName model :
           {models::ModelName::kResNet50, models::ModelName::kXception,
            models::ModelName::kInceptionV3}) {
        const graph::Dag dag = models::BuildModel(model);
        const graph::Dag fork = ForkJoinDag(dag.NodeCount(), 3, 7);
        ASSERT_GT(ChoiceSteps(dag), 0) << dag.Name();
        ASSERT_GT(ChoiceSteps(fork), 0) << dag.Name();
        const auto expected = rl::ReferenceDecodeGreedy(agent, dag);
        const auto fork_expected = rl::ReferenceDecodeGreedy(agent, fork);
        EXPECT_EQ(agent.DecodeGreedy(dag, ws), expected)
            << dag.Name() << " zeros=" << zeros;

        const graph::Dag* const group[] = {&dag, &fork, &dag};
        const auto& batched = agent.DecodeGreedyBatch(group, ws);
        EXPECT_EQ(batched[0], expected) << dag.Name() << " zeros=" << zeros;
        EXPECT_EQ(batched[1], fork_expected)
            << dag.Name() << " zeros=" << zeros;
        EXPECT_EQ(batched[2], expected) << dag.Name() << " zeros=" << zeros;
      }
    }
  }
}

TEST(DecodeParityTest, StateSensitiveWeightsMatchReference) {
  // With Xavier-initialised weights no ready-set choice of these graphs
  // depends on the decoder state: zeroing h before every attention changes
  // none of them, so the tests above cannot see a decoder step that was
  // skipped or fed the wrong input.  These two scalings make the attention
  // follow its query, so some choices do depend on h.  The B = 3 group
  // puts a relabelled one-order graph in front, so lane l decodes graph
  // l + 1 and the two Kahn orders differ.
  const std::vector<std::vector<std::pair<std::string, float>>> scalings = {
      {{"attention.Wref_g", 0.3f}, {"attention.Wq_g", 2.0f},
       {"attention.v_g", 30.0f}, {"attention.Wref_p", 0.05f},
       {"attention.Wq_p", 2.0f}, {"attention.v_p", 30.0f},
       {"decoder.Wh", 4.0f}},
      {{"attention.Wref_g", 0.66f}, {"attention.Wq_g", 8.7f},
       {"attention.b_g", 7.0f}, {"attention.v_g", 6.4f},
       {"attention.Wref_p", 0.56f}, {"attention.Wq_p", 6.7f},
       {"attention.b_p", 30.0f}, {"attention.v_p", 0.66f},
       {"decoder.Wx", 2.9f}, {"decoder.Wh", 15.6f}}};
  std::vector<graph::Dag> dags;
  for (const models::ModelName model :
       {models::ModelName::kResNet50, models::ModelName::kXception,
        models::ModelName::kInceptionV3}) {
    dags.push_back(models::BuildModel(model));
  }
  for (const int nodes : {20, 45}) {
    for (const int width : {2, 3, 4}) {
      dags.push_back(ForkJoinDag(nodes, width, nodes + width));
    }
  }
  std::mt19937_64 rng(89);
  for (std::size_t s = 0; s < scalings.size(); ++s) {
    for (const int hidden : {24, 64}) {
      rl::PtrNetConfig config = NetConfig(rl::MaskingMode::kReadySet);
      config.hidden_dim = hidden;
      rl::PtrNetAgent agent(config);
      for (const auto& [name, factor] : scalings[s]) {
        nn::Tensor& w = agent.Params().Value(name);
        for (int i = 0; i < w.Rows(); ++i) {
          for (int k = 0; k < w.Cols(); ++k) w.At(i, k) *= factor;
        }
      }
      rl::DecodeWorkspace ws;
      for (const graph::Dag& dag : dags) {
        graph::SamplerConfig sampler;
        sampler.num_nodes = dag.NodeCount();
        const graph::Dag one_order =
            RelabelNodes(graph::SampleDag(sampler, rng), rng());
        const auto expected = rl::ReferenceDecodeGreedy(agent, dag);
        EXPECT_EQ(agent.DecodeGreedy(dag, ws), expected)
            << "scaling=" << s << " d=" << hidden << " n=" << dag.NodeCount();
        const graph::Dag* const group[] = {&one_order, &dag, &dag};
        const auto& batched = agent.DecodeGreedyBatch(group, ws);
        EXPECT_EQ(batched[1], expected)
            << "scaling=" << s << " d=" << hidden << " n=" << dag.NodeCount();
        EXPECT_EQ(batched[2], expected)
            << "scaling=" << s << " d=" << hidden << " n=" << dag.NodeCount();
      }
    }
  }
}

TEST(DecodeParityTest, OneOrderGraphDecodesToItsKahnOrder) {
  rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  rl::DecodeWorkspace ws;
  std::mt19937_64 rng(83);
  std::vector<graph::Dag> dags;
  dags.emplace_back("single");
  (void)dags.back().AddNode(graph::OpAttr{});
  for (const int nodes : {12, 60}) {
    graph::SamplerConfig sampler;
    sampler.max_in_degree = 4;
    sampler.num_nodes = nodes;
    dags.push_back(graph::SampleDag(sampler, rng));
  }
  for (const graph::Dag& dag : dags) {
    ASSERT_EQ(ChoiceSteps(dag), 0) << "nodes=" << dag.NodeCount();
    const std::vector<graph::NodeId> order = graph::AnalyzeTopology(dag).order;
    EXPECT_EQ(agent.DecodeGreedy(dag, ws), order)
        << "nodes=" << dag.NodeCount();
    EXPECT_EQ(rl::ReferenceDecodeGreedy(agent, dag), order)
        << "nodes=" << dag.NodeCount();
  }

  // No network runs for such a graph: with NaN weights the reference
  // throws at its first (forced) step, the decode still returns the order.
  agent.Params().Value("input.W").Fill(
      std::numeric_limits<float>::quiet_NaN());
  const graph::Dag& dag = dags.back();
  EXPECT_ANY_THROW((void)rl::ReferenceDecodeGreedy(agent, dag));
  EXPECT_EQ(agent.DecodeGreedy(dag, ws), graph::AnalyzeTopology(dag).order);
}

TEST(DecodeParityTest, SteadyStateDecodeIsAllocationFree) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(31);
  const graph::Dag dag = graph::SampleTrainingDag(100, rng);

  rl::DecodeWorkspace ws;
  const auto cold = agent.DecodeGreedy(dag, ws);  // warms every buffer
  ASSERT_EQ(cold.size(), 100u);

  const std::uint64_t before = g_alloc_count.load();
  const auto& seq = agent.DecodeGreedy(dag, ws);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state decode allocated " << (after - before) << " times";
  EXPECT_EQ(seq, cold);

  // Still allocation-free after a smaller graph (buffers shrink logically
  // but keep their capacity).
  const graph::Dag small = graph::SampleTrainingDag(40, rng);
  (void)agent.DecodeGreedy(dag, ws);
  const std::uint64_t before2 = g_alloc_count.load();
  (void)agent.DecodeGreedy(small, ws);
  (void)agent.DecodeGreedy(dag, ws);
  const std::uint64_t after2 = g_alloc_count.load();
  EXPECT_EQ(after2 - before2, 0u);
}

TEST(DecodeParityTest, SteadyStateDecodeWithChoicesIsAllocationFree) {
  // The guard above decodes one-order graphs, which skip the network; this
  // one decodes graphs whose steps mix choices and forced picks.
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  const graph::Dag big = models::BuildModel(models::ModelName::kInceptionV3);
  const graph::Dag small = ForkJoinDag(60, 3, 11);
  std::mt19937_64 rng(37);
  const graph::Dag one_order = graph::SampleTrainingDag(40, rng);
  ASSERT_GT(ChoiceSteps(big), 0);
  ASSERT_GT(ChoiceSteps(small), 0);

  rl::DecodeWorkspace ws;
  const auto cold = agent.DecodeGreedy(big, ws);  // warms every buffer
  ASSERT_EQ(cold.size(), static_cast<std::size_t>(big.NodeCount()));

  const std::uint64_t before = g_alloc_count.load();
  const auto& seq = agent.DecodeGreedy(big, ws);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state decode allocated " << (after - before) << " times";
  EXPECT_EQ(seq, cold);

  const std::uint64_t before2 = g_alloc_count.load();
  (void)agent.DecodeGreedy(small, ws);
  (void)agent.DecodeGreedy(one_order, ws);
  (void)agent.DecodeGreedy(big, ws);
  const std::uint64_t after2 = g_alloc_count.load();
  EXPECT_EQ(after2 - before2, 0u);
}

TEST(DecodeParityTest, WorkspaceServesDifferentHiddenSizes) {
  // One (thread_local-style) workspace must survive agents of different
  // hidden_dim — the serving path swaps RL snapshots under live traffic.
  rl::PtrNetConfig big = NetConfig(rl::MaskingMode::kReadySet);
  big.hidden_dim = 32;
  rl::PtrNetConfig small = NetConfig(rl::MaskingMode::kReadySet);
  small.hidden_dim = 16;
  const rl::PtrNetAgent agent_big(big);
  const rl::PtrNetAgent agent_small(small);
  std::mt19937_64 rng(41);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);

  rl::DecodeWorkspace ws;
  EXPECT_EQ(agent_big.DecodeGreedy(dag, ws), agent_big.DecodeGreedy(dag));
  EXPECT_EQ(agent_small.DecodeGreedy(dag, ws), agent_small.DecodeGreedy(dag));
  EXPECT_EQ(agent_big.DecodeGreedy(dag, ws), agent_big.DecodeGreedy(dag));
}

TEST(RepairOnceTest, SchedulerAndEnginePathsAgree) {
  // Same configured weights on both paths (deterministic Xavier init).
  CompilerOptions options;
  options.net.hidden_dim = 16;
  const PipelineCompiler compiler(options);
  const rl::RlScheduler scheduler(options.net);

  std::mt19937_64 rng(53);
  for (const int stages : {2, 4}) {
    const graph::Dag dag = graph::SampleTrainingDag(30, rng);
    sched::PipelineConstraints constraints;
    constraints.num_stages = stages;

    // Standalone path: Schedule repairs internally, exactly once.
    const auto standalone = scheduler.Schedule(dag, constraints);
    EXPECT_TRUE(sched::ValidateSchedule(dag, standalone.schedule, constraints).ok);

    // ScheduleRaw + one façade-style repair must reproduce Schedule —
    // i.e. Schedule is ScheduleRaw plus exactly one PostProcess.
    auto raw = scheduler.ScheduleRaw(dag, constraints);
    sched::PostProcess(dag, constraints, raw.schedule);
    EXPECT_EQ(raw.schedule.stage, standalone.schedule.stage);

    // Engine/façade path (repairs once in the façade) agrees with the
    // standalone scheduler path.
    const auto compiled = compiler.Compile(dag, stages, "RESPECT");
    EXPECT_EQ(compiled.schedule.stage, standalone.schedule.stage);
  }
}

TEST(RepairOnceTest, RepairIsIdempotentOnRlSchedules) {
  // Double-repair was the old façade bug: even if it happens, it must not
  // change the schedule — but the structural guarantee above is that it no
  // longer happens at all.
  const rl::RlScheduler scheduler(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(59);
  const graph::Dag dag = graph::SampleTrainingDag(25, rng);
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  auto result = scheduler.Schedule(dag, constraints);
  auto repaired_again = result.schedule;
  sched::PostProcess(dag, constraints, repaired_again);
  EXPECT_EQ(repaired_again.stage, result.schedule.stage);
}

}  // namespace
}  // namespace respect
