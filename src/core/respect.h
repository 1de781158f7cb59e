// RESPECT public API — the one-stop façade a downstream user consumes.
//
//   respect::PipelineCompiler compiler(options);
//   auto result = compiler.Compile(dag, /*num_stages=*/4,
//                                  respect::Method::kRespectRl);
//   auto sim = respect::tpu::SimulatePipeline(result.package);
//
// Compile() resolves the chosen engine through the SchedulerEngine registry
// (engines/registry.h — the RL agent, the exact ILP route, the Edge TPU
// compiler substitute, the classic heuristics, or anything registered at
// runtime), validates/repairs the schedule, and packages it for deployment
// (quantization + segment extraction).  Compile() is const and engines are
// stateless, so one compiler may serve many threads; CompileBatch runs a
// whole batch of graphs across a thread pool with results identical to the
// sequential path.  EnsureTrainedAgent implements the train-or-load weight
// cache used by the examples and benchmarks.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.h"
#include "deploy/package.h"
#include "engines/method.h"
#include "engines/registry.h"
#include "graph/dag.h"
#include "heuristics/edgetpu_compiler.h"
#include "rl/scheduler.h"
#include "rl/trainer.h"
#include "sched/schedule.h"

namespace respect::core {
class ThreadPool;
}  // namespace respect::core

namespace respect {

struct CompilerOptions {
  /// RL agent configuration (hidden size, masking, embedding).
  rl::PtrNetConfig net;

  /// Weights file; loaded when non-empty and present.
  std::string weights_path;

  /// Exact-method budgets.
  std::int64_t exact_max_expansions = 2'000'000;
  double exact_time_limit_seconds = 10.0;

  /// Compiler-substitute knobs.
  heuristics::EdgeTpuCompilerConfig compiler;

  /// Quantize packages (uint8) as the real deployment flow does.
  bool quantize = true;
};

struct CompileResult {
  sched::Schedule schedule;
  deploy::PipelinePackage package;

  /// Engine solve time only (the Fig. 3 metric) — post-processing and
  /// packaging/quantization are excluded.
  double solve_seconds = 0.0;

  /// Peak per-stage parameter bytes of the deployed (quantized) package —
  /// the Fig. 5 metric.
  std::int64_t peak_stage_param_bytes = 0;

  /// True for exact runs that proved optimality within budget.
  bool proved_optimal = false;
};

class PipelineCompiler {
 public:
  explicit PipelineCompiler(const CompilerOptions& options = {});

  // Movable but not copyable: a copy would alias the live RL slot, letting
  // ReplaceRl / training on one copy silently change the other's weights.
  // A moved-from compiler may only be destroyed or assigned to.
  PipelineCompiler(PipelineCompiler&&) = default;
  PipelineCompiler& operator=(PipelineCompiler&&) = default;
  PipelineCompiler(const PipelineCompiler&) = delete;
  PipelineCompiler& operator=(const PipelineCompiler&) = delete;

  /// Compiles with a built-in engine addressed by enum value.
  [[nodiscard]] CompileResult Compile(const graph::Dag& dag, int num_stages,
                                      Method method) const;

  /// Compiles with any registered engine addressed by name or CLI alias —
  /// including engines registered at runtime that have no Method value.
  [[nodiscard]] CompileResult Compile(const graph::Dag& dag, int num_stages,
                                      std::string_view engine) const;

  /// Same, targeting an explicit device profile: the engine receives the
  /// profile through sched::PipelineConstraints, and for non-default
  /// profiles the repaired schedule additionally runs the deterministic
  /// device-aware rebalance (sched::RebalanceForProfile) before packaging.
  /// With tpu::DefaultProfile() this is byte-identical to the two-argument
  /// overload.
  [[nodiscard]] CompileResult Compile(const graph::Dag& dag, int num_stages,
                                      std::string_view engine,
                                      const tpu::DeviceProfile& profile) const;

  /// Same, carrying a cooperative cancellation token into the engine's
  /// inner loops (the serving layer's per-request solve budget).  A fired
  /// token unwinds with core::CancelledError — no partial schedule is ever
  /// returned.  An empty token makes this identical to the overload above.
  [[nodiscard]] CompileResult Compile(const graph::Dag& dag, int num_stages,
                                      std::string_view engine,
                                      const tpu::DeviceProfile& profile,
                                      const core::CancelToken& cancel) const;

  /// Compiles every graph of the batch across `num_threads` worker threads
  /// (values < 1 select ThreadPool::DefaultThreadCount()).  Engines are
  /// stateless and the RL weights are a shared immutable snapshot, so the
  /// results are element-wise identical to calling Compile() in a loop —
  /// except when a wall-clock budget cuts a solve short (ExactILP with
  /// exact_time_limit_seconds > 0): CPU contention changes how far such a
  /// solve gets, so its incumbent may differ between runs.  Expansion caps
  /// are deterministic; use those when bit-identical batches matter.
  /// When the chosen engine supports batched solving (RlEngine's
  /// lock-stepped decode), CompileBatch additionally groups the graphs by
  /// node count and routes every same-size group of >= 2 through the batch
  /// path, so the per-step recurrences run as GEMMs across the group;
  /// stragglers keep the per-graph path.  `stats` (optional, may be null)
  /// accumulates the batch/single split.
  [[nodiscard]] std::vector<CompileResult> CompileBatch(
      std::span<const graph::Dag* const> dags, int num_stages, Method method,
      int num_threads, engines::SolveStats* stats = nullptr) const;
  [[nodiscard]] std::vector<CompileResult> CompileBatch(
      std::span<const graph::Dag* const> dags, int num_stages,
      std::string_view engine, int num_threads,
      engines::SolveStats* stats = nullptr) const;

  /// Same, on a caller-owned pool — serving loops issuing many batches
  /// reuse one pool instead of paying thread spawn/join per call.
  [[nodiscard]] std::vector<CompileResult> CompileBatch(
      std::span<const graph::Dag* const> dags, int num_stages, Method method,
      core::ThreadPool& pool, engines::SolveStats* stats = nullptr) const;
  [[nodiscard]] std::vector<CompileResult> CompileBatch(
      std::span<const graph::Dag* const> dags, int num_stages,
      std::string_view engine, core::ThreadPool& pool,
      engines::SolveStats* stats = nullptr) const;

  /// Compiles a group of graphs INLINE on the calling thread through the
  /// engine's ScheduleBatch — same-node-count groups of >= 2 take the
  /// lock-stepped batch decode when the engine supports it.  This is the
  /// entry point for callers that already run on a worker thread (the
  /// serving layer's grouped miss handling must not nest pool submissions);
  /// every graph of the group shares `profile`, and the results are
  /// element-wise identical to per-graph Compile() calls on the scalar
  /// path.  The group is one engine solve: the engine.solve failpoint fires
  /// once, and a fired `cancel` unwinds the whole group with
  /// core::CancelledError (the RL decode polls it once per step).
  [[nodiscard]] std::vector<CompileResult> CompileGroup(
      std::span<const graph::Dag* const> dags, int num_stages,
      std::string_view engine, const tpu::DeviceProfile& profile,
      const core::CancelToken& cancel = {},
      engines::SolveStats* stats = nullptr) const;

  /// Snapshot of the current RL scheduler for training / weight loading
  /// (the train-then-serve flow of the benches and examples).  The returned
  /// shared_ptr keeps the object alive across a concurrent ReplaceRl, but
  /// mutating it while Compile/CompileBatch calls are in flight is a data
  /// race — to retrain under traffic, train a fresh scheduler and swap it
  /// in with ReplaceRl().  Const access yields a const snapshot, so
  /// const-only holders (the thread-safe serving interface) cannot mutate
  /// the weights the in-flight engines read.
  [[nodiscard]] std::shared_ptr<rl::RlScheduler> Rl();
  [[nodiscard]] std::shared_ptr<const rl::RlScheduler> Rl() const;

  /// Copy-on-write weight update: subsequent compiles snapshot `rl`;
  /// in-flight compiles keep reading the snapshot they started with.  Safe
  /// to call while Compile/CompileBatch calls are running.  Null resets to
  /// the constructor's configured state (options.net + options.weights_path).
  /// Every call bumps RlVersion().
  void ReplaceRl(std::shared_ptr<rl::RlScheduler> rl);

  /// Monotone version of the RL weight snapshot: 0 for the constructor's
  /// scheduler, +1 per ReplaceRl call.  Caching layers fold this into the
  /// key of any result computed by an RL-dependent engine
  /// (EngineRegistration::uses_rl), so stale weights can never answer a
  /// post-swap request.
  [[nodiscard]] std::uint64_t RlVersion() const;

  /// The read-only state handed to every engine this compiler creates.
  [[nodiscard]] engines::EngineContext MakeEngineContext() const;

 private:
  /// A scheduler in the constructor's configured state (options.net, with
  /// options.weights_path loaded when present).
  [[nodiscard]] std::shared_ptr<rl::RlScheduler> MakeConfiguredRl() const;

  [[nodiscard]] engines::EngineBudget MakeBudget() const;

  /// Post-solve half of a compile: repair, packaging, peak-bytes — shared
  /// by the single, batch, and group paths so every route finishes a solve
  /// identically.
  [[nodiscard]] CompileResult FinishCompile(
      engines::EngineResult engine_result, const graph::Dag& dag,
      const sched::PipelineConstraints& constraints) const;

  [[nodiscard]] CompileResult CompileWith(const engines::SchedulerEngine& engine,
                                          const graph::Dag& dag,
                                          const sched::PipelineConstraints&
                                              constraints,
                                          const core::CancelToken& cancel =
                                              {}) const;
  [[nodiscard]] std::vector<CompileResult> CompileBatchWith(
      const engines::SchedulerEngine& engine,
      std::span<const graph::Dag* const> dags, int num_stages,
      core::ThreadPool& pool, engines::SolveStats* stats) const;

  /// The current RL scheduler, behind a heap-allocated slot so the compiler
  /// stays movable: ReplaceRl swaps the inner pointer under the slot mutex
  /// while engine contexts hold their own shared_ptr snapshots.
  struct RlSlot {
    std::mutex mutex;
    std::shared_ptr<rl::RlScheduler> scheduler;
    std::uint64_t version = 0;  // bumped by every ReplaceRl
  };

  CompilerOptions options_;
  std::shared_ptr<RlSlot> rl_slot_;
};

/// Loads agent weights from `path` if the file exists; otherwise trains with
/// `train` (on synthetic graphs) and saves to `path`.  Returns true when
/// training happened.
bool EnsureTrainedAgent(rl::RlScheduler& scheduler, const std::string& path,
                        const rl::TrainConfig& train);

}  // namespace respect
