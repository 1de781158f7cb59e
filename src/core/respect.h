// RESPECT public API — the one-stop façade a downstream user consumes.
//
//   respect::PipelineCompiler compiler(options);
//   auto result = compiler.Compile(dag, /*num_stages=*/4, "RESPECT");
//   auto sim = respect::tpu::SimulatePipeline(result.package);
//
// Three compile calls cover every shape of work: Compile (one graph),
// CompileBatch (many graphs across a caller-owned thread pool, results
// identical to the sequential path) and CompileGroup (many graphs inline on
// the calling thread).  Each names its engine by the registry entry's
// canonical name or CLI alias (engines/registry.h — the RL agent, the exact
// branch-and-bound, the Edge TPU compiler substitute, the classic
// heuristics, or anything registered at runtime) and runs one private Solve
// helper: validate, solve, repair the schedule and package it for
// deployment (quantization + segment extraction).  The compile calls are
// const and engines are stateless, so one compiler may serve many threads.
// EnsureTrainedAgent implements the train-or-load weight cache used by the
// examples and benchmarks.
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
#include "engines/registry.h"
#include "graph/dag.h"
#include "heuristics/edgetpu_compiler.h"
#include "rl/scheduler.h"
#include "rl/trainer.h"
#include "sched/schedule.h"
#include "tpu/device_profile.h"

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

  /// True for exact runs that proved optimality: the search completed, or a
  /// budget cut it short after the peak already met its lower bound (peak
  /// proved, communication best effort).
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

  /// Compiles `dag` onto `num_stages` pipeline stages with the engine
  /// `engine` names — a canonical name or a CLI alias, including engines
  /// registered at runtime.  The engine receives `profile` through
  /// sched::PipelineConstraints; for non-default profiles the repaired
  /// schedule additionally runs the deterministic device-aware rebalance
  /// (sched::RebalanceForProfile) before packaging.  `cancel`
  /// carries a cooperative cancellation token into the engine's inner loops
  /// (the serving layer's per-request solve budget): a fired token unwinds
  /// with core::CancelledError, never a partial schedule.  Throws
  /// std::invalid_argument for an unknown engine or num_stages < 1, and
  /// std::logic_error for an invalid graph.
  [[nodiscard]] CompileResult Compile(
      const graph::Dag& dag, int num_stages, std::string_view engine,
      const tpu::DeviceProfile& profile = tpu::DefaultProfile(),
      const core::CancelToken& cancel = {}) const;

  /// Compiles every graph of the batch on `pool` (serving loops reuse one
  /// pool across batches).  Engines are stateless and the RL weights are a
  /// shared immutable snapshot, so the results are element-wise identical
  /// to calling Compile() in a loop — except when a wall-clock budget cuts
  /// a solve short (ExactILP with exact_time_limit_seconds > 0): CPU
  /// contention changes how far such a solve gets, so its incumbent may
  /// differ between runs.  Expansion caps are deterministic; use those when
  /// bit-identical batches matter.  When the engine supports batched
  /// solving (RlEngine's lock-stepped decode), the graphs are split by
  /// engines::ChunkBySize and every same-size chunk of >= 2 is one task
  /// through the batch path; otherwise each graph is one task.  `stats`
  /// (optional, may be null) accumulates the batch/single split.
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

  /// The one compile body behind every entry point: validates each graph,
  /// rejects num_stages < 1, fires the engine.solve failpoint tagged with
  /// `engine_name` (the registration's canonical name), solves under
  /// the options' budget plus `cancel` (Schedule for one graph,
  /// ScheduleBatch for more), then repairs and packages each schedule.
  [[nodiscard]] std::vector<CompileResult> Solve(
      std::string_view engine_name, const engines::SchedulerEngine& engine,
      std::span<const graph::Dag* const> dags,
      const sched::PipelineConstraints& constraints,
      const core::CancelToken& cancel, engines::SolveStats* stats) const;

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
