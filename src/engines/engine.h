// The SchedulerEngine interface — one interchangeable scheduling backend.
// An engine has no name of its own: it is known by the EngineRegistry entry
// whose factory created it (registry.h).
//
// Every engine is stateless: Schedule() is const, takes the graph,
// the pipeline constraints and a per-call budget, and returns a schedule plus
// the engine-only solve time.  Statelessness is what makes the batch
// compilation path safe: one engine instance may serve many threads, and two
// calls with the same inputs return the same schedule.
//
// Engines receive shared read-only state (trained RL weights, compiler
// substitute tuning) through an EngineContext captured at construction.  The
// RL weights are a shared immutable snapshot (shared_ptr<const RlScheduler>),
// never copied per call and never mutated by an engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "graph/dag.h"
#include "heuristics/edgetpu_compiler.h"
#include "rl/scheduler.h"
#include "sched/schedule.h"

namespace respect::engines {

/// Per-call budget for engines that search (exact ILP / branch-and-bound).
/// Engines without a search loop ignore it.  The façade always fills both
/// fields from CompilerOptions; the defaults here are the neutral
/// "unlimited" values for direct engine callers.
struct EngineBudget {
  /// Maximum search-tree expansions (0 = unlimited).
  std::int64_t max_expansions = 0;

  /// Wall-clock ceiling in seconds (0 = unlimited).
  double time_limit_seconds = 0.0;

  /// Cooperative cancellation, polled in engine inner loops (annealing
  /// sweeps, B&B expansion, RL decode steps).  Unlike the two soft limits
  /// above — which return the best incumbent found — a fired token unwinds
  /// with core::CancelledError so a cancelled solve never yields a partial
  /// schedule.  Default-constructed (empty) tokens cost one null check.
  core::CancelToken cancel;
};

/// Read-only state shared by every engine created for one compiler.
struct EngineContext {
  /// Immutable snapshot of the trained RESPECT agent.  Null is allowed; the
  /// RL engine then builds a fresh (untrained) agent of its own.
  std::shared_ptr<const rl::RlScheduler> rl;

  /// Tuning for the Edge TPU compiler substitute (num_stages is overridden
  /// per call from the constraints).
  heuristics::EdgeTpuCompilerConfig compiler;
};

/// What an engine hands back to the serving layer.
struct EngineResult {
  sched::Schedule schedule;

  /// Engine solve time only — excludes the façade's post-processing and
  /// packaging/quantization (the Fig. 3 metric).
  double solve_seconds = 0.0;

  /// True for exact engines that proved optimality (see
  /// exact::BnbResult::proved_optimal for what a budget-cut run proves).
  bool proved_optimal = false;
};

/// How a ScheduleBatch call split its work between the batched decode path
/// and per-graph solves.  Counters are additive; the serving layer folds them
/// into per-service totals (see serve::ServiceMetrics).
struct SolveStats {
  /// Graphs solved through a lock-stepped batch decode (group size >= 2).
  std::uint64_t batch_solved = 0;

  /// Graphs solved one at a time (stragglers, singleton size groups, or an
  /// engine without batch support).
  std::uint64_t single_solved = 0;

  /// Number of lock-stepped groups the batch-solved graphs were split into.
  std::uint64_t batch_groups = 0;

  /// Fraction of graphs that went through the batch path; 0 when empty.
  [[nodiscard]] double BatchUtilization() const {
    const std::uint64_t total = batch_solved + single_solved;
    return total == 0 ? 0.0
                      : static_cast<double>(batch_solved) /
                            static_cast<double>(total);
  }
};

/// Runs `solve` and packs its schedule with the measured solve time —
/// shared by every engine whose backend does not report its own timing.
template <typename Solve>
EngineResult TimedSolve(Solve&& solve) {
  const auto start = std::chrono::steady_clock::now();
  EngineResult result;
  result.schedule = std::forward<Solve>(solve)();
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

class SchedulerEngine {
 public:
  virtual ~SchedulerEngine() = default;

  /// Schedules `dag` onto `constraints.num_stages` pipeline stages.  Must be
  /// deterministic for fixed inputs and safe to call concurrently.
  [[nodiscard]] virtual EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const = 0;

  /// True when ScheduleBatch can amortize work across same-node-count
  /// graphs (overridden by RlEngine's lock-stepped batch decode).  Callers
  /// use this to decide whether size-grouping a batch is worth it.
  [[nodiscard]] virtual bool SupportsBatch() const { return false; }

  /// Schedules every graph in `dags` under the same constraints and budget,
  /// returning results index-aligned with the input.  The default just
  /// loops over Schedule(); engines with SupportsBatch() group same-sized
  /// graphs into lock-stepped solves.  Deterministic and identical, graph
  /// for graph, to per-graph Schedule() calls.  `stats` (optional)
  /// accumulates how the work was split.
  [[nodiscard]] virtual std::vector<EngineResult> ScheduleBatch(
      std::span<const graph::Dag* const> dags,
      const sched::PipelineConstraints& constraints,
      const EngineBudget& budget, SolveStats* stats = nullptr) const {
    std::vector<EngineResult> results;
    results.reserve(dags.size());
    for (const graph::Dag* dag : dags) {
      results.push_back(Schedule(*dag, constraints, budget));
    }
    if (stats != nullptr) stats->single_solved += dags.size();
    return results;
  }
};

}  // namespace respect::engines
