// Exact branch-and-bound scheduler over the full space of monotone stage
// assignments.
//
// This plays the role of the paper's "exact optimal scheduling method
// conducted on constraint solving scheduling using ILP solver" (CPLEX in the
// paper).  It searches the feasible set of the paper's ILP formulation
// (following [21] / [24] as cited by the paper):
//   binaries x[v][k]  — node v runs on stage k
//   integer  z        — peak per-stage parameter bytes (objective)
//   (1) assignment     sum_k x[v][k] == 1                      for all v
//   (2) precedence     sum_k k*x[u][k] <= sum_k k*x[v][k]      for (u,v) in E
//   (3) peak memory    sum_v m_v * x[v][k] <= z                for all k
//   (4) non-empty      sum_v x[v][k] >= 1                      for all k
//   objective: minimize z
// and breaks ties on z by hop-weighted communication bytes, so the objective
// is lexicographic (peak, comm), matching the paper's memory-allocation +
// communication-cost optimization.
//
// Unlike DpPartitioner the search is NOT restricted to contiguous segments
// of one topological order: any assignment with stage(u) <= stage(v) along
// every edge is explored.  Exactness (given enough budget) is verified
// against brute-force enumeration in tests.
#pragma once

#include <cstdint>

#include "core/cancel.h"
#include "graph/dag.h"
#include "sched/schedule.h"

namespace respect::exact {

struct BnbConfig {
  int num_stages = 4;

  /// Search budget: maximum number of branch-and-bound tree nodes expanded
  /// before returning the incumbent (0 = unlimited).  The paper's CPLEX runs
  /// are similarly wall-clock bounded on large models.
  std::int64_t max_expansions = 20'000'000;

  /// Wall-clock ceiling in seconds (0 = unlimited); checked periodically.
  double time_limit_seconds = 0.0;

  /// Cooperative cancellation, polled alongside the periodic wall-clock
  /// check.  Unlike the soft budgets above it does NOT return the
  /// incumbent: the search unwinds with core::CancelledError.
  core::CancelToken cancel;
};

struct BnbResult {
  sched::Schedule schedule;
  sched::ObjectiveValue objective;

  /// True when the search ran to completion (the schedule is proved optimal
  /// on (peak, comm)), and also when a budget cut it short but the
  /// incumbent's peak already meets the global peak lower bound (peak is
  /// proved optimal; comm is best effort).  False otherwise; the schedule is
  /// then the best incumbent found, and is always feasible.
  bool proved_optimal = false;

  std::int64_t expansions = 0;
  double solve_seconds = 0.0;
};

/// Solves the instance.  Throws std::invalid_argument when num_stages < 1
/// or |V| < num_stages.
[[nodiscard]] BnbResult SolveExact(const graph::Dag& dag,
                                   const BnbConfig& config);

}  // namespace respect::exact
