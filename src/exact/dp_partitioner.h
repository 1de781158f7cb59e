// Exact min-bottleneck partitioner over a fixed topological order.
//
// Restricting schedules to contiguous segments of one topological order
// turns pipeline scheduling into the classic "partition a sequence into n
// segments minimizing the maximum segment weight" problem, which is solvable
// exactly in near-linear time (binary search on the bottleneck + greedy
// feasibility) with a quadratic DP to break ties on communication bytes.
//
// This solver is exact *for the given order*; the full search space over all
// monotone stage assignments is handled by BnbScheduler (bnb_scheduler.h),
// which uses this result as its incumbent seed.
#pragma once

#include <vector>

#include "graph/dag.h"
#include "sched/schedule.h"

namespace respect::exact {

struct DpResult {
  sched::Schedule schedule;
  sched::ObjectiveValue objective;
};

/// Partitions `order` (must be a topological order of `dag`) into exactly
/// `num_stages` contiguous non-empty segments, minimizing the maximum
/// per-segment parameter bytes and, among those, total hop-weighted
/// communication.  Throws std::invalid_argument on a non-topological order
/// or when |V| < num_stages.
[[nodiscard]] DpResult PartitionTopoOrder(const graph::Dag& dag,
                                          const std::vector<graph::NodeId>& order,
                                          int num_stages);

/// Convenience overload using the deterministic Kahn order.
[[nodiscard]] DpResult PartitionDefaultOrder(const graph::Dag& dag,
                                             int num_stages);

}  // namespace respect::exact
