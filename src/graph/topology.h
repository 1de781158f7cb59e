// Topological analyses of computational graphs.
//
// TopoInfo serves three readers: the paper's embedding (Fig. 1a step 2) is
// built from As-Soon-As-Possible (ASAP) topological levels; Table I reports
// the "Depth" of each evaluated model, which is the number of ASAP levels;
// and the deterministic Kahn order is the node sequence the pointer-network
// decode, the exact and compiler schedulers and the packager walk.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.h"

namespace respect::graph {

/// Result of a full topological analysis of a Dag.
struct TopoInfo {
  /// A deterministic topological order (Kahn's algorithm with a
  /// smallest-id-first tie break, so the order is reproducible).
  std::vector<NodeId> order;

  /// ASAP level of each node: sources are level 0, every other node is
  /// 1 + max(parent levels).  This is the paper's "absolute coordinate".
  std::vector<int> asap_level;

  /// Number of distinct ASAP levels == longest path length in nodes.
  /// Matches the "Depth" column of Table I.
  int depth = 0;
};

/// Runs Kahn's algorithm plus level computations.  Throws std::logic_error
/// (via Dag::Validate) if the graph is cyclic or empty.
[[nodiscard]] TopoInfo AnalyzeTopology(const Dag& dag);

/// Reusable scratch for AnalyzeTopologyInto: the in-degree array and the
/// ready min-heap Kahn's algorithm works on.
struct TopoScratch {
  std::vector<int> indeg;
  std::vector<NodeId> heap;
};

/// Allocation-free re-analysis for hot loops: identical results to
/// AnalyzeTopology, but every vector in `scratch` and `info` is reused, so
/// repeat calls on graphs of steady-state size perform no heap allocation.
/// Detects cyclic or empty graphs itself (throws std::logic_error) instead
/// of paying for Dag::Validate.
void AnalyzeTopologyInto(const Dag& dag, TopoScratch& scratch, TopoInfo& info);

/// Position of each node inside `order` (inverse permutation).
[[nodiscard]] std::vector<int> OrderPositions(const std::vector<NodeId>& order,
                                              int node_count);

/// True iff `order` is a valid topological order of `dag` covering every
/// node exactly once.
[[nodiscard]] bool IsTopologicalOrder(const Dag& dag,
                                      const std::vector<NodeId>& order);

/// Length (in nodes) of the longest path through the graph weighted by MACs;
/// used by list scheduling as the critical-path priority.
[[nodiscard]] std::vector<std::int64_t> CriticalPathMacs(const Dag& dag);

}  // namespace respect::graph
