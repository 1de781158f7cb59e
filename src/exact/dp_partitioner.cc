#include "exact/dp_partitioner.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/topology.h"
#include "sched/rho.h"

namespace respect::exact {

DpResult PartitionTopoOrder(const graph::Dag& dag,
                            const std::vector<graph::NodeId>& order,
                            int num_stages) {
  const int n = dag.NodeCount();
  if (n < num_stages) {
    throw std::invalid_argument("PartitionTopoOrder: |V| < num_stages");
  }
  if (!graph::IsTopologicalOrder(dag, order)) {
    throw std::invalid_argument(
        "PartitionTopoOrder: order is not topological for this graph");
  }

  std::vector<std::int64_t> weights(n);
  for (int i = 0; i < n; ++i) weights[i] = dag.Attr(order[i]).param_bytes;

  const std::int64_t bottleneck =
      sched::MinBottleneckBound(weights, num_stages);

  // cross[p] = bytes crossing a cut placed between positions p-1 and p:
  // every producer at position < p whose last consumer sits at >= p.
  // Built with a difference array in O(V + E).
  const std::vector<int> pos = graph::OrderPositions(order, n);
  std::vector<std::int64_t> diff(n + 1, 0);
  for (graph::NodeId u = 0; u < n; ++u) {
    int last = pos[u];
    for (const graph::NodeId c : dag.Children(u)) {
      last = std::max(last, pos[c]);
    }
    if (last > pos[u]) {
      // crosses boundaries pos[u]+1 .. last
      diff[pos[u] + 1] += dag.Attr(u).output_bytes;
      diff[last + 1] -= dag.Attr(u).output_bytes;
    }
  }
  std::vector<std::int64_t> cross(n + 1, 0);
  std::int64_t acc = 0;
  for (int p = 0; p <= n; ++p) {
    acc += diff[p];
    cross[p] = acc;
  }

  std::vector<std::int64_t> prefix(n + 1, 0);
  for (int i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + weights[i];

  // dp[k][i]: min total crossing bytes to cut the first i nodes into k
  // non-empty segments each weighing <= bottleneck.  parent[k][i] records
  // the previous cut.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::vector<std::int64_t>> dp(
      num_stages + 1, std::vector<std::int64_t>(n + 1, kInf));
  std::vector<std::vector<int>> parent(num_stages + 1,
                                       std::vector<int>(n + 1, -1));
  dp[0][0] = 0;
  for (int k = 1; k <= num_stages; ++k) {
    for (int i = k; i <= n; ++i) {
      for (int j = k - 1; j < i; ++j) {
        if (dp[k - 1][j] >= kInf) continue;
        if (prefix[i] - prefix[j] > bottleneck) continue;
        // The cut before this segment sits at position j (no cost when j==0:
        // that is the pipeline input, not an inter-stage boundary).
        const std::int64_t cost = dp[k - 1][j] + (j > 0 ? cross[j] : 0);
        if (cost < dp[k][i]) {
          dp[k][i] = cost;
          parent[k][i] = j;
        }
      }
    }
  }
  if (dp[num_stages][n] >= kInf) {
    throw std::logic_error(
        "PartitionTopoOrder: no feasible partition at optimal bottleneck "
        "(internal inconsistency)");
  }

  DpResult result;
  result.schedule.num_stages = num_stages;
  result.schedule.stage.assign(n, 0);
  int i = n;
  for (int k = num_stages; k >= 1; --k) {
    const int j = parent[k][i];
    for (int p = j; p < i; ++p) {
      result.schedule.stage[order[p]] = k - 1;
    }
    i = j;
  }
  result.objective = sched::Evaluate(dag, result.schedule);
  return result;
}

DpResult PartitionDefaultOrder(const graph::Dag& dag, int num_stages) {
  const graph::TopoInfo topo = graph::AnalyzeTopology(dag);
  return PartitionTopoOrder(dag, topo.order, num_stages);
}

}  // namespace respect::exact
