#include "graph/topology.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace respect::graph {

TopoInfo AnalyzeTopology(const Dag& dag) {
  dag.Validate();
  TopoScratch scratch;
  TopoInfo info;
  AnalyzeTopologyInto(dag, scratch, info);
  return info;
}

void AnalyzeTopologyInto(const Dag& dag, TopoScratch& scratch,
                         TopoInfo& info) {
  const int n = dag.NodeCount();
  if (n == 0) throw std::logic_error("AnalyzeTopology: empty graph");

  info.order.clear();
  info.order.reserve(n);
  info.asap_level.assign(n, 0);

  // Min-heap on node id gives a deterministic order (the same one
  // priority_queue<greater> pops: the unique minimum each round).
  scratch.indeg.assign(n, 0);
  scratch.heap.clear();
  scratch.heap.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    scratch.indeg[v] = static_cast<int>(dag.Parents(v).size());
    if (scratch.indeg[v] == 0) {
      scratch.heap.push_back(v);
      std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                     std::greater<>());
    }
  }
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(), std::greater<>());
    const NodeId v = scratch.heap.back();
    scratch.heap.pop_back();
    info.order.push_back(v);
    for (const NodeId c : dag.Children(v)) {
      info.asap_level[c] =
          std::max(info.asap_level[c], info.asap_level[v] + 1);
      if (--scratch.indeg[c] == 0) {
        scratch.heap.push_back(c);
        std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                       std::greater<>());
      }
    }
  }
  if (static_cast<int>(info.order.size()) != n) {
    throw std::logic_error("AnalyzeTopology: graph is cyclic");
  }

  info.depth = 0;
  for (const int lvl : info.asap_level) info.depth = std::max(info.depth, lvl);
  info.depth += 1;  // level count, not max level index
}

std::vector<int> OrderPositions(const std::vector<NodeId>& order,
                                int node_count) {
  std::vector<int> pos(node_count, -1);
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    const NodeId v = order[i];
    if (v < 0 || v >= node_count || pos[v] != -1) {
      throw std::invalid_argument("OrderPositions: order is not a permutation");
    }
    pos[v] = i;
  }
  return pos;
}

bool IsTopologicalOrder(const Dag& dag, const std::vector<NodeId>& order) {
  if (static_cast<int>(order.size()) != dag.NodeCount()) return false;
  std::vector<int> pos(dag.NodeCount(), -1);
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    const NodeId v = order[i];
    if (v < 0 || v >= dag.NodeCount() || pos[v] != -1) return false;
    pos[v] = i;
  }
  for (const Edge& e : dag.Edges()) {
    if (pos[e.from] >= pos[e.to]) return false;
  }
  return true;
}

std::vector<std::int64_t> CriticalPathMacs(const Dag& dag) {
  const TopoInfo topo = AnalyzeTopology(dag);
  const int n = dag.NodeCount();
  std::vector<std::int64_t> cp(n, 0);
  for (auto it = topo.order.rbegin(); it != topo.order.rend(); ++it) {
    const NodeId v = *it;
    std::int64_t best_child = 0;
    for (const NodeId c : dag.Children(v)) {
      best_child = std::max(best_child, cp[c]);
    }
    cp[v] = dag.Attr(v).macs + best_child;
  }
  return cp;
}

}  // namespace respect::graph
