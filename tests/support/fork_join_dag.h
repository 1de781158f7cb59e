// ForkJoinDag — a graph whose ready-set decode has choices to make.
//
// Sampled graphs (graph::SampleDag, graph::SampleTrainingDag) carry the
// backbone edge v-1 -> v, so each has exactly one topological order and a
// ready-set decode of them never runs the network.  ForkJoinDag chains
// Inception-style blocks instead: a node fans out into `width` parallel
// branches of one to three nodes each, joined by a concat node.  Any
// leftover node budget becomes a plain chain at the end, so the graph has
// exactly `nodes` nodes and can share a lock-stepped batch with a sampled
// graph of the same size.  Node attributes are drawn from `seed`.
//
// ChoiceSteps is the tests' independent oracle for "has choices": it runs
// Kahn's algorithm and counts the steps that start with two or more ready
// nodes.  RelabelNodes returns an isomorphic copy with shuffled node ids:
// sampled and fork/join graphs number their nodes in topological order, so
// their Kahn orders are all the identity, and a decode that reads another
// graph's order would go unnoticed on them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag.h"

namespace respect {

inline graph::Dag ForkJoinDag(int nodes, int width, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> bytes(1 << 10, 1 << 20);
  std::uniform_int_distribution<int> branch_length(1, 3);
  graph::Dag dag("fork-join");
  const auto add = [&](graph::OpType type) {
    graph::OpAttr attr;
    attr.name = "n" + std::to_string(dag.NodeCount());
    attr.type = type;
    attr.param_bytes = bytes(rng);
    attr.output_bytes = bytes(rng);
    attr.macs = 8 * bytes(rng);
    return dag.AddNode(std::move(attr));
  };

  graph::NodeId tail = add(graph::OpType::kInput);
  std::vector<int> lengths(width);
  for (;;) {
    int block = 1;  // the join
    for (int& length : lengths) block += length = branch_length(rng);
    if (dag.NodeCount() + block > nodes) break;
    std::vector<graph::NodeId> ends;
    for (const int length : lengths) {
      graph::NodeId prev = tail;
      for (int k = 0; k < length; ++k) {
        const graph::NodeId v = add(graph::OpType::kConv2D);
        dag.AddEdge(prev, v);
        prev = v;
      }
      ends.push_back(prev);
    }
    const graph::NodeId join = add(graph::OpType::kConcat);
    for (const graph::NodeId end : ends) dag.AddEdge(end, join);
    tail = join;
  }
  while (dag.NodeCount() < nodes) {
    const graph::NodeId v = add(graph::OpType::kRelu);
    dag.AddEdge(tail, v);
    tail = v;
  }
  return dag;
}

inline graph::Dag RelabelNodes(const graph::Dag& dag, std::uint64_t seed) {
  const int n = dag.NodeCount();
  std::vector<graph::NodeId> new_id(n);
  std::iota(new_id.begin(), new_id.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(new_id.begin(), new_id.end(), rng);
  std::vector<graph::NodeId> old_id(n);
  for (graph::NodeId v = 0; v < n; ++v) old_id[new_id[v]] = v;
  graph::Dag relabeled(dag.Name());
  for (graph::NodeId u = 0; u < n; ++u) {
    (void)relabeled.AddNode(dag.Attr(old_id[u]));
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const graph::NodeId c : dag.Children(v)) {
      relabeled.AddEdge(new_id[v], new_id[c]);
    }
  }
  return relabeled;
}

inline int ChoiceSteps(const graph::Dag& dag) {
  std::vector<int> indeg(dag.NodeCount());
  std::vector<graph::NodeId> ready;
  for (graph::NodeId v = 0; v < dag.NodeCount(); ++v) {
    indeg[v] = static_cast<int>(dag.Parents(v).size());
    if (indeg[v] == 0) ready.push_back(v);
  }
  int choices = 0;
  while (!ready.empty()) {
    if (ready.size() > 1) ++choices;
    const graph::NodeId v = ready.back();
    ready.pop_back();
    for (const graph::NodeId c : dag.Children(v)) {
      if (--indeg[c] == 0) ready.push_back(c);
    }
  }
  return choices;
}

}  // namespace respect
