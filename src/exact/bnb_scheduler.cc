#include "exact/bnb_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "exact/dp_partitioner.h"
#include "graph/topology.h"

namespace respect::exact {
namespace {

using Clock = std::chrono::steady_clock;

/// Depth-first branch-and-bound state.  Nodes are assigned in a fixed
/// topological order, so every parent of the node being branched on already
/// has a stage.
class BnbSearch {
 public:
  BnbSearch(const graph::Dag& dag, const BnbConfig& config)
      : dag_(dag),
        config_(config),
        topo_(graph::AnalyzeTopology(dag)),
        n_(dag.NodeCount()),
        stages_(config.num_stages) {
    if (config_.num_stages < 1) {
      throw std::invalid_argument("SolveExact: num_stages must be >= 1");
    }
    if (n_ < config_.num_stages) {
      throw std::invalid_argument("SolveExact: |V| < num_stages");
    }

    // Seed the incumbent with the DP contiguous-partition optimum: a strong
    // upper bound that makes pruning effective immediately.
    const DpResult seed = PartitionDefaultOrder(dag_, stages_);
    best_ = seed.schedule;
    best_value_ = seed.objective;

    // Global peak lower bound: perfect balance or the heaviest single node.
    std::int64_t max_node = 0;
    for (graph::NodeId v = 0; v < n_; ++v) {
      max_node = std::max(max_node, dag_.Attr(v).param_bytes);
    }
    peak_lower_bound_ = std::max(
        max_node, (dag_.TotalParamBytes() + stages_ - 1) / stages_);

    assign_.assign(n_, -1);
    loads_.assign(stages_, 0);
    stage_count_.assign(stages_, 0);
    // cur_reach_[v]: max(stage of v, stages of v's already-assigned
    // children); drives incremental hop-weighted communication accounting.
    cur_reach_.assign(n_, 0);
  }

  BnbResult Run() {
    const auto start = Clock::now();
    start_ = start;
    Dfs(0, /*peak=*/0, /*comm=*/0);
    BnbResult result;
    result.schedule = best_;
    result.objective = best_value_;
    // Optimal when the search completed, or when the incumbent already
    // meets the global peak lower bound (peak-optimal; communication is
    // then best-effort within budget).
    result.proved_optimal =
        !budget_hit_ || best_value_.peak_param_bytes <= peak_lower_bound_;
    result.expansions = expansions_;
    result.solve_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return result;
  }

 private:
  bool BudgetExceeded() {
    if (budget_hit_) return true;
    if (config_.max_expansions > 0 && expansions_ >= config_.max_expansions) {
      budget_hit_ = true;
      return true;
    }
    if ((expansions_ & 0xFFF) == 0) {
      config_.cancel.ThrowIfCancelled("b&b expansion");
    }
    if (config_.time_limit_seconds > 0 && (expansions_ & 0xFFF) == 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start_).count();
      if (elapsed >= config_.time_limit_seconds) {
        budget_hit_ = true;
        return true;
      }
    }
    return false;
  }

  void Dfs(int idx, std::int64_t peak, std::int64_t comm) {
    if (BudgetExceeded()) return;
    ++expansions_;

    if (idx == n_) {
      for (int k = 0; k < stages_; ++k) {
        if (stage_count_[k] == 0) return;  // infeasible leaf
      }
      const sched::ObjectiveValue value{peak, comm};
      if (value < best_value_) {
        best_value_ = value;
        best_.num_stages = stages_;
        best_.stage = assign_;
      }
      return;
    }

    const graph::NodeId v = topo_.order[idx];
    int lo = 0;
    for (const graph::NodeId p : dag_.Parents(v)) {
      lo = std::max(lo, assign_[p]);
    }

    // Non-empty pruning: every still-empty stage needs one of the remaining
    // nodes; nodes can fill any stage >= lo, but stages < lo can only be
    // filled by other remaining nodes.  Cheap conservative check: remaining
    // node count must cover the number of empty stages.
    int empty = 0;
    for (int k = 0; k < stages_; ++k) {
      if (stage_count_[k] == 0) ++empty;
    }
    if (n_ - idx < empty) return;

    const std::int64_t mass = dag_.Attr(v).param_bytes;

    // Candidate stages ordered by optimistic resulting objective so good
    // incumbents are found early.
    struct Cand {
      int stage;
      sched::ObjectiveValue opt;
    };
    std::vector<Cand> cands;
    cands.reserve(stages_ - lo);
    for (int k = lo; k < stages_; ++k) {
      const std::int64_t new_peak = std::max(peak, loads_[k] + mass);
      std::int64_t comm_inc = 0;
      for (const graph::NodeId p : dag_.Parents(v)) {
        if (k > cur_reach_[p]) {
          comm_inc += dag_.Attr(p).output_bytes * (k - cur_reach_[p]);
        }
      }
      // The final peak cannot end below the global balance bound.
      const std::int64_t lb_peak = std::max(new_peak, peak_lower_bound_);
      const sched::ObjectiveValue lb{lb_peak, comm + comm_inc};
      if (lb < best_value_) {
        cands.push_back(Cand{k, lb});
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.opt < b.opt; });

    for (const Cand& cand : cands) {
      const int k = cand.stage;
      const std::int64_t new_peak = std::max(peak, loads_[k] + mass);
      // Recompute the bound against the (possibly improved) incumbent.
      if (!(sched::ObjectiveValue{new_peak, comm} < best_value_)) continue;

      std::int64_t comm_inc = 0;
      std::vector<std::pair<graph::NodeId, int>> saved_reach;
      for (const graph::NodeId p : dag_.Parents(v)) {
        if (k > cur_reach_[p]) {
          comm_inc += dag_.Attr(p).output_bytes * (k - cur_reach_[p]);
          saved_reach.emplace_back(p, cur_reach_[p]);
          cur_reach_[p] = k;
        }
      }
      if (!(sched::ObjectiveValue{new_peak, comm + comm_inc} < best_value_)) {
        for (const auto& [p, r] : saved_reach) cur_reach_[p] = r;
        continue;
      }

      assign_[v] = k;
      cur_reach_[v] = k;
      loads_[k] += mass;
      ++stage_count_[k];

      Dfs(idx + 1, new_peak, comm + comm_inc);

      --stage_count_[k];
      loads_[k] -= mass;
      assign_[v] = -1;
      for (const auto& [p, r] : saved_reach) cur_reach_[p] = r;
      if (budget_hit_) return;
    }
  }

  const graph::Dag& dag_;
  const BnbConfig config_;
  const graph::TopoInfo topo_;
  const int n_;
  const int stages_;

  sched::Schedule best_;
  sched::ObjectiveValue best_value_;

  std::int64_t peak_lower_bound_ = 0;
  std::vector<int> assign_;
  std::vector<std::int64_t> loads_;
  std::vector<int> stage_count_;
  std::vector<int> cur_reach_;

  std::int64_t expansions_ = 0;
  bool budget_hit_ = false;
  Clock::time_point start_;
};

}  // namespace

BnbResult SolveExact(const graph::Dag& dag, const BnbConfig& config) {
  dag.Validate();
  BnbSearch search(dag, config);
  return search.Run();
}

}  // namespace respect::exact
