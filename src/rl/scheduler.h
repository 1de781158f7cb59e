// RESPECT's RL scheduler — the deployable front end over the PtrNet agent.
//
// Schedule() runs one greedy decode (polynomial-time inference — the paper's
// headline speedup over exact/compiler baselines), packs the sequence with
// ρ, and applies the post-inference repairs so the result always satisfies
// the deployment constraints.
#pragma once

#include <string>
#include <vector>

#include "graph/dag.h"
#include "rl/ptrnet.h"
#include "sched/schedule.h"

namespace respect::rl {

class RlScheduler {
 public:
  explicit RlScheduler(const PtrNetConfig& config = {}) : agent_(config) {}

  /// Loads trained weights (see rl::Train / examples/train_scheduler).
  void LoadWeights(const std::string& path) { agent_.Load(path); }
  void SaveWeights(const std::string& path) const { agent_.Save(path); }

  [[nodiscard]] PtrNetAgent& Agent() { return agent_; }
  [[nodiscard]] const PtrNetAgent& Agent() const { return agent_; }

  struct Result {
    sched::Schedule schedule;
    std::vector<graph::NodeId> sequence;  // raw π before packing

    /// Schedule(): wall-clock of the full standalone inference (decode + ρ
    /// packing + post-inference repair).  ScheduleRaw(): decode + packing
    /// only — the quantity the engine adapter reports as solve_seconds
    /// (repair runs exactly once, in the façade, untimed — consistent with
    /// every other engine).
    double solve_seconds = 0.0;
  };

  /// End-to-end RESPECT inference: decode, pack, repair.  Const and free of
  /// shared mutable state, so one trained scheduler serves concurrent
  /// callers (the batch compilation path relies on this).  Repair runs
  /// exactly once (here); callers must not PostProcess the result again.
  [[nodiscard]] Result Schedule(const graph::Dag& dag,
                                const sched::PipelineConstraints& constraints) const;

  /// Same, decoding through a caller-owned workspace (zero steady-state
  /// allocations in the decode; see rl/decode_workspace.h for threading
  /// rules).
  [[nodiscard]] Result Schedule(const graph::Dag& dag,
                                const sched::PipelineConstraints& constraints,
                                DecodeWorkspace& ws) const;

  /// Repair-free entry point for callers that run the repair themselves
  /// (the engine adapter: the façade PostProcesses every engine's schedule
  /// exactly once).  Returns the packed-but-unrepaired schedule;
  /// solve_seconds covers decode + packing only.
  [[nodiscard]] Result ScheduleRaw(const graph::Dag& dag,
                                   const sched::PipelineConstraints& constraints) const;
  /// `cancel` (optional) is polled once per decode step and unwinds the
  /// solve with core::CancelledError when it fires.
  [[nodiscard]] Result ScheduleRaw(const graph::Dag& dag,
                                   const sched::PipelineConstraints& constraints,
                                   DecodeWorkspace& ws,
                                   const core::CancelToken& cancel = {}) const;

  /// Batched ScheduleRaw over same-node-count graphs: one lock-stepped
  /// greedy decode (PtrNetAgent::DecodeGreedyBatch) followed by per-graph
  /// ρ packing.  Results are index-aligned with `dags` and bit-identical to
  /// per-graph ScheduleRaw calls.  Each result's
  /// solve_seconds is the batch total amortized over the batch (decode
  /// work is shared, so per-graph attribution is inherently amortized).
  /// `cancel` is polled once per lock-stepped decode step, as in
  /// ScheduleRaw; a fired token unwinds the whole batch.
  [[nodiscard]] std::vector<Result> ScheduleRawBatch(
      std::span<const graph::Dag* const> dags,
      const sched::PipelineConstraints& constraints, DecodeWorkspace& ws,
      const core::CancelToken& cancel = {}) const;

 private:
  PtrNetAgent agent_;
};

}  // namespace respect::rl
