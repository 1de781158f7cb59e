// SchedulerEngine adapter for the paper's RL scheduler (rl/scheduler.h).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "engines/engine.h"
#include "rl/scheduler.h"

namespace respect::engines {

/// Wraps a shared immutable RlScheduler snapshot; decoding is const on the
/// agent, so one snapshot serves any number of concurrent Schedule() calls.
class RlEngine : public SchedulerEngine {
 public:
  /// A null `rl` builds a fresh default-configured (untrained) agent.
  explicit RlEngine(std::shared_ptr<const rl::RlScheduler> rl);

  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;

  [[nodiscard]] bool SupportsBatch() const override { return true; }

  /// Splits `dags` with ChunkBySize and decodes every chunk of >= 2 as one
  /// lock-stepped group and every singleton through Schedule() (B = 1).
  /// Results are bit-identical to per-graph Schedule() calls; `stats`
  /// reports the batch/single split.
  [[nodiscard]] std::vector<EngineResult> ScheduleBatch(
      std::span<const graph::Dag* const> dags,
      const sched::PipelineConstraints& constraints,
      const EngineBudget& budget, SolveStats* stats = nullptr) const override;

 private:
  std::shared_ptr<const rl::RlScheduler> rl_;
};

/// The one size-chunker behind every batched solve (RlEngine::ScheduleBatch
/// and PipelineCompiler::CompileBatch): groups the indices of `dags` by
/// node count (lock-stepped decodes need equal lengths), in ascending node
/// count so chunk boundaries are deterministic for a given input order, and
/// splits each group of >= 2 into balanced chunks of at most
/// rl::kMaxDecodeBatch — sizes differ by at most one and every chunk keeps
/// >= 2 graphs.  A node count seen once is a singleton chunk.
[[nodiscard]] std::vector<std::vector<std::size_t>> ChunkBySize(
    std::span<const graph::Dag* const> dags);

}  // namespace respect::engines
