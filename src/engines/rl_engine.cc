#include "engines/rl_engine.h"

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "rl/batch_decode_workspace.h"
#include "rl/decode_workspace.h"

namespace respect::engines {

RlEngine::RlEngine(std::shared_ptr<const rl::RlScheduler> rl)
    : rl_(std::move(rl)) {
  if (rl_ == nullptr) rl_ = std::make_shared<const rl::RlScheduler>();
}

EngineResult RlEngine::Schedule(const graph::Dag& dag,
                                const sched::PipelineConstraints& constraints,
                                const EngineBudget& budget) const {
  // One decode workspace per thread: CompileBatch workers and the
  // CompileService pool each reuse their own buffers across requests, so
  // concurrent serving decodes stay allocation-free without sharing state.
  thread_local rl::DecodeWorkspace workspace;

  // ScheduleRaw = decode + ρ packing only — like every engine, the raw
  // schedule is repaired exactly once by the façade's PostProcess, outside
  // the solve time (RESPECT's Fig. 3 metric stays comparable to the
  // baseline engines).
  rl::RlScheduler::Result raw =
      rl_->ScheduleRaw(dag, constraints, workspace, budget.cancel);
  EngineResult result;
  result.schedule = std::move(raw.schedule);
  result.solve_seconds = raw.solve_seconds;
  return result;
}

std::vector<EngineResult> RlEngine::ScheduleBatch(
    std::span<const graph::Dag* const> dags,
    const sched::PipelineConstraints& constraints, const EngineBudget& budget,
    SolveStats* stats) const {
  // Same per-thread reuse as Schedule(): one batch workspace per thread,
  // grown to the largest (nodes, batch) this thread has lock-stepped.
  thread_local rl::BatchDecodeWorkspace batch_workspace;

  std::vector<EngineResult> results(dags.size());

  // Group by node count — lock-stepping needs equal decode lengths.
  // std::map keeps the grouping (and thus group/chunk boundaries)
  // deterministic for a given input order.
  std::map<int, std::vector<std::size_t>> by_nodes;
  for (std::size_t i = 0; i < dags.size(); ++i) {
    by_nodes[dags[i]->NodeCount()].push_back(i);
  }

  std::vector<const graph::Dag*> chunk;
  for (const auto& [nodes, indices] : by_nodes) {
    if (indices.size() < 2) {
      // Straggler: the single-graph path (identical result, no batch
      // overhead for a batch of one).
      for (const std::size_t i : indices) {
        results[i] = Schedule(*dags[i], constraints, budget);
      }
      if (stats != nullptr) stats->single_solved += indices.size();
      continue;
    }
    // Balanced chunking under the workspace cap: ceil-divide the group so
    // chunk sizes differ by at most one and every chunk keeps >= 2 graphs.
    const std::size_t group = indices.size();
    const std::size_t num_chunks =
        (group + rl::kMaxDecodeBatch - 1) / rl::kMaxDecodeBatch;
    const std::size_t base = group / num_chunks;
    const std::size_t extra = group % num_chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t size = base + (c < extra ? 1 : 0);
      chunk.clear();
      for (std::size_t k = begin; k < begin + size; ++k) {
        chunk.push_back(dags[indices[k]]);
      }
      std::vector<rl::RlScheduler::Result> raw = rl_->ScheduleRawBatch(
          std::span<const graph::Dag* const>(chunk), constraints,
          batch_workspace, budget.cancel);
      for (std::size_t k = 0; k < size; ++k) {
        EngineResult& out = results[indices[begin + k]];
        out.schedule = std::move(raw[k].schedule);
        out.solve_seconds = raw[k].solve_seconds;
      }
      if (stats != nullptr) {
        stats->batch_solved += size;
        ++stats->batch_groups;
      }
      begin += size;
    }
  }
  return results;
}

}  // namespace respect::engines
