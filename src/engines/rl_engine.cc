#include "engines/rl_engine.h"

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "rl/decode_workspace.h"

namespace respect::engines {
namespace {

/// One decode workspace per thread, shared by single decodes and groups:
/// CompileBatch workers and the CompileService pool each reuse their own
/// buffers across requests, grown to the largest (nodes, batch) the thread
/// has decoded, so concurrent serving decodes stay allocation-free without
/// sharing state.
rl::DecodeWorkspace& ThreadWorkspace() {
  thread_local rl::DecodeWorkspace workspace;
  return workspace;
}

}  // namespace

RlEngine::RlEngine(std::shared_ptr<const rl::RlScheduler> rl)
    : rl_(std::move(rl)) {
  if (rl_ == nullptr) rl_ = std::make_shared<const rl::RlScheduler>();
}

EngineResult RlEngine::Schedule(const graph::Dag& dag,
                                const sched::PipelineConstraints& constraints,
                                const EngineBudget& budget) const {
  // ScheduleRaw = decode + ρ packing only — like every engine, the raw
  // schedule is repaired exactly once by the façade's PostProcess, outside
  // the solve time (RESPECT's Fig. 3 metric stays comparable to the
  // baseline engines).
  rl::RlScheduler::Result raw =
      rl_->ScheduleRaw(dag, constraints, ThreadWorkspace(), budget.cancel);
  EngineResult result;
  result.schedule = std::move(raw.schedule);
  result.solve_seconds = raw.solve_seconds;
  return result;
}

std::vector<EngineResult> RlEngine::ScheduleBatch(
    std::span<const graph::Dag* const> dags,
    const sched::PipelineConstraints& constraints, const EngineBudget& budget,
    SolveStats* stats) const {
  std::vector<EngineResult> results(dags.size());
  std::vector<const graph::Dag*> chunk;
  for (const std::vector<std::size_t>& indices : ChunkBySize(dags)) {
    if (indices.size() == 1) {
      // Straggler: Schedule() decodes it at B = 1 (identical result).
      results[indices[0]] = Schedule(*dags[indices[0]], constraints, budget);
      if (stats != nullptr) ++stats->single_solved;
      continue;
    }
    chunk.clear();
    for (const std::size_t i : indices) chunk.push_back(dags[i]);
    std::vector<rl::RlScheduler::Result> raw = rl_->ScheduleRawBatch(
        std::span<const graph::Dag* const>(chunk), constraints,
        ThreadWorkspace(), budget.cancel);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      EngineResult& out = results[indices[k]];
      out.schedule = std::move(raw[k].schedule);
      out.solve_seconds = raw[k].solve_seconds;
    }
    if (stats != nullptr) {
      stats->batch_solved += indices.size();
      ++stats->batch_groups;
    }
  }
  return results;
}

std::vector<std::vector<std::size_t>> ChunkBySize(
    std::span<const graph::Dag* const> dags) {
  std::map<int, std::vector<std::size_t>> by_nodes;
  for (std::size_t i = 0; i < dags.size(); ++i) {
    by_nodes[dags[i]->NodeCount()].push_back(i);
  }
  std::vector<std::vector<std::size_t>> chunks;
  for (const auto& [nodes, indices] : by_nodes) {
    // Ceil-divide under the workspace cap; a singleton stays one chunk.
    const std::size_t group = indices.size();
    const std::size_t num_chunks =
        (group + rl::kMaxDecodeBatch - 1) / rl::kMaxDecodeBatch;
    const std::size_t base = group / num_chunks;
    const std::size_t extra = group % num_chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t size = base + (c < extra ? 1 : 0);
      chunks.emplace_back(indices.begin() + begin,
                          indices.begin() + begin + size);
      begin += size;
    }
  }
  return chunks;
}

}  // namespace respect::engines
