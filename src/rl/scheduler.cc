#include "rl/scheduler.h"

#include <chrono>

#include "sched/postprocess.h"
#include "sched/rho.h"

namespace respect::rl {

RlScheduler::Result RlScheduler::ScheduleRaw(
    const graph::Dag& dag,
    const sched::PipelineConstraints& constraints) const {
  DecodeWorkspace ws;
  return ScheduleRaw(dag, constraints, ws);
}

RlScheduler::Result RlScheduler::ScheduleRaw(
    const graph::Dag& dag, const sched::PipelineConstraints& constraints,
    DecodeWorkspace& ws, const core::CancelToken& cancel) const {
  const auto start = std::chrono::steady_clock::now();
  Result result;
  result.sequence = agent_.DecodeGreedy(dag, ws, cancel);
  result.schedule =
      sched::PackSequence(dag, result.sequence, constraints.num_stages);
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::vector<RlScheduler::Result> RlScheduler::ScheduleRawBatch(
    std::span<const graph::Dag* const> dags,
    const sched::PipelineConstraints& constraints, DecodeWorkspace& ws,
    const core::CancelToken& cancel) const {
  const auto start = std::chrono::steady_clock::now();
  const auto& sequences = agent_.DecodeGreedyBatch(dags, ws, cancel);
  std::vector<Result> results(dags.size());
  for (std::size_t g = 0; g < dags.size(); ++g) {
    results[g].sequence = sequences[g];
    results[g].schedule = sched::PackSequence(*dags[g], results[g].sequence,
                                              constraints.num_stages);
  }
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double amortized = total / static_cast<double>(dags.size());
  for (Result& result : results) result.solve_seconds = amortized;
  return results;
}

RlScheduler::Result RlScheduler::Schedule(
    const graph::Dag& dag,
    const sched::PipelineConstraints& constraints) const {
  DecodeWorkspace ws;
  return Schedule(dag, constraints, ws);
}

RlScheduler::Result RlScheduler::Schedule(
    const graph::Dag& dag, const sched::PipelineConstraints& constraints,
    DecodeWorkspace& ws) const {
  const auto start = std::chrono::steady_clock::now();
  Result result = ScheduleRaw(dag, constraints, ws);
  sched::PostProcess(dag, constraints, result.schedule);
  // Full standalone inference time, repair included (see Result docs).
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace respect::rl
