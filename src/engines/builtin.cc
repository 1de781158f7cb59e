#include "engines/builtin.h"

#include <memory>
#include <utility>

#include "engines/registry.h"
#include "engines/rl_engine.h"
#include "exact/bnb_scheduler.h"
#include "exact/dp_partitioner.h"
#include "heuristics/annealing.h"
#include "heuristics/edgetpu_compiler.h"
#include "heuristics/force_directed.h"
#include "heuristics/hu_scheduler.h"
#include "heuristics/list_scheduler.h"

namespace respect::engines {
namespace {

/// Every built-in engine without a batch path is one solve function.
using SolveFn = EngineResult (*)(const EngineContext& context,
                                 const graph::Dag& dag,
                                 const sched::PipelineConstraints& constraints,
                                 const EngineBudget& budget);

/// The one adapter putting a solve function behind SchedulerEngine.  It
/// keeps its own copy of the context, which outlives the factory call.
class FunctionEngine final : public SchedulerEngine {
 public:
  FunctionEngine(SolveFn solve, EngineContext context)
      : solve_(solve), context_(std::move(context)) {}

  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override {
    return solve_(context_, dag, constraints, budget);
  }

 private:
  SolveFn solve_;
  EngineContext context_;
};

EngineFactory Factory(SolveFn solve) {
  return [solve](const EngineContext& context) {
    return std::make_unique<FunctionEngine>(solve, context);
  };
}

/// The exact method (the paper's CPLEX role): the lexicographic
/// (peak, comm) branch-and-bound of exact/bnb_scheduler.h.
EngineResult ExactIlp(const EngineContext& /*context*/, const graph::Dag& dag,
                      const sched::PipelineConstraints& constraints,
                      const EngineBudget& budget) {
  exact::BnbConfig config;
  config.num_stages = constraints.num_stages;
  config.max_expansions = budget.max_expansions;
  config.time_limit_seconds = budget.time_limit_seconds;
  config.cancel = budget.cancel;

  exact::BnbResult r = exact::SolveExact(dag, config);
  EngineResult result;
  result.schedule = std::move(r.schedule);
  result.solve_seconds = r.solve_seconds;
  result.proved_optimal = r.proved_optimal;
  return result;
}

// The one-shot passes below run in microseconds, so a single entry check is
// the right granularity: a pre-cancelled token (already-blown budget) is
// refused without doing work, and a token firing mid-solve gains nothing.

/// The commercial-compiler baseline (heuristics/edgetpu_compiler.h).
EngineResult EdgeTpuCompiler(const EngineContext& context,
                             const graph::Dag& dag,
                             const sched::PipelineConstraints& constraints,
                             const EngineBudget& budget) {
  budget.cancel.ThrowIfCancelled("edgetpu compiler");
  heuristics::EdgeTpuCompilerConfig config = context.compiler;
  config.num_stages = constraints.num_stages;
  return TimedSolve(
      [&] { return heuristics::CompileForPipeline(dag, config).schedule; });
}

EngineResult ListScheduling(const EngineContext& /*context*/,
                            const graph::Dag& dag,
                            const sched::PipelineConstraints& constraints,
                            const EngineBudget& budget) {
  budget.cancel.ThrowIfCancelled("list scheduling");
  return TimedSolve(
      [&] { return heuristics::ListSchedule(dag, constraints.num_stages); });
}

EngineResult HuLevel(const EngineContext& /*context*/, const graph::Dag& dag,
                     const sched::PipelineConstraints& constraints,
                     const EngineBudget& budget) {
  budget.cancel.ThrowIfCancelled("hu level scheduling");
  return TimedSolve(
      [&] { return heuristics::HuLevelSchedule(dag, constraints.num_stages); });
}

EngineResult ForceDirected(const EngineContext& /*context*/,
                           const graph::Dag& dag,
                           const sched::PipelineConstraints& constraints,
                           const EngineBudget& budget) {
  budget.cancel.ThrowIfCancelled("force directed scheduling");
  return TimedSolve([&] {
    return heuristics::ForceDirectedSchedule(dag, constraints.num_stages);
  });
}

/// Polls the cancel token per sweep instead of once at entry.
EngineResult Annealing(const EngineContext& /*context*/, const graph::Dag& dag,
                       const sched::PipelineConstraints& constraints,
                       const EngineBudget& budget) {
  return TimedSolve([&] {
    heuristics::AnnealingConfig config;
    config.num_stages = constraints.num_stages;
    // Non-default profiles flip the annealer's cost to the device-aware
    // service-time bottleneck; the default keeps the paper's byte objective.
    config.profile = constraints.profile;
    config.cancel = budget.cancel;
    return heuristics::AnnealSchedule(dag, config);
  });
}

EngineResult GreedyBalance(const EngineContext& /*context*/,
                           const graph::Dag& dag,
                           const sched::PipelineConstraints& constraints,
                           const EngineBudget& budget) {
  budget.cancel.ThrowIfCancelled("greedy balance");
  return TimedSolve([&] {
    return exact::PartitionDefaultOrder(dag, constraints.num_stages).schedule;
  });
}

}  // namespace

void RegisterBuiltinEngines(EngineRegistry& registry) {
  registry.Register(
      {"RESPECT", "respect",
       "RL pointer-network scheduler (the paper's contribution)",
       [](const EngineContext& context) {
         return std::make_unique<RlEngine>(context.rl);
       },
       /*uses_rl=*/true});
  registry.Register({"ExactILP", "exact",
                     "exact (peak, comm) branch-and-bound (CPLEX role)",
                     Factory(ExactIlp)});
  registry.Register(
      {"EdgeTPUCompiler", "compiler",
       "Edge TPU compiler substitute (profile-and-rebalance baseline)",
       Factory(EdgeTpuCompiler)});
  registry.Register({"ListScheduling", "list",
                     "memory-balancing list scheduler",
                     Factory(ListScheduling)});
  registry.Register(
      {"HuLevel", "hu", "Hu's level-based scheduling", Factory(HuLevel)});
  registry.Register({"ForceDirected", "fds", "force-directed scheduling",
                     Factory(ForceDirected)});
  registry.Register(
      {"Annealing", "anneal", "simulated annealing", Factory(Annealing)});
  registry.Register(
      {"GreedyBalance", "greedy",
       "balanced contiguous partition of the default topological order",
       Factory(GreedyBalance)});
}

}  // namespace respect::engines
