#include "engines/builtin.h"

#include <memory>

#include "engines/edgetpu_engine.h"
#include "engines/heuristic_engines.h"
#include "engines/ilp_engine.h"
#include "engines/registry.h"
#include "engines/rl_engine.h"

namespace respect::engines {
namespace {

/// Factory for engines whose constructor takes no context.
template <typename Engine>
std::unique_ptr<SchedulerEngine> Stateless(const EngineContext&) {
  return std::make_unique<Engine>();
}

}  // namespace

void RegisterBuiltinEngines(EngineRegistry& registry) {
  registry.Register(
      {"RESPECT", "respect",
       "RL pointer-network scheduler (the paper's contribution)",
       Method::kRespectRl,
       [](const EngineContext& context) {
         return std::make_unique<RlEngine>(context.rl);
       },
       /*uses_rl=*/true});
  registry.Register({"ExactILP", "exact",
                     "exact (peak, comm) branch-and-bound (CPLEX role)",
                     Method::kExactIlp, Stateless<IlpEngine>});
  registry.Register(
      {"EdgeTPUCompiler", "compiler",
       "Edge TPU compiler substitute (profile-and-rebalance baseline)",
       Method::kEdgeTpuCompiler, [](const EngineContext& context) {
         return std::make_unique<EdgeTpuCompilerEngine>(context.compiler);
       }});
  registry.Register({"ListScheduling", "list",
                     "memory-balancing list scheduler", Method::kListScheduling,
                     Stateless<ListSchedulingEngine>});
  registry.Register({"HuLevel", "hu", "Hu's level-based scheduling",
                     Method::kHuLevel, Stateless<HuLevelEngine>});
  registry.Register({"ForceDirected", "fds", "force-directed scheduling",
                     Method::kForceDirected, Stateless<ForceDirectedEngine>});
  registry.Register({"Annealing", "anneal", "simulated annealing",
                     Method::kAnnealing, Stateless<AnnealingEngine>});
  registry.Register(
      {"GreedyBalance", "greedy",
       "balanced contiguous partition of the default topological order",
       Method::kGreedyBalance, Stateless<GreedyBalanceEngine>});
}

}  // namespace respect::engines
