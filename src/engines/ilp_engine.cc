#include "engines/ilp_engine.h"

#include "exact/bnb_scheduler.h"

namespace respect::engines {

EngineResult IlpEngine::Schedule(const graph::Dag& dag,
                                 const sched::PipelineConstraints& constraints,
                                 const EngineBudget& budget) const {
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

}  // namespace respect::engines
