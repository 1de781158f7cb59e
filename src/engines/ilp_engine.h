// SchedulerEngine adapter for the exact method (the paper's CPLEX role):
// the lexicographic (peak, comm) branch-and-bound of exact/bnb_scheduler.h.
#pragma once

#include "engines/engine.h"

namespace respect::engines {

class IlpEngine : public SchedulerEngine {
 public:
  [[nodiscard]] std::string_view Name() const override { return "ExactILP"; }

  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

}  // namespace respect::engines
