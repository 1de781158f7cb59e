#include "core/respect.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/failpoint.h"
#include "sched/device_aware.h"
#include "sched/postprocess.h"

namespace respect {
namespace {

sched::PipelineConstraints ConstraintsFor(int num_stages,
                                          const tpu::DeviceProfile& profile) {
  sched::PipelineConstraints constraints;
  constraints.num_stages = num_stages;
  constraints.profile = profile;
  return constraints;
}

/// Post-solve half of a compile: repair, packaging, peak bytes.
CompileResult FinishCompile(engines::EngineResult engine_result,
                            const graph::Dag& dag,
                            const sched::PipelineConstraints& constraints,
                            bool quantize) {
  CompileResult result;
  result.schedule = std::move(engine_result.schedule);
  result.solve_seconds = engine_result.solve_seconds;
  result.proved_optimal = engine_result.proved_optimal;

  // Every engine must hand back a deployable schedule; the repair and the
  // packaging below are deliberately outside the reported solve time.
  sched::PostProcess(dag, constraints, result.schedule);

  // Non-default device profiles get the deterministic device-aware post-pass
  // on top of whatever the engine produced, so every engine's output adapts
  // to the hardware it will run on.  A no-op for the default profile.
  sched::RebalanceForProfile(dag, constraints, result.schedule,
                             quantize ? 0.25 : 1.0);

  result.package = deploy::BuildPackage(dag, result.schedule, quantize);
  for (const deploy::Segment& seg : result.package.segments) {
    result.peak_stage_param_bytes =
        std::max(result.peak_stage_param_bytes, seg.param_bytes);
  }
  return result;
}

}  // namespace

PipelineCompiler::PipelineCompiler(const CompilerOptions& options)
    : options_(options), rl_slot_(std::make_shared<RlSlot>()) {
  rl_slot_->scheduler = MakeConfiguredRl();
}

std::shared_ptr<rl::RlScheduler> PipelineCompiler::MakeConfiguredRl() const {
  auto rl = std::make_shared<rl::RlScheduler>(options_.net);
  if (!options_.weights_path.empty() &&
      std::filesystem::exists(options_.weights_path)) {
    rl->LoadWeights(options_.weights_path);
  }
  return rl;
}

std::shared_ptr<rl::RlScheduler> PipelineCompiler::Rl() {
  const std::lock_guard<std::mutex> lock(rl_slot_->mutex);
  return rl_slot_->scheduler;
}

std::shared_ptr<const rl::RlScheduler> PipelineCompiler::Rl() const {
  const std::lock_guard<std::mutex> lock(rl_slot_->mutex);
  return rl_slot_->scheduler;
}

void PipelineCompiler::ReplaceRl(std::shared_ptr<rl::RlScheduler> rl) {
  if (rl == nullptr) rl = MakeConfiguredRl();
  const std::lock_guard<std::mutex> lock(rl_slot_->mutex);
  rl_slot_->scheduler = std::move(rl);
  ++rl_slot_->version;
}

std::uint64_t PipelineCompiler::RlVersion() const {
  const std::lock_guard<std::mutex> lock(rl_slot_->mutex);
  return rl_slot_->version;
}

engines::EngineContext PipelineCompiler::MakeEngineContext() const {
  engines::EngineContext context;
  {
    // Shared immutable snapshot (const view): engines created from this
    // context keep it alive even across a concurrent ReplaceRl.
    const std::lock_guard<std::mutex> lock(rl_slot_->mutex);
    context.rl = rl_slot_->scheduler;
  }
  context.compiler = options_.compiler;
  return context;
}

std::vector<CompileResult> PipelineCompiler::Solve(
    [[maybe_unused]] std::string_view engine_name,
    const engines::SchedulerEngine& engine,
    std::span<const graph::Dag* const> dags,
    const sched::PipelineConstraints& constraints,
    const core::CancelToken& cancel, engines::SolveStats* stats) const {
  for (const graph::Dag* dag : dags) dag->Validate();
  if (constraints.num_stages < 1) {
    throw std::invalid_argument("num_stages must be >= 1, got " +
                                std::to_string(constraints.num_stages));
  }
  // Chaos tooling can stall or fail one engine ("engine.solve.RESPECT") or
  // every solve ("engine.solve").
  RESPECT_FAILPOINT_TAGGED("engine.solve", engine_name);
  engines::EngineBudget budget;
  budget.max_expansions = options_.exact_max_expansions;
  budget.time_limit_seconds = options_.exact_time_limit_seconds;
  budget.cancel = cancel;

  std::vector<engines::EngineResult> engine_results;
  if (dags.size() == 1) {
    engine_results.push_back(engine.Schedule(*dags[0], constraints, budget));
    if (stats != nullptr) ++stats->single_solved;
  } else {
    engine_results = engine.ScheduleBatch(dags, constraints, budget, stats);
  }
  std::vector<CompileResult> results;
  results.reserve(dags.size());
  for (std::size_t i = 0; i < dags.size(); ++i) {
    results.push_back(FinishCompile(std::move(engine_results[i]), *dags[i],
                                    constraints, options_.quantize));
  }
  return results;
}

CompileResult PipelineCompiler::Compile(const graph::Dag& dag, int num_stages,
                                        std::string_view engine,
                                        const tpu::DeviceProfile& profile,
                                        const core::CancelToken& cancel) const {
  const graph::Dag* const one[] = {&dag};
  return std::move(
      CompileGroup(one, num_stages, engine, profile, cancel).front());
}

std::vector<CompileResult> PipelineCompiler::CompileGroup(
    std::span<const graph::Dag* const> dags, int num_stages,
    std::string_view engine, const tpu::DeviceProfile& profile,
    const core::CancelToken& cancel, engines::SolveStats* stats) const {
  const engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const std::string& name = registry.Resolve(engine).name;
  return Solve(name, *registry.Create(name, MakeEngineContext()), dags,
               ConstraintsFor(num_stages, profile), cancel, stats);
}

bool EnsureTrainedAgent(rl::RlScheduler& scheduler, const std::string& path,
                        const rl::TrainConfig& train) {
  if (std::filesystem::exists(path)) {
    scheduler.LoadWeights(path);
    return false;
  }
  rl::Train(scheduler.Agent(), train);
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  scheduler.SaveWeights(path);
  return true;
}

}  // namespace respect
