#include "core/respect.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "rl/batch_decode_workspace.h"
#include "sched/device_aware.h"
#include "sched/postprocess.h"

namespace respect {
namespace {

sched::PipelineConstraints ConstraintsFor(int num_stages,
                                          const tpu::DeviceProfile* profile) {
  sched::PipelineConstraints constraints;
  constraints.num_stages = num_stages;
  if (profile != nullptr) constraints.profile = *profile;
  return constraints;
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

CompileResult PipelineCompiler::Compile(const graph::Dag& dag, int num_stages,
                                        Method method) const {
  const auto engine =
      engines::EngineRegistry::Global().Create(method, MakeEngineContext());
  return CompileWith(*engine, dag, ConstraintsFor(num_stages, nullptr));
}

CompileResult PipelineCompiler::Compile(const graph::Dag& dag, int num_stages,
                                        std::string_view engine_name) const {
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, MakeEngineContext());
  return CompileWith(*engine, dag, ConstraintsFor(num_stages, nullptr));
}

CompileResult PipelineCompiler::Compile(
    const graph::Dag& dag, int num_stages, std::string_view engine_name,
    const tpu::DeviceProfile& profile) const {
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, MakeEngineContext());
  return CompileWith(*engine, dag, ConstraintsFor(num_stages, &profile));
}

CompileResult PipelineCompiler::Compile(
    const graph::Dag& dag, int num_stages, std::string_view engine_name,
    const tpu::DeviceProfile& profile, const core::CancelToken& cancel) const {
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, MakeEngineContext());
  return CompileWith(*engine, dag, ConstraintsFor(num_stages, &profile),
                     cancel);
}

engines::EngineBudget PipelineCompiler::MakeBudget() const {
  engines::EngineBudget budget;
  budget.max_expansions = options_.exact_max_expansions;
  budget.time_limit_seconds = options_.exact_time_limit_seconds;
  return budget;
}

CompileResult PipelineCompiler::FinishCompile(
    engines::EngineResult engine_result, const graph::Dag& dag,
    const sched::PipelineConstraints& constraints) const {
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
                             options_.quantize ? 0.25 : 1.0);

  result.package = deploy::BuildPackage(dag, result.schedule, options_.quantize);
  for (const deploy::Segment& seg : result.package.segments) {
    result.peak_stage_param_bytes =
        std::max(result.peak_stage_param_bytes, seg.param_bytes);
  }
  return result;
}

CompileResult PipelineCompiler::CompileWith(
    const engines::SchedulerEngine& engine, const graph::Dag& dag,
    const sched::PipelineConstraints& constraints,
    const core::CancelToken& cancel) const {
  dag.Validate();
  // Chaos tooling can stall or fail one engine ("engine.solve.RESPECT") or
  // every solve ("engine.solve").
  RESPECT_FAILPOINT_TAGGED("engine.solve", engine.Name());
  engines::EngineBudget budget = MakeBudget();
  budget.cancel = cancel;
  return FinishCompile(engine.Schedule(dag, constraints, budget), dag,
                       constraints);
}

std::vector<CompileResult> PipelineCompiler::CompileGroup(
    std::span<const graph::Dag* const> dags, int num_stages,
    std::string_view engine_name, const tpu::DeviceProfile& profile,
    const core::CancelToken& cancel, engines::SolveStats* stats) const {
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, MakeEngineContext());
  for (const graph::Dag* dag : dags) dag->Validate();
  RESPECT_FAILPOINT_TAGGED("engine.solve", engine->Name());
  const sched::PipelineConstraints constraints =
      ConstraintsFor(num_stages, &profile);
  engines::EngineBudget budget = MakeBudget();
  budget.cancel = cancel;
  std::vector<engines::EngineResult> engine_results =
      engine->ScheduleBatch(dags, constraints, budget, stats);
  std::vector<CompileResult> results;
  results.reserve(dags.size());
  for (std::size_t i = 0; i < dags.size(); ++i) {
    results.push_back(FinishCompile(std::move(engine_results[i]), *dags[i],
                                    constraints));
  }
  return results;
}

namespace {

/// Never spawn more per-call workers than there are graphs to compile.
int BatchThreadCount(int num_threads, std::size_t batch_size) {
  if (num_threads < 1) num_threads = core::ThreadPool::DefaultThreadCount();
  return static_cast<int>(
      std::min<std::size_t>(num_threads, std::max<std::size_t>(1, batch_size)));
}

}  // namespace

std::vector<CompileResult> PipelineCompiler::CompileBatch(
    std::span<const graph::Dag* const> dags, int num_stages, Method method,
    int num_threads, engines::SolveStats* stats) const {
  core::ThreadPool pool(BatchThreadCount(num_threads, dags.size()));
  return CompileBatch(dags, num_stages, method, pool, stats);
}

std::vector<CompileResult> PipelineCompiler::CompileBatch(
    std::span<const graph::Dag* const> dags, int num_stages,
    std::string_view engine_name, int num_threads,
    engines::SolveStats* stats) const {
  core::ThreadPool pool(BatchThreadCount(num_threads, dags.size()));
  return CompileBatch(dags, num_stages, engine_name, pool, stats);
}

std::vector<CompileResult> PipelineCompiler::CompileBatch(
    std::span<const graph::Dag* const> dags, int num_stages, Method method,
    core::ThreadPool& pool, engines::SolveStats* stats) const {
  const auto engine =
      engines::EngineRegistry::Global().Create(method, MakeEngineContext());
  return CompileBatchWith(*engine, dags, num_stages, pool, stats);
}

std::vector<CompileResult> PipelineCompiler::CompileBatch(
    std::span<const graph::Dag* const> dags, int num_stages,
    std::string_view engine_name, core::ThreadPool& pool,
    engines::SolveStats* stats) const {
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, MakeEngineContext());
  return CompileBatchWith(*engine, dags, num_stages, pool, stats);
}

std::vector<CompileResult> PipelineCompiler::CompileBatchWith(
    const engines::SchedulerEngine& engine,
    std::span<const graph::Dag* const> dags, int num_stages,
    core::ThreadPool& pool, engines::SolveStats* stats) const {
  std::vector<CompileResult> results(dags.size());
  if (!engine.SupportsBatch() || dags.size() < 2) {
    core::ParallelFor(pool, dags.size(), [&](std::size_t i) {
      results[i] = CompileWith(engine, *dags[i],
                               ConstraintsFor(num_stages, nullptr));
    });
    if (stats != nullptr) stats->single_solved += dags.size();
    return results;
  }

  // Size-group the batch so same-node-count graphs share lock-stepped
  // decodes, then fan the groups (not the graphs) across the pool: one
  // task per batch chunk of <= rl::kMaxDecodeBatch plus one per straggler,
  // so chunks of one storm still run concurrently on different workers.
  // std::map keeps chunk boundaries deterministic for a given input order.
  std::map<int, std::vector<std::size_t>> by_nodes;
  for (std::size_t i = 0; i < dags.size(); ++i) {
    by_nodes[dags[i]->NodeCount()].push_back(i);
  }
  std::vector<std::vector<std::size_t>> tasks;
  for (const auto& [nodes, indices] : by_nodes) {
    if (indices.size() < 2) {
      for (const std::size_t i : indices) tasks.push_back({i});
      continue;
    }
    // Balanced ceil-division chunking: sizes differ by at most one and
    // every chunk keeps >= 2 graphs.
    const std::size_t group = indices.size();
    const std::size_t num_chunks =
        (group + rl::kMaxDecodeBatch - 1) / rl::kMaxDecodeBatch;
    const std::size_t base = group / num_chunks;
    const std::size_t extra = group % num_chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t size = base + (c < extra ? 1 : 0);
      tasks.emplace_back(indices.begin() + begin,
                         indices.begin() + begin + size);
      begin += size;
    }
  }

  sched::PipelineConstraints constraints;
  constraints.num_stages = num_stages;
  const engines::EngineBudget budget = MakeBudget();
  std::vector<engines::SolveStats> task_stats(tasks.size());
  core::ParallelFor(pool, tasks.size(), [&](std::size_t t) {
    const std::vector<std::size_t>& indices = tasks[t];
    if (indices.size() == 1) {
      results[indices[0]] =
          CompileWith(engine, *dags[indices[0]], constraints);
      task_stats[t].single_solved = 1;
      return;
    }
    std::vector<const graph::Dag*> group;
    group.reserve(indices.size());
    for (const std::size_t i : indices) {
      dags[i]->Validate();
      group.push_back(dags[i]);
    }
    std::vector<engines::EngineResult> engine_results = engine.ScheduleBatch(
        std::span<const graph::Dag* const>(group), constraints, budget,
        &task_stats[t]);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      results[indices[k]] = FinishCompile(std::move(engine_results[k]),
                                          *dags[indices[k]], constraints);
    }
  });
  if (stats != nullptr) {
    for (const engines::SolveStats& s : task_stats) stats->Merge(s);
  }
  return results;
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
