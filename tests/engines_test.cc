// The SchedulerEngine registry and the batch compilation path: every
// registered engine must produce valid schedules across the paper's graph
// complexity sweep (deg(V) ∈ {2..6}), CompileBatch must match the sequential
// path bit-for-bit, and the registry must behave as the single source of
// truth for names and aliases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/respect.h"
#include "core/thread_pool.h"
#include "engines/builtin.h"
#include "engines/registry.h"
#include "graph/sampler.h"
#include "sched/device_aware.h"

namespace respect {
namespace {

CompilerOptions FastOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 12;
  options.exact_max_expansions = 200'000;
  // Expansion-capped only: a live wall-clock limit would make exact solves
  // depend on CPU contention, flaking the batch==sequential assertions.
  options.exact_time_limit_seconds = 0.0;
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

/// Canonical names of the built-in engines, read off a private registry so
/// engines this binary registers at runtime stay out.
std::vector<std::string> BuiltinEngineNames() {
  engines::EngineRegistry builtins;
  engines::RegisterBuiltinEngines(builtins);
  return builtins.Names();
}

TEST(EngineRegistryTest, ServesEveryBuiltinEngine) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const std::vector<std::string> builtins = BuiltinEngineNames();
  EXPECT_EQ(builtins.size(), 8u);
  EXPECT_GE(registry.Registrations().size(), builtins.size());
  for (const std::string& name : builtins) {
    const engines::EngineRegistration* registration = registry.Find(name);
    ASSERT_NE(registration, nullptr);
    EXPECT_EQ(registration->name, name);

    // Name and alias resolve to the same entry.
    EXPECT_EQ(registry.Find(registration->alias), registration);
    EXPECT_EQ(&registry.Resolve(registration->name), registration);
    EXPECT_EQ(&registry.Resolve(registration->alias), registration);
  }
}

TEST(EngineRegistryTest, CreateInstantiatesEveryBuiltinEngine) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const engines::EngineContext context;  // null RL snapshot is allowed
  for (const std::string& name : BuiltinEngineNames()) {
    EXPECT_NE(registry.Create(name, context), nullptr) << name;
  }
}

TEST(EngineRegistryTest, UnknownLookupsFail) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  EXPECT_FALSE(registry.Contains("NoSuchEngine"));
  EXPECT_EQ(registry.Find("NoSuchEngine"), nullptr);
  EXPECT_THROW((void)registry.Create("NoSuchEngine", {}),
               std::invalid_argument);
}

TEST(EngineRegistryTest, RejectsCollidingRegistrations) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const auto dummy = [](const engines::EngineContext&)
      -> std::unique_ptr<engines::SchedulerEngine> { return nullptr; };
  // Canonical-name, alias and cross (name vs alias) collisions.
  EXPECT_THROW(registry.Register({"RESPECT", "x1", "", dummy}),
               std::invalid_argument);
  EXPECT_THROW(registry.Register({"X1", "respect", "", dummy}),
               std::invalid_argument);
  EXPECT_THROW(registry.Register({"respect", "x2", "", dummy}),
               std::invalid_argument);
  EXPECT_THROW(registry.Register({"", "x4", "", dummy}),
               std::invalid_argument);
  EXPECT_THROW(registry.Register({"X5", "x5", "", nullptr}),
               std::invalid_argument);
}

// A runtime-registered engine is served through the name-based Compile path
// like any built-in.
class EverythingStageZeroEngine : public engines::SchedulerEngine {
 public:
  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

TEST(EngineRegistryTest, RuntimeRegisteredEngineCompiles) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("StageZero")) {
    registry.Register({"StageZero", "zero", "test-only plug-in engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<EverythingStageZeroEngine>();
                       }});
  }
  PipelineCompiler compiler(FastOptions());
  std::mt19937_64 rng(11);
  const graph::Dag dag = graph::SampleTrainingDag(24, rng);
  // The façade post-processes the raw all-zeros assignment into a deployable
  // schedule, exactly as for built-in engines.
  const CompileResult result = compiler.Compile(dag, 4, "StageZero");
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  EXPECT_TRUE(ValidateSchedule(dag, result.schedule, constraints).ok);
}

TEST(EngineRegistryTest, EmptyQueryNeverMatchesAliaslessEngines) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("NoAlias")) {
    registry.Register({"NoAlias", "", "engine registered without an alias",
                       [](const engines::EngineContext&) {
                         return std::make_unique<EverythingStageZeroEngine>();
                       }});
  }
  ASSERT_NE(registry.Find("NoAlias"), nullptr);
  // An empty alias means "no alias"; an empty query must stay unknown.
  EXPECT_FALSE(registry.Contains(""));
  EXPECT_THROW((void)registry.Create("", {}), std::invalid_argument);
}

TEST(EngineRegistryTest, LookupResultsStayValidAcrossRegistrations) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const engines::EngineRegistration* before = registry.Find("RESPECT");
  const std::string_view name_before = before->name;
  ASSERT_NE(before, nullptr);

  // Enough registrations to force reallocation in a contiguous container.
  for (int i = 0; i < 32; ++i) {
    const std::string name = "Stability" + std::to_string(i);
    if (registry.Contains(name)) continue;
    registry.Register({name, "", "registration-stability filler",
                       [](const engines::EngineContext&) {
                         return std::make_unique<EverythingStageZeroEngine>();
                       }});
  }

  // Pointers and string_views captured before the registrations must still
  // be valid and resolve to the same entry.
  EXPECT_EQ(registry.Find("RESPECT"), before);
  EXPECT_EQ(before->name, "RESPECT");
  EXPECT_EQ(name_before, "RESPECT");
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsDoNotBlockEachOther) {
  // Two callers sharing one pool: each ParallelFor must return once its own
  // tasks finish, even while the other keeps the pool busy.
  core::ThreadPool pool(2);
  std::atomic<int> total{0};
  std::thread other([&] {
    for (int round = 0; round < 4; ++round) {
      core::ParallelFor(pool, 16, [&](std::size_t) { total.fetch_add(1); });
    }
  });
  for (int round = 0; round < 4; ++round) {
    core::ParallelFor(pool, 16, [&](std::size_t) { total.fetch_add(1); });
  }
  other.join();
  EXPECT_EQ(total.load(), 2 * 4 * 16);
}

// Every registered engine must schedule the paper's full complexity sweep.
class AllEnginesValidationTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AllEnginesValidationTest, ValidSchedulesAcrossDegreeSweep) {
  PipelineCompiler compiler(FastOptions());
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;

  std::mt19937_64 rng(42);
  for (int degree = 2; degree <= 6; ++degree) {
    graph::SamplerConfig config;
    config.num_nodes = 30;
    config.max_in_degree = degree;
    const graph::Dag dag = graph::SampleDag(config, rng);
    const CompileResult result = compiler.Compile(dag, 4, GetParam());
    const auto validation =
        ValidateSchedule(dag, result.schedule, constraints);
    EXPECT_TRUE(validation.ok)
        << GetParam() << " deg=" << degree << ": " << validation.reason;
    EXPECT_GT(result.peak_stage_param_bytes, 0);
  }
}

// A stage count below one is a caller error, rejected before any engine
// runs (several engines would otherwise index an empty stage array).
TEST_P(AllEnginesValidationTest, NonPositiveStageCountIsInvalidArgument) {
  PipelineCompiler compiler(FastOptions());
  std::mt19937_64 rng(43);
  const graph::Dag dag = graph::SampleTrainingDag(12, rng);
  for (const int num_stages : {0, -1}) {
    EXPECT_THROW((void)compiler.Compile(dag, num_stages, GetParam()),
                 std::invalid_argument)
        << GetParam() << " num_stages=" << num_stages;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, AllEnginesValidationTest,
    ::testing::ValuesIn(engines::EngineRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ── Heterogeneous device profiles across every engine ────────────────────

/// Every built-in engine, compiled with an explicit heterogeneous profile,
/// must stay valid and never end up with a worse estimated service-time
/// bottleneck than its own profile-blind schedule replayed on that
/// hardware.  (For engines that ignore the profile, the façade's
/// RebalanceForProfile post-pass provides the adaptation; the annealer
/// additionally swaps to the device-aware objective.)
class HeterogeneousProfileTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(HeterogeneousProfileTest, ProfileAwareCompileNeverLosesToUniform) {
  PipelineCompiler compiler(FastOptions());
  const tpu::DeviceProfile profile = *tpu::FindProfile("coral-x2fast");
  const std::string& engine = GetParam();
  // The façade quantizes packages (uint8 from float32), so schedule-level
  // service estimates scale graph bytes by the same 1/4.
  constexpr double kBytesScale = 0.25;

  std::mt19937_64 rng(17);
  const graph::Dag dag = graph::SampleTrainingDag(28, rng);
  const CompileResult uniform = compiler.Compile(dag, 4, engine);
  const CompileResult adapted = compiler.Compile(dag, 4, engine, profile);

  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  const auto validation = ValidateSchedule(dag, adapted.schedule, constraints);
  EXPECT_TRUE(validation.ok) << engine << ": " << validation.reason;

  const double uniform_us = sched::EstimateBottleneckUs(
      dag, uniform.schedule, profile, kBytesScale);
  const double adapted_us = sched::EstimateBottleneckUs(
      dag, adapted.schedule, profile, kBytesScale);
  EXPECT_LE(adapted_us, uniform_us + 1e-9) << engine;

  // The default profile must be byte-identical to the profile-less path —
  // heterogeneity support cannot perturb the paper's pipeline.
  const CompileResult via_default =
      compiler.Compile(dag, 4, engine, tpu::DefaultProfile());
  EXPECT_EQ(via_default.schedule.stage, uniform.schedule.stage) << engine;
}

INSTANTIATE_TEST_SUITE_P(Engines, HeterogeneousProfileTest,
                         ::testing::ValuesIn(BuiltinEngineNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(HeterogeneousProfileTest, FasterFrontStageAttractsMoreWork) {
  // A chain of identical compute-heavy ops on a 2-stage pipeline whose
  // stage 0 runs twice as fast: the byte objective splits the chain evenly,
  // but the device-aware adaptation must push strictly more MACs onto the
  // fast device.
  graph::Dag dag;
  for (int i = 0; i < 12; ++i) {
    graph::OpAttr attr;
    attr.macs = 2'000'000;
    attr.param_bytes = 1024;
    attr.output_bytes = 256;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }

  PipelineCompiler compiler(FastOptions());
  const tpu::DeviceProfile profile = *tpu::FindProfile("coral-x2fast");
  const std::string_view engine = "GreedyBalance";
  const CompileResult uniform = compiler.Compile(dag, 2, engine);
  const CompileResult adapted = compiler.Compile(dag, 2, engine, profile);

  const auto stage_macs = [&](const sched::Schedule& schedule, int stage) {
    double macs = 0.0;
    for (graph::NodeId v = 0; v < dag.NodeCount(); ++v) {
      if (schedule.StageOf(v) == stage) macs += dag.Attr(v).macs;
    }
    return macs;
  };
  EXPECT_GT(stage_macs(adapted.schedule, 0), stage_macs(uniform.schedule, 0));
}

TEST(PipelineCompilerTest, ReplaceRlSwapsSnapshotCopyOnWrite) {
  PipelineCompiler compiler(FastOptions());
  const auto before = compiler.MakeEngineContext().rl;
  ASSERT_NE(before, nullptr);

  auto fresh = std::make_shared<rl::RlScheduler>(FastOptions().net);
  compiler.ReplaceRl(fresh);
  // New compiles snapshot the fresh scheduler; the old snapshot (held by
  // any in-flight engine) stays alive and untouched.
  EXPECT_EQ(compiler.MakeEngineContext().rl, fresh);
  EXPECT_NE(compiler.MakeEngineContext().rl, before);
  EXPECT_NE(before, nullptr);

  std::mt19937_64 rng(29);
  const graph::Dag dag = graph::SampleTrainingDag(20, rng);
  const CompileResult result = compiler.Compile(dag, 4, "RESPECT");
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  EXPECT_TRUE(ValidateSchedule(dag, result.schedule, constraints).ok);
}

std::vector<graph::Dag> SampleBatch(int count, std::uint64_t seed) {
  std::vector<graph::Dag> dags;
  std::mt19937_64 rng(seed);
  dags.reserve(count);
  for (int i = 0; i < count; ++i) {
    dags.push_back(graph::SampleTrainingDag(30, rng));
  }
  return dags;
}

std::vector<const graph::Dag*> Pointers(const std::vector<graph::Dag>& dags) {
  std::vector<const graph::Dag*> pointers;
  pointers.reserve(dags.size());
  for (const graph::Dag& dag : dags) pointers.push_back(&dag);
  return pointers;
}

// Acceptance criterion: CompileBatch over >= 8 sampled DAGs with 4 threads
// produces schedules identical to the sequential path.
TEST(CompileBatchTest, ParallelMatchesSequential) {
  PipelineCompiler compiler(FastOptions());
  const std::vector<graph::Dag> dags = SampleBatch(10, 7);
  const std::vector<const graph::Dag*> pointers = Pointers(dags);
  core::ThreadPool pool(4);

  for (const std::string_view engine : {"RESPECT", "ExactILP", "ListScheduling",
                                        "Annealing", "GreedyBalance"}) {
    const std::vector<CompileResult> parallel =
        compiler.CompileBatch(pointers, 4, engine, pool);
    ASSERT_EQ(parallel.size(), dags.size()) << engine;
    for (std::size_t i = 0; i < dags.size(); ++i) {
      const CompileResult sequential = compiler.Compile(dags[i], 4, engine);
      EXPECT_EQ(parallel[i].schedule.stage, sequential.schedule.stage)
          << engine << " dag " << i;
      EXPECT_EQ(parallel[i].peak_stage_param_bytes,
                sequential.peak_stage_param_bytes)
          << engine << " dag " << i;
    }
  }
}

TEST(CompileBatchTest, RepeatedParallelRunsAreDeterministic) {
  PipelineCompiler compiler(FastOptions());
  const std::vector<graph::Dag> dags = SampleBatch(8, 13);
  const std::vector<const graph::Dag*> pointers = Pointers(dags);

  // Two pools of different sizes: the split across workers must not matter.
  core::ThreadPool four(4);
  core::ThreadPool three(3);
  const auto first =
      compiler.CompileBatch(pointers, 4, "Annealing", four);
  const auto second = compiler.CompileBatch(pointers, 4, "anneal", three);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].schedule.stage, second[i].schedule.stage) << i;
  }
}

TEST(CompileBatchTest, BackToBackBatchesOnOnePoolAgree) {
  PipelineCompiler compiler(FastOptions());
  const std::vector<graph::Dag> dags = SampleBatch(8, 23);
  const std::vector<const graph::Dag*> pointers = Pointers(dags);

  // Back-to-back batches on the same pool (the serving-loop shape).
  core::ThreadPool pool(4);
  const auto first =
      compiler.CompileBatch(pointers, 4, "ListScheduling", pool);
  const auto second = compiler.CompileBatch(pointers, 4, "list", pool);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].schedule.stage, second[i].schedule.stage) << i;
  }
}

TEST(CompileBatchTest, WorkerExceptionsReachTheCaller) {
  PipelineCompiler compiler(FastOptions());
  const std::vector<graph::Dag> dags = SampleBatch(2, 17);
  // 30-node graphs cannot fill 64 stages; the failure must not be swallowed
  // by the pool.
  const std::vector<const graph::Dag*> pointers = Pointers(dags);
  core::ThreadPool pool(2);
  EXPECT_THROW(
      (void)compiler.CompileBatch(pointers, 64, "GreedyBalance", pool),
      std::exception);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  core::ParallelFor(pool, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, TasksOverlapAcrossWorkers) {
  // Structural overlap check (no wall-clock bound, so immune to CI runner
  // jitter): with 8 sleeping tasks on 4 workers, at least two tasks must be
  // observed in flight at once — a serializing pool would peak at 1.  Sleep
  // overlap holds even on single-core machines.
  core::ThreadPool pool(4);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  core::ParallelFor(pool, 8, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    active.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A 1-thread pool makes blocking nested use a guaranteed deadlock; the
  // nested call must degrade to inline execution.
  core::ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  core::ParallelFor(pool, 3, [&](std::size_t) {
    core::ParallelFor(pool, 4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 12);
}

TEST(ThreadPoolTest, ThrowingSubmitTaskDoesNotWedgeThePool) {
  core::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([] { throw std::runtime_error("dropped"); });
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();  // must return despite the throwing task
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  core::ThreadPool pool(-3);
  EXPECT_EQ(pool.NumThreads(), 1);
  EXPECT_GE(core::ThreadPool::DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace respect
