// Failure-domain hardening, end to end: cooperative cancellation must unwind
// every polling engine with CancelledError (never a truncated schedule), a
// blown solve budget must walk the configured fallback chain and come back
// degraded — cached under the fallback engine's own key, never the preferred
// one's — circuit breakers must open on consecutive failures, short-circuit
// the sick engine, and recover through a half-open probe, bounded lanes must
// shed with the typed Overloaded instead of queueing doomed work, and the
// failpoint framework must inject faults at every registered site (engine
// solve, queue pop, store read/write/rename, writeback) without a single
// silent drop or stranded waiter.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "core/failpoint.h"
#include "core/respect.h"
#include "core/thread_pool.h"
#include "engines/engine.h"
#include "engines/registry.h"
#include "graph/canonical_hash.h"
#include "graph/sampler.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "serve/circuit_breaker.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "obs/trace.h"
#include "serve/store/disk_store.h"
#include "tpu/device_profile.h"

namespace respect {
namespace {

namespace fs = std::filesystem;

using core::CancelledError;
using core::CancelToken;
using core::failpoint::FailpointError;
using core::failpoint::ScopedFailpoint;
using serve::CachePolicy;
using serve::CacheOutcome;
using serve::CompileRequest;
using serve::CompileResponse;
using serve::DeadlineExceeded;
using serve::Overloaded;
using serve::Priority;
using serve::RequestQueue;
using serve::ResultPtr;
using serve::store::DiskStore;
using serve::store::DiskStoreOptions;
using serve::store::SpillMeta;

CompilerOptions FastOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 12;
  options.exact_max_expansions = 200'000;
  options.exact_time_limit_seconds = 0.0;
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

graph::Dag SampleDag(int nodes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return graph::SampleTrainingDag(nodes, rng);
}

CompileResponse Ask(serve::CompileService& service, const graph::Dag& dag,
                    int num_stages, std::string engine,
                    CachePolicy policy = CachePolicy::kUse) {
  return service.Compile(CompileRequest{.dag = dag,
                                        .num_stages = num_stages,
                                        .engine = std::move(engine),
                                        .cache_policy = policy});
}

/// Fresh directory under the test temp root, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// True when `dir` holds any leftover temp file (failed writes must not
/// litter).
bool HasTempLitter(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

/// Engine that takes ~150ms, polling its CancelToken between 2ms strides —
/// the stand-in for a slow solver that honors cooperative cancellation.
class StallPollEngine : public engines::SchedulerEngine {
 public:
  static std::atomic<int>& Solves() {
    static std::atomic<int> solves{0};
    return solves;
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget& budget) const override {
    for (int i = 0; i < 75; ++i) {
      budget.cancel.ThrowIfCancelled("stall-poll");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Solves().fetch_add(1);
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

/// Engine whose health is a test-controlled switch; unhealthy solves throw.
class FlakyEngine : public engines::SchedulerEngine {
 public:
  static std::atomic<bool>& Healthy() {
    static std::atomic<bool> healthy{true};
    return healthy;
  }
  static std::atomic<int>& Attempts() {
    static std::atomic<int> attempts{0};
    return attempts;
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    Attempts().fetch_add(1);
    if (!Healthy().load()) {
      throw std::runtime_error("flaky: injected backend failure");
    }
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

void EnsureChaosEngines() {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("StallPoll")) {
    registry.Register({"StallPoll", "", "test-only cancellable slow engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<StallPollEngine>();
                       }});
  }
  if (!registry.Contains("Flaky")) {
    registry.Register({"Flaky", "", "test-only switchable failing engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<FlakyEngine>();
                       }});
  }
  StallPollEngine::Solves().store(0);
  FlakyEngine::Healthy().store(true);
  FlakyEngine::Attempts().store(0);
}

// ── CancelToken ──────────────────────────────────────────────────────────

TEST(CancelTokenTest, EmptyTokenNeverCancels) {
  const CancelToken token;
  EXPECT_FALSE(token.Cancellable());
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();  // no-op on an empty token
  EXPECT_FALSE(token.Cancelled());
  EXPECT_NO_THROW(token.ThrowIfCancelled("nowhere"));
}

TEST(CancelTokenTest, ManualTokenFiresOnCancel) {
  const CancelToken token = CancelToken::Manual();
  EXPECT_TRUE(token.Cancellable());
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_THROW(token.ThrowIfCancelled("manual"), CancelledError);
}

TEST(CancelTokenTest, BudgetTokenFiresAfterItsDeadline) {
  const CancelToken token = CancelToken::WithBudget(0.02);
  EXPECT_FALSE(token.Cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(token.Cancelled());
  // A later poll stays cancelled (the deadline latches).
  EXPECT_TRUE(token.Cancelled());
}

TEST(EngineCancelTest, FiredTokenUnwindsEveryPollingEngine) {
  const PipelineCompiler compiler(FastOptions());
  const graph::Dag dag = SampleDag(32, 11);
  CancelToken fired = CancelToken::Manual();
  fired.Cancel();
  for (const std::string_view engine : {"anneal", "exact", "respect"}) {
    EXPECT_THROW(
        (void)compiler.Compile(dag, 4, engine, tpu::DefaultProfile(), fired),
        CancelledError)
        << engine;
  }
}

TEST(EngineCancelTest, EmptyTokenCompilesIdenticallyToThePlainOverload) {
  const PipelineCompiler compiler(FastOptions());
  const graph::Dag dag = SampleDag(24, 12);
  const CompileResult plain = compiler.Compile(dag, 4, "list");
  const CompileResult tokened =
      compiler.Compile(dag, 4, "list", tpu::DefaultProfile(), CancelToken());
  EXPECT_EQ(plain.schedule.stage, tokened.schedule.stage);
  EXPECT_EQ(plain.schedule.num_stages, tokened.schedule.num_stages);
}

// ── Failpoint framework ──────────────────────────────────────────────────
// Everything below the CancelToken suites needs failpoints compiled in
// (the default); a -DRESPECT_FAILPOINTS=OFF build drops these tests.
#if defined(RESPECT_FAILPOINTS) && RESPECT_FAILPOINTS

TEST(FailpointTest, DisarmedSitesAreInvisible) {
  core::failpoint::ClearAll();
  EXPECT_FALSE(core::failpoint::Armed());
  // A bare macro visit with nothing configured is a no-op.
  RESPECT_FAILPOINT("chaos.test.unconfigured");
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.unconfigured"), 0u);
}

TEST(FailpointTest, ErrorActionThrowsAndCountsVisits) {
  const ScopedFailpoint fp("chaos.test.err", "error(boom)");
  EXPECT_TRUE(core::failpoint::Armed());
  EXPECT_THROW(RESPECT_FAILPOINT("chaos.test.err"), FailpointError);
  EXPECT_THROW(RESPECT_FAILPOINT("chaos.test.err"), FailpointError);
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.err"), 2u);
  // Unconfigured sites stay silent while another site is armed.
  RESPECT_FAILPOINT("chaos.test.other");
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.other"), 0u);
}

TEST(FailpointTest, CountLimitedActionsFireThenOnlyCount) {
  const ScopedFailpoint fp("chaos.test.once", "error", /*count=*/1);
  EXPECT_THROW(RESPECT_FAILPOINT("chaos.test.once"), FailpointError);
  EXPECT_NO_THROW(RESPECT_FAILPOINT("chaos.test.once"));
  EXPECT_NO_THROW(RESPECT_FAILPOINT("chaos.test.once"));
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.once"), 3u);
}

TEST(FailpointTest, OffActionCountsWithoutInjecting) {
  const ScopedFailpoint fp("chaos.test.off", "off");
  EXPECT_NO_THROW(RESPECT_FAILPOINT("chaos.test.off"));
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.off"), 1u);
}

TEST(FailpointTest, DelayActionStallsTheCaller) {
  const ScopedFailpoint fp("chaos.test.delay", "delay(30)");
  const auto start = std::chrono::steady_clock::now();
  RESPECT_FAILPOINT("chaos.test.delay");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.025);
}

TEST(FailpointTest, BadActionsAndSpecsAreRejected) {
  EXPECT_THROW(core::failpoint::Configure("chaos.test.bad", "explode"),
               std::invalid_argument);
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.bad"), 0u);

  EXPECT_TRUE(core::failpoint::ConfigureFromSpec(
      "chaos.test.spec1=off;chaos.test.spec2=delay(1)"));
  RESPECT_FAILPOINT("chaos.test.spec1");
  EXPECT_EQ(core::failpoint::HitCount("chaos.test.spec1"), 1u);
  core::failpoint::Clear("chaos.test.spec1");
  core::failpoint::Clear("chaos.test.spec2");

  EXPECT_FALSE(core::failpoint::ConfigureFromSpec("not-a-clause"));
  EXPECT_FALSE(core::failpoint::ConfigureFromSpec("chaos.test.x=explode"));
  core::failpoint::ClearAll();
  EXPECT_FALSE(core::failpoint::Armed());
}

TEST(FailpointTest, EngineSolveSiteIsTaggedPerEngine) {
  EnsureChaosEngines();
  const PipelineCompiler compiler(FastOptions());
  const graph::Dag dag = SampleDag(24, 13);
  // The tag is the registration's canonical name, whatever the spelling,
  // for built-in and runtime-registered engines alike.
  for (const auto& [spelling, name] :
       {std::pair{"list", "ListScheduling"}, std::pair{"Flaky", "Flaky"}}) {
    const std::string site = std::string("engine.solve.") + name;
    const ScopedFailpoint fp(site, "error");
    EXPECT_THROW((void)compiler.Compile(dag, 4, spelling), FailpointError)
        << spelling;
    // Other engines pass the untagged site untouched.
    EXPECT_NO_THROW((void)compiler.Compile(dag, 4, "greedy"));
    EXPECT_GE(core::failpoint::HitCount(site), 1u) << spelling;
  }
}

TEST(FailpointTest, EngineSolveSiteFiresForGroupedBatchChunks) {
  const PipelineCompiler compiler(FastOptions());
  std::vector<graph::Dag> dags;
  for (const std::uint64_t seed : {14, 15, 16}) {
    dags.push_back(SampleDag(24, seed));  // one size: one batched chunk
  }
  const std::vector<const graph::Dag*> pointers = {&dags[0], &dags[1],
                                                   &dags[2]};
  core::ThreadPool pool(2);
  const ScopedFailpoint fp("engine.solve.RESPECT", "error");
  EXPECT_THROW((void)compiler.CompileBatch(pointers, 4, "respect", pool),
               FailpointError);
}

// ── Solve budgets, fallback chains, degraded caching ─────────────────────

TEST(ChaosServiceTest, BlownBudgetFallsBackDegradedAndCachesUnderFallbackKey) {
  EnsureChaosEngines();
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  serve::CompileService service(FastOptions(), svc);
  const graph::Dag dag = SampleDag(24, 21);

  const CompileResponse degraded =
      service.Compile(CompileRequest{.dag = dag,
                                     .num_stages = 4,
                                     .engine = "StallPoll",
                                     .solve_budget_seconds = 0.05});
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(degraded.engine_name, "ListScheduling");
  EXPECT_EQ(degraded.requested_engine, "StallPoll");
  ASSERT_NE(degraded.result, nullptr);
  EXPECT_EQ(degraded.result->schedule.num_stages, 4);
  EXPECT_EQ(StallPollEngine::Solves().load(), 0);  // cancelled, never finished

  auto metrics = service.Metrics();
  EXPECT_EQ(metrics.budget_blown, 1u);
  EXPECT_EQ(metrics.degraded_served, 1u);
  EXPECT_EQ(metrics.fallback_exhausted, 0u);
  ASSERT_TRUE(metrics.breakers.count("StallPoll"));
  EXPECT_EQ(metrics.breakers.at("StallPoll").consecutive_failures, 1);

  // The degraded result lives under the fallback engine's own key: asking
  // for ListScheduling outright is a hit on the same shared result...
  const CompileResponse direct = Ask(service, dag, 4, "list");
  EXPECT_EQ(direct.outcome, CacheOutcome::kHit);
  EXPECT_FALSE(direct.degraded);
  EXPECT_EQ(direct.result, degraded.result);

  // ...while the preferred engine's key was never populated: the same
  // request misses again (and degrades again).
  const CompileResponse again =
      service.Compile(CompileRequest{.dag = dag,
                                     .num_stages = 4,
                                     .engine = "StallPoll",
                                     .solve_budget_seconds = 0.05});
  EXPECT_EQ(again.outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(service.Metrics().budget_blown, 2u);
}

TEST(ChaosServiceTest, BlownBudgetWithoutFallbackIsDeadlineExceeded) {
  EnsureChaosEngines();
  serve::ServiceOptions svc;
  svc.default_solve_budget_seconds = 0.05;
  serve::CompileService service(FastOptions(), svc);
  const graph::Dag dag = SampleDag(24, 22);

  EXPECT_THROW((void)Ask(service, dag, 4, "StallPoll"), DeadlineExceeded);
  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.budget_blown, 1u);
  EXPECT_EQ(metrics.fallback_exhausted, 1u);
  EXPECT_EQ(metrics.failures, 1u);
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.degraded_served, 0u);
}

TEST(ChaosServiceTest, InjectedEngineErrorWalksTheFallbackChain) {
  EnsureChaosEngines();
  serve::ServiceOptions svc;
  svc.fallback_chain = {"greedy"};
  serve::CompileService service(FastOptions(), svc);
  const graph::Dag dag = SampleDag(24, 23);

  const ScopedFailpoint fp("engine.solve.ListScheduling", "error");
  const CompileResponse response = Ask(service, dag, 4, "list");
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.engine_name, "GreedyBalance");
  EXPECT_EQ(response.requested_engine, "ListScheduling");
  ASSERT_NE(response.result, nullptr);
  EXPECT_EQ(service.Metrics().degraded_served, 1u);
}

TEST(ChaosServiceTest, UnknownFallbackEngineFailsAtConstruction) {
  serve::ServiceOptions svc;
  svc.fallback_chain = {"no-such-engine"};
  EXPECT_THROW(serve::CompileService(FastOptions(), svc),
               std::invalid_argument);
}

// ── Circuit breakers ─────────────────────────────────────────────────────

TEST(ChaosServiceTest, BreakerOpensShortCircuitsAndRecoversViaProbe) {
  EnsureChaosEngines();
  FlakyEngine::Healthy().store(false);

  auto fake_now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::now());
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  svc.breaker_failure_threshold = 2;
  svc.breaker_open_seconds = 10.0;
  svc.breaker_clock = [fake_now] { return *fake_now; };
  serve::CompileService service(FastOptions(), svc);

  // Two consecutive failures open the breaker; both requests still come
  // back valid (degraded) off the fallback.
  const CompileResponse r1 = Ask(service, SampleDag(24, 31), 4, "Flaky");
  EXPECT_TRUE(r1.degraded);
  EXPECT_EQ(FlakyEngine::Attempts().load(), 1);
  EXPECT_EQ(service.Metrics().breakers.at("Flaky").state, "closed");

  const CompileResponse r2 = Ask(service, SampleDag(24, 32), 4, "Flaky");
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(FlakyEngine::Attempts().load(), 2);
  EXPECT_EQ(service.Metrics().breakers.at("Flaky").state, "open");
  EXPECT_EQ(service.Metrics().breakers.at("Flaky").opened, 1u);

  // While open the sick engine is skipped entirely — no third attempt —
  // and the fallback answers alone.
  const CompileResponse r3 = Ask(service, SampleDag(24, 33), 4, "Flaky");
  EXPECT_TRUE(r3.degraded);
  EXPECT_EQ(FlakyEngine::Attempts().load(), 2);
  EXPECT_GE(service.Metrics().breakers.at("Flaky").short_circuits, 1u);

  // After the open window a half-open probe reaches the (now healed)
  // engine; its success closes the breaker and the response is undegraded.
  FlakyEngine::Healthy().store(true);
  *fake_now += std::chrono::seconds(11);
  const CompileResponse r4 = Ask(service, SampleDag(24, 34), 4, "Flaky");
  EXPECT_FALSE(r4.degraded);
  EXPECT_EQ(r4.engine_name, "Flaky");
  EXPECT_EQ(FlakyEngine::Attempts().load(), 3);
  const auto snapshot = service.Metrics().breakers.at("Flaky");
  EXPECT_EQ(snapshot.state, "closed");
  EXPECT_EQ(snapshot.consecutive_failures, 0);
}

TEST(ChaosServiceTest, LastCandidateIsAttemptedEvenWithAnOpenBreaker) {
  EnsureChaosEngines();
  FlakyEngine::Healthy().store(false);
  serve::ServiceOptions svc;
  svc.breaker_failure_threshold = 1;  // opens on the first failure
  svc.breaker_open_seconds = 1000.0;
  serve::CompileService service(FastOptions(), svc);

  // No fallback chain: the open breaker must not turn "sick engine" into
  // "no attempt at all" — the only candidate is always tried.
  EXPECT_THROW((void)Ask(service, SampleDag(24, 35), 4, "Flaky"),
               std::runtime_error);
  EXPECT_EQ(service.Metrics().breakers.at("Flaky").state, "open");
  const int after_open = FlakyEngine::Attempts().load();
  EXPECT_THROW((void)Ask(service, SampleDag(24, 36), 4, "Flaky"),
               std::runtime_error);
  EXPECT_EQ(FlakyEngine::Attempts().load(), after_open + 1);
}

// ── Load shedding ────────────────────────────────────────────────────────

TEST(ChaosServiceTest, FullLaneShedsWithTypedOverloaded) {
  EnsureChaosEngines();
  serve::ServiceOptions svc;
  svc.num_threads = 1;
  svc.max_lane_depth = 1;
  serve::CompileService service(FastOptions(), svc);

  std::vector<serve::CompileService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.Submit(CompileRequest{
        .dag = SampleDag(24, 41 + static_cast<std::uint64_t>(i)),
        .num_stages = 4,
        .engine = "StallPoll"}));
  }

  int served = 0;
  int overloaded = 0;
  for (const auto& ticket : tickets) {
    try {
      const CompileResponse& response = ticket.WaitResponse();
      ASSERT_NE(response.result, nullptr);
      ++served;
    } catch (const Overloaded&) {
      ++overloaded;
    }
  }
  // Every ticket settled with a result or the typed rejection, and with one
  // worker and a one-deep lane most of the burst was refused up front.
  EXPECT_EQ(served + overloaded, 6);
  EXPECT_GE(served, 1);
  EXPECT_GE(overloaded, 1);

  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.shed, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(metrics.lanes[static_cast<std::size_t>(Priority::kNormal)].shed,
            static_cast<std::uint64_t>(overloaded));
}

TEST(ChaosServiceTest, DeadlineAdmissionShedsHopelessRequests) {
  EnsureChaosEngines();
  serve::ServiceOptions svc;
  svc.num_threads = 1;
  svc.deadline_admission = true;
  serve::CompileService service(FastOptions(), svc);

  // Prime the solve-cost EWMA with one real StallPoll solve (~150ms).
  (void)Ask(service, SampleDag(24, 51), 4, "StallPoll");

  // Occupy the worker and build a backlog of unconstrained requests...
  std::vector<serve::CompileService::Ticket> backlog;
  for (int i = 0; i < 3; ++i) {
    backlog.push_back(service.Submit(CompileRequest{
        .dag = SampleDag(24, 52 + static_cast<std::uint64_t>(i)),
        .num_stages = 4,
        .engine = "StallPoll"}));
  }

  // ...then a request whose deadline the queue wait alone already blows.
  auto doomed = service.Submit(
      CompileRequest{.dag = SampleDag(24, 60),
                     .num_stages = 4,
                     .engine = "StallPoll",
                     .deadline = serve::DeadlineIn(0.005)});
  EXPECT_THROW((void)doomed.WaitResponse(), Overloaded);
  EXPECT_GE(service.Metrics().shed, 1u);

  for (const auto& ticket : backlog) (void)ticket.Wait();
}

// ── Writeback and disk-store fault injection ─────────────────────────────

TEST(ChaosServiceTest, WritebackFailureIsCountedNotSilent) {
  EnsureChaosEngines();
  const TempDir dir("respect-chaos-writeback");
  serve::ServiceOptions svc;
  svc.cache_dir = dir.str();
  serve::CompileService service(FastOptions(), svc);

  const ScopedFailpoint fp("serve.writeback", "error");
  const CompileResponse response = Ask(service, SampleDag(24, 61), 4, "list");
  EXPECT_EQ(response.outcome, CacheOutcome::kMiss);
  service.FlushStore();

  const auto metrics = service.Metrics();
  EXPECT_GE(metrics.writeback_errors, 1u);
  EXPECT_EQ(metrics.store.writes, 0u);
}

ResultPtr SolveOnce(const graph::Dag& dag) {
  static PipelineCompiler* compiler = new PipelineCompiler(FastOptions());
  return std::make_shared<const CompileResult>(
      compiler->Compile(dag, 4, "list"));
}

TEST(DiskStoreChaosTest, PutRetriesTransientWriteFailure) {
  const TempDir dir("respect-chaos-put-retry");
  DiskStore store(DiskStoreOptions{.directory = dir.str(),
                                   .write_retries = 2,
                                   .write_retry_backoff_ms = 1});
  SpillMeta meta;
  meta.key = graph::CanonicalHash{0xc0de, 0xf00d};
  meta.engine_name = "ListScheduling";

  const ScopedFailpoint fp("store.write", "error(transient EIO)", 1);
  store.Put(meta, SolveOnce(SampleDag(24, 71)));

  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.writes, 1u);
  EXPECT_EQ(metrics.write_retries, 1u);
  EXPECT_EQ(metrics.write_failures, 0u);
  EXPECT_FALSE(HasTempLitter(dir.path()));
  EXPECT_NE(store.Probe(meta.key), nullptr);
}

TEST(DiskStoreChaosTest, PutRetriesRenameFailureToo) {
  const TempDir dir("respect-chaos-rename-retry");
  DiskStore store(DiskStoreOptions{.directory = dir.str(),
                                   .write_retries = 1,
                                   .write_retry_backoff_ms = 1});
  SpillMeta meta;
  meta.key = graph::CanonicalHash{0xabad, 0x1dea};
  meta.engine_name = "ListScheduling";

  const ScopedFailpoint fp("store.rename", "error", 1);
  store.Put(meta, SolveOnce(SampleDag(24, 72)));

  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.writes, 1u);
  EXPECT_EQ(metrics.write_retries, 1u);
  EXPECT_EQ(metrics.write_failures, 0u);
  EXPECT_FALSE(HasTempLitter(dir.path()));
}

TEST(DiskStoreChaosTest, ExhaustedRetriesCountOneFailureWithoutLitter) {
  const TempDir dir("respect-chaos-put-exhaust");
  DiskStore store(DiskStoreOptions{.directory = dir.str(),
                                   .write_retries = 1,
                                   .write_retry_backoff_ms = 1});
  SpillMeta meta;
  meta.key = graph::CanonicalHash{0xdead, 0xbeef};
  meta.engine_name = "ListScheduling";

  const ScopedFailpoint fp("store.write", "error");  // every attempt fails
  store.Put(meta, SolveOnce(SampleDag(24, 73)));     // must not throw

  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.writes, 0u);
  EXPECT_EQ(metrics.write_retries, 1u);
  EXPECT_EQ(metrics.write_failures, 1u);
  EXPECT_FALSE(HasTempLitter(dir.path()));
  EXPECT_EQ(store.Probe(meta.key), nullptr);
  EXPECT_FALSE(fs::exists(store.PathFor(meta.key)));
}

TEST(DiskStoreChaosTest, ReadFailureQuarantinesTheFileAndMisses) {
  const TempDir dir("respect-chaos-read");
  DiskStore store(DiskStoreOptions{.directory = dir.str()});
  SpillMeta meta;
  meta.key = graph::CanonicalHash{0x5eed, 0x511};
  meta.engine_name = "ListScheduling";
  store.Put(meta, SolveOnce(SampleDag(24, 74)));
  ASSERT_TRUE(fs::exists(store.PathFor(meta.key)));

  {
    const ScopedFailpoint fp("store.read", "error(injected EIO)", 1);
    EXPECT_EQ(store.Probe(meta.key), nullptr);
  }
  // The unreadable file was quarantined, so even a healthy re-probe is a
  // clean (index-only) miss.
  EXPECT_FALSE(fs::exists(store.PathFor(meta.key)));
  EXPECT_EQ(store.Probe(meta.key), nullptr);

  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.corrupt_dropped, 1u);
  EXPECT_EQ(metrics.hits, 0u);
  EXPECT_EQ(metrics.misses, 2u);
}

// ── Queue and pool fault injection ───────────────────────────────────────

TEST(RequestQueueChaosTest, QueuePopFailpointFiresOnTheWorkerSide) {
  RequestQueue queue;
  bool ran = false;
  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(Priority::kNormal);
  queue.Push([&ran] { ran = true; }, attrs);

  const ScopedFailpoint fp("queue.pop", "error");
  core::ThreadPool::Task task = queue.Pop();
  ASSERT_TRUE(static_cast<bool>(task));
  // Pop itself must not throw (it runs under the pool mutex); the injected
  // error fires when the worker executes the task.
  EXPECT_THROW(task(), FailpointError);
  EXPECT_FALSE(ran);
  EXPECT_EQ(queue.Size(), 0u);
}

// ── Fleet network fault injection ────────────────────────────────────────

TEST(NetChaosTest, InjectedWriteFailureIsTypedAndTheLinkRecovers) {
  EnsureChaosEngines();
  serve::CompileService service(FastOptions());
  net::FleetServer server(service);
  net::FleetClient client(server.Address());

  {
    // Fires on the client's send — nothing reaches the wire, so the same
    // connection keeps working once the fault clears.
    const ScopedFailpoint fp("net.write", "error(cable pulled)", 1);
    EXPECT_THROW(client.Ping(), net::NetError);
  }
  client.Ping();  // the link is intact
  server.Stop();
}

TEST(NetChaosTest, InjectedReadFailureClosesCleanAndServerSurvives) {
  EnsureChaosEngines();
  serve::CompileService service(FastOptions());
  net::FleetServer server(service);
  net::FleetClient client(server.Address());
  client.Ping();

  {
    // Unbounded: both ends of the exchange hit the fault.  The client sees
    // a typed NetError; the server handler treats it as a dead connection
    // and returns its worker to the pool.
    const ScopedFailpoint fp("net.read", "error(reset by chaos)");
    EXPECT_THROW(client.Ping(), net::NetError);
  }
  // A fresh connection proves the server outlived the fault.
  net::FleetClient fresh(server.Address());
  fresh.Ping();
  server.Stop();
}

TEST(NetChaosTest, InjectedAcceptFailuresKeepTheListenerAlive) {
  EnsureChaosEngines();
  serve::CompileService service(FastOptions());
  net::FleetServer server(service);

  // A few accept-loop iterations fail; the loop must stay listening and
  // accept this connection once the fault budget is spent.
  const ScopedFailpoint fp("net.accept", "error(EMFILE)", 2);
  net::FleetClient client(server.Address());
  client.Ping();
  const CompileResponse response =
      client.Compile(CompileRequest{.dag = SampleDag(16, 91),
                                    .num_stages = 4,
                                    .engine = "list"});
  ASSERT_NE(response.result, nullptr);
  server.Stop();
}

TEST(NetChaosTest, DroppedPeerDegradesToLocalSolve) {
  EnsureChaosEngines();
  // Shard A holds the warm spills; shard B (forwarding off, peer warm on)
  // would normally answer from A's envelopes.
  const TempDir dir_a("respect-chaos-peer-a");
  const TempDir dir_b("respect-chaos-peer-b");
  serve::ServiceOptions svc_a;
  svc_a.cache_dir = dir_a.str();
  serve::ServiceOptions svc_b;
  svc_b.cache_dir = dir_b.str();
  serve::CompileService service_a(FastOptions(), svc_a);
  serve::CompileService service_b(FastOptions(), svc_b);

  net::FleetServer server_a(service_a);
  net::FleetServerOptions options_b;
  options_b.forward_to_owner = false;
  net::FleetServer server_b(service_b, options_b);
  server_b.SetMembers({server_a.Address(), server_b.Address()},
                      server_b.Address());

  const graph::Dag first = SampleDag(20, 92);
  const graph::Dag second = SampleDag(20, 93);
  net::FleetClient client_a(server_a.Address());
  (void)client_a.Compile(CompileRequest{.dag = first, .num_stages = 4,
                                        .engine = "list"});
  (void)client_a.Compile(CompileRequest{.dag = second, .num_stages = 4,
                                        .engine = "list"});
  client_a.Flush();

  net::FleetClient client_b(server_b.Address());
  {
    // The peer link is down: the cold miss must degrade to a local solve —
    // valid result, failure counted, request never fails.
    const ScopedFailpoint fp("net.peer_fetch", "error(peer dropped)");
    const CompileResponse degraded = client_b.Compile(
        CompileRequest{.dag = first, .num_stages = 4, .engine = "list"});
    ASSERT_NE(degraded.result, nullptr);
    EXPECT_EQ(degraded.outcome, CacheOutcome::kMiss);
  }
  const auto during = service_b.Metrics();
  EXPECT_GE(during.peer_fetch_failures, 1u);
  EXPECT_EQ(during.peer_hits, 0u);

  // Fault cleared: the next cold key warms from the peer again.
  const CompileResponse warmed = client_b.Compile(
      CompileRequest{.dag = second, .num_stages = 4, .engine = "list"});
  EXPECT_EQ(warmed.outcome, CacheOutcome::kPeerHit);
  EXPECT_GE(service_b.Metrics().peer_hits, 1u);
  server_b.Stop();
  server_a.Stop();
}

#endif  // RESPECT_FAILPOINTS

TEST(RequestQueueChaosTest, ShutdownSettlesEveryResidentEntryExactlyOnce) {
  RequestQueue queue;
  std::atomic<int> expired_a{0};
  std::atomic<int> expired_b{0};
  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(Priority::kInteractive);
  attrs.on_expired = [&expired_a] { expired_a.fetch_add(1); };
  queue.Push([] { FAIL() << "never popped"; }, attrs);

  attrs.lane = static_cast<int>(Priority::kBatch);
  attrs.on_expired = [&expired_b] { expired_b.fetch_add(1); };
  queue.Push([] { FAIL() << "never popped"; }, attrs);

  attrs.on_expired = nullptr;  // settled by dropping
  queue.Push([] { FAIL() << "never popped"; }, attrs);

  ASSERT_EQ(queue.Size(), 3u);
  queue.Shutdown();
  EXPECT_EQ(expired_a.load(), 1);
  EXPECT_EQ(expired_b.load(), 1);
  EXPECT_EQ(queue.ShutdownDrained(), 3u);
  EXPECT_EQ(queue.Size(), 0u);
  EXPECT_EQ(queue.Depth(Priority::kInteractive), 0u);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 0u);
}

TEST(ThreadPoolChaosTest, PoolDestructionSettlesEveryTaskExactlyOnce) {
  constexpr int kTasks = 6;
  std::array<std::atomic<int>, kTasks> settled{};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  {
    RequestQueue::Options options;
    options.max_batch_inflight = 1;  // hides the batch backlog from Size()
    core::ThreadPool pool(2, std::make_unique<RequestQueue>(options));
    for (int i = 0; i < kTasks; ++i) {
      core::ThreadPool::TaskAttrs attrs;
      attrs.lane = static_cast<int>(Priority::kBatch);
      attrs.on_expired = [&settled, i] { settled[i].fetch_add(1); };
      pool.Submit(
          [&settled, gate, i] {
            gate.wait();
            settled[i].fetch_add(1);
          },
          std::move(attrs));
    }
    release.set_value();
    // ~ThreadPool: workers drain what Size() shows, then Shutdown settles
    // anything the inflight cap still hides.
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(settled[i].load(), 1) << "task " << i;
  }
}

// ── Trace span trees under failure ───────────────────────────────────────
// The failure paths above must stay legible in a trace: a blown budget
// shows the failed attempt next to the fallback attempt, an open breaker
// leaves an instant marker instead of an attempt span, and a dead-peer
// forward shows the failed hop and the local degrade under one trace id.

/// Arms the global tracer for one test (clearing stale events both ways).
class ScopedTracing {
 public:
  ScopedTracing() {
    (void)obs::Tracer::Global().Drain();
    obs::Tracer::Global().Start();
  }
  ~ScopedTracing() {
    obs::Tracer::Global().Stop();
    (void)obs::Tracer::Global().Drain();
  }
};

std::string Detail(const obs::TraceEvent& event) {
  return event.detail == nullptr ? std::string()
                                 : std::string(event.detail, event.detail_len);
}

const obs::TraceEvent* FindSpan(const std::vector<obs::TraceEvent>& events,
                                const std::string& name,
                                const std::string& detail = "") {
  for (const obs::TraceEvent& event : events) {
    if (event.name == name && (detail.empty() || Detail(event) == detail)) {
      return &event;
    }
  }
  return nullptr;
}

TEST(ChaosTraceTest, BlownBudgetFallbackWalkEmitsSpanTree) {
  EnsureChaosEngines();
  ScopedTracing tracing;
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  serve::CompileService service(FastOptions(), svc);

  const CompileResponse response =
      service.Compile(CompileRequest{.dag = SampleDag(24, 61),
                                     .num_stages = 4,
                                     .engine = "StallPoll",
                                     .solve_budget_seconds = 0.05});
  EXPECT_TRUE(response.degraded);

  const auto events = obs::Tracer::Global().Drain();
  const obs::TraceEvent* compile = FindSpan(events, "serve.compile");
  const obs::TraceEvent* solve = FindSpan(events, "serve.solve");
  const obs::TraceEvent* blown = FindSpan(events, "serve.attempt", "StallPoll");
  const obs::TraceEvent* fallback =
      FindSpan(events, "serve.attempt", "ListScheduling");
  ASSERT_NE(compile, nullptr);
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(blown, nullptr);
  ASSERT_NE(fallback, nullptr);

  // One request flow: every span carries the id minted at admission.
  EXPECT_NE(compile->trace_id, 0u);
  EXPECT_EQ(solve->trace_id, compile->trace_id);
  EXPECT_EQ(blown->trace_id, compile->trace_id);
  EXPECT_EQ(fallback->trace_id, compile->trace_id);

  // Tree shape: compile is the root, attempts nest under the solve, and the
  // blown attempt ran (and ended) before the fallback attempt began.
  EXPECT_EQ(compile->depth, 0u);
  EXPECT_GT(solve->depth, compile->depth);
  EXPECT_GT(blown->depth, solve->depth);
  EXPECT_EQ(fallback->depth, blown->depth);
  EXPECT_LE(blown->start_us + blown->dur_us, fallback->start_us);
  // The blown attempt paid roughly the budget before cancellation unwound.
  EXPECT_GE(blown->dur_us, 40'000);
}

TEST(ChaosTraceTest, OpenBreakerShortCircuitEmitsInstantNotAttempt) {
  EnsureChaosEngines();
  FlakyEngine::Healthy().store(false);
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  svc.breaker_failure_threshold = 1;  // opens on the first failure
  svc.breaker_open_seconds = 1000.0;
  serve::CompileService service(FastOptions(), svc);

  // First request: the failure that opens the breaker (spans discarded).
  (void)Ask(service, SampleDag(24, 62), 4, "Flaky");
  ScopedTracing tracing;

  // Second request: the open breaker skips Flaky straight to the fallback.
  const CompileResponse response = Ask(service, SampleDag(24, 63), 4, "Flaky");
  EXPECT_TRUE(response.degraded);

  const auto events = obs::Tracer::Global().Drain();
  const obs::TraceEvent* skipped = FindSpan(events, "serve.attempt", "Flaky");
  const obs::TraceEvent* marker =
      FindSpan(events, "serve.breaker_short_circuit", "Flaky");
  const obs::TraceEvent* fallback =
      FindSpan(events, "serve.attempt", "ListScheduling");
  EXPECT_EQ(skipped, nullptr);  // no attempt span for the sick engine
  ASSERT_NE(marker, nullptr);
  ASSERT_NE(fallback, nullptr);
  EXPECT_LT(marker->dur_us, 0);  // instant, not a span
  EXPECT_NE(marker->trace_id, 0u);
  EXPECT_EQ(marker->trace_id, fallback->trace_id);
}

TEST(ChaosTraceTest, DeadPeerForwardShowsFailedHopAndLocalDegrade) {
  ScopedTracing tracing;
  serve::CompileService service(FastOptions());
  net::FleetServerOptions options;
  options.io_timeout_ms = 1000;
  net::FleetServer server(service, options);
  const std::string dead = "127.0.0.1:1";
  const std::vector<std::string> members = {server.Address(), dead};
  server.SetMembers(members, server.Address());

  // A request owned by the dead peer, tagged with a client-minted trace id
  // so the hop and the local degrade stitch into one flow.
  const net::ConsistentHashRing ring(members);
  CompileRequest request = [&] {
    for (std::uint64_t seed = 100; seed < 200; ++seed) {
      CompileRequest candidate{.dag = SampleDag(16, seed),
                               .num_stages = 4,
                               .engine = "anneal"};
      if (ring.OwnerOf(service.KeyFor(candidate).lo) == dead) {
        return candidate;
      }
    }
    throw std::logic_error("no seed landed on the dead peer");
  }();
  request.trace_id = obs::Tracer::Global().MintTraceId();

  net::FleetClient client(server.Address());
  const CompileResponse response = client.Compile(request);
  ASSERT_NE(response.result, nullptr);  // valid despite the dead owner
  EXPECT_GE(server.Metrics().forward_failures, 1u);
  server.Stop();

  const auto events = obs::Tracer::Global().Drain();
  const obs::TraceEvent* handled = FindSpan(events, "net.handle_compile");
  const obs::TraceEvent* hop = FindSpan(events, "net.forward");
  const obs::TraceEvent* compile = FindSpan(events, "serve.compile");
  ASSERT_NE(handled, nullptr);
  ASSERT_NE(hop, nullptr);
  ASSERT_NE(compile, nullptr);

  // The failed hop and the local solve both belong to the client's flow.
  EXPECT_EQ(handled->trace_id, request.trace_id);
  EXPECT_EQ(hop->trace_id, request.trace_id);
  EXPECT_EQ(compile->trace_id, request.trace_id);
  // The degrade is strictly after the hop failed, nested under handling.
  EXPECT_GT(hop->depth, handled->depth);
  EXPECT_LE(hop->start_us + hop->dur_us, compile->start_us);
}

// ── Entry-point contract ─────────────────────────────────────────────────
// The serving contract holds on every entry point: each failure scenario
// below runs through Compile, Submit, a one-request CompileBatch and a
// grouped CompileBatch (two same-size RESPECT requests sharing one
// lock-stepped attempt) and must settle in the same outcome class.

/// Engine that blocks until the test opens its gate — how a test pins the
/// one worker while it fills a lane.
class GateEngine : public engines::SchedulerEngine {
 public:
  static void Reset() {
    const std::lock_guard<std::mutex> lock(Mutex());
    open_ = false;
    entered_ = 0;
  }
  static void Open() {
    {
      const std::lock_guard<std::mutex> lock(Mutex());
      open_ = true;
    }
    Cv().notify_all();
  }
  static void AwaitEntered() {
    std::unique_lock<std::mutex> lock(Mutex());
    Cv().wait(lock, [] { return entered_ > 0; });
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    {
      std::unique_lock<std::mutex> lock(Mutex());
      ++entered_;
      Cv().notify_all();
      Cv().wait(lock, [] { return open_; });
    }
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }

 private:
  static std::mutex& Mutex() {
    static std::mutex mutex;
    return mutex;
  }
  static std::condition_variable& Cv() {
    static std::condition_variable cv;
    return cv;
  }
  static inline bool open_ = false;
  static inline int entered_ = 0;
};

enum class EntryPoint { kCompile, kSubmit, kBatchOfOne, kGroupedBatch };

constexpr std::array<const char*, 4> kEntryPointNames = {
    "Compile", "Submit", "BatchOfOne", "GroupedBatch"};

void PrintTo(EntryPoint entry, std::ostream* os) {
  *os << kEntryPointNames[static_cast<std::size_t>(entry)];
}

std::string EntryPointName(
    const ::testing::TestParamInfo<EntryPoint>& info) {
  return kEntryPointNames[static_cast<std::size_t>(info.param)];
}

/// How a request settled.
enum class Outcome {
  kServed,
  kDegraded,
  kDeadline,
  kOverloaded,
  kInvalidArgument,
  kError
};

class EntryPointContractTest : public ::testing::TestWithParam<EntryPoint> {
 protected:
  void SetUp() override {
    EnsureChaosEngines();
    engines::EngineRegistry& registry = engines::EngineRegistry::Global();
    if (!registry.Contains("Gate")) {
      registry.Register({"Gate", "", "test-only engine blocked on a gate",
                         [](const engines::EngineContext&) {
                           return std::make_unique<GateEngine>();
                         }});
    }
    GateEngine::Reset();
  }

  /// Cold owners the entry point creates for one call.
  [[nodiscard]] std::size_t Owners() const {
    return GetParam() == EntryPoint::kGroupedBatch ? 2 : 1;
  }

  /// A cold RESPECT request on a fresh graph, shaped by `shape`.
  [[nodiscard]] static CompileRequest Request(
      std::uint64_t seed, const CompileRequest& shape = {},
      int num_stages = 4) {
    CompileRequest request = shape;
    request.dag = SampleDag(24, seed);
    request.num_stages = num_stages;
    request.engine = "respect";
    return request;
  }

  /// Sends Request(seed, shape, num_stages) through the entry point under
  /// test (the grouped batch adds a same-size sibling) and classifies the
  /// result.
  Outcome Run(serve::CompileService& service, std::uint64_t seed,
              const CompileRequest& shape = {}, int num_stages = 4) {
    std::vector<CompileRequest> requests = {
        Request(seed, shape, num_stages)};
    if (GetParam() == EntryPoint::kGroupedBatch) {
      requests.push_back(Request(seed + 1000, shape, num_stages));
    }
    try {
      switch (GetParam()) {
        case EntryPoint::kCompile:
          response_ = service.Compile(requests.front());
          break;
        case EntryPoint::kSubmit:
          response_ = service.Submit(requests.front()).WaitResponse();
          break;
        case EntryPoint::kBatchOfOne:
        case EntryPoint::kGroupedBatch:
          response_ = service.CompileBatch(requests).front();
          break;
      }
    } catch (const DeadlineExceeded&) {
      return Outcome::kDeadline;
    } catch (const Overloaded&) {
      return Outcome::kOverloaded;
    } catch (const std::invalid_argument&) {
      return Outcome::kInvalidArgument;
    } catch (...) {
      return Outcome::kError;
    }
    if (response_.result == nullptr) return Outcome::kError;
    return response_.degraded ? Outcome::kDegraded : Outcome::kServed;
  }

  CompileResponse response_;
};

#if defined(RESPECT_FAILPOINTS) && RESPECT_FAILPOINTS

TEST_P(EntryPointContractTest, FailingEngineDegradesToTheFallback) {
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  serve::CompileService service(FastOptions(), svc);
  const ScopedFailpoint fp("engine.solve.RESPECT", "error");
  EXPECT_EQ(Run(service, 201), Outcome::kDegraded);
  EXPECT_EQ(response_.engine_name, "ListScheduling");
  EXPECT_EQ(response_.requested_engine, "RESPECT");
  EXPECT_EQ(service.Metrics().degraded_served, Owners());
}

TEST_P(EntryPointContractTest, BlownBudgetWithoutFallbackIsDeadlineExceeded) {
  serve::CompileService service(FastOptions());
  const ScopedFailpoint fp("engine.solve.RESPECT", "delay(50)");
  EXPECT_EQ(Run(service, 211, {.solve_budget_seconds = 0.01}),
            Outcome::kDeadline);
  const auto metrics = service.Metrics();
  EXPECT_GE(metrics.budget_blown, 1u);
  EXPECT_EQ(metrics.fallback_exhausted, Owners());
}

TEST_P(EntryPointContractTest, OpenBreakerShortCircuitsToTheFallback) {
  serve::ServiceOptions svc;
  svc.fallback_chain = {"list"};
  svc.breaker_failure_threshold = 1;  // opens on the first failure
  svc.breaker_open_seconds = 1000.0;
  serve::CompileService service(FastOptions(), svc);
  {
    const ScopedFailpoint fp("engine.solve.RESPECT", "error");
    (void)service.Compile(Request(221));
  }
  ASSERT_EQ(service.Metrics().breakers.at("RESPECT").state, "open");

  EXPECT_EQ(Run(service, 222), Outcome::kDegraded);
  EXPECT_EQ(response_.engine_name, "ListScheduling");
  EXPECT_GE(service.Metrics().breakers.at("RESPECT").short_circuits, 1u);
}

#endif  // RESPECT_FAILPOINTS

TEST_P(EntryPointContractTest, ExpiredDeadlineIsDeadlineExceeded) {
  serve::CompileService service(FastOptions());
  EXPECT_EQ(Run(service, 231,
                {.deadline = std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1)}),
            Outcome::kDeadline);
  EXPECT_EQ(service.Metrics().misses, 0u);  // never reached a solve
}

TEST_P(EntryPointContractTest, NonPositiveStageCountIsRejectedAtAdmission) {
  serve::CompileService service(FastOptions());
  EXPECT_EQ(Run(service, 235, {}, /*num_stages=*/0),
            Outcome::kInvalidArgument);
  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.misses, 0u);  // never reached a flight
  EXPECT_TRUE(metrics.breakers.empty());
}

TEST_P(EntryPointContractTest, PeerHookIsAskedOncePerColdOwner) {
  serve::CompileService service(FastOptions());
  std::atomic<int> fetches{0};
  service.SetPeerFetch([&fetches](const graph::CanonicalHash&) {
    fetches.fetch_add(1);
    return std::string();  // clean peer miss: solve locally
  });
  EXPECT_EQ(Run(service, 241), Outcome::kServed);
  EXPECT_EQ(static_cast<std::size_t>(fetches.load()), Owners());
  auto metrics = service.Metrics();
  EXPECT_EQ(metrics.peer_fetches, Owners());
  EXPECT_EQ(metrics.peer_fetch_failures, 0u);
  EXPECT_EQ(metrics.batch_groups,
            GetParam() == EntryPoint::kGroupedBatch ? 1u : 0u);

  // A dead peer: the hook throws, and every cold owner still solves
  // locally.
  service.SetPeerFetch([](const graph::CanonicalHash&) -> std::string {
    throw std::runtime_error("peer connection refused");
  });
  EXPECT_EQ(Run(service, 242), Outcome::kServed);
  metrics = service.Metrics();
  EXPECT_EQ(metrics.peer_fetches, 2 * Owners());
  EXPECT_EQ(metrics.peer_fetch_failures, Owners());
  service.SetPeerFetch(nullptr);
}

TEST_P(EntryPointContractTest, FullLaneShedsQueuedEntryPoints) {
  serve::ServiceOptions svc;
  svc.num_threads = 1;
  svc.max_lane_depth = 1;
  serve::CompileService service(FastOptions(), svc);

  // Pin the only worker, then fill the one-deep normal lane behind it.
  auto pinned = service.Submit(CompileRequest{
      .dag = SampleDag(24, 251), .num_stages = 4, .engine = "Gate"});
  GateEngine::AwaitEntered();
  auto queued = service.Submit(CompileRequest{
      .dag = SampleDag(24, 252), .num_stages = 4, .engine = "Gate"});

  // Run on a side thread: an entry point that queued instead of shedding
  // would wait behind the gate.
  auto outcome =
      std::async(std::launch::async, [&] { return Run(service, 253); });
  const bool settled = outcome.wait_for(std::chrono::seconds(5)) ==
                       std::future_status::ready;
  GateEngine::Open();
  const Outcome got = outcome.get();
  (void)pinned.Wait();
  (void)queued.Wait();

  if (GetParam() == EntryPoint::kCompile) {
    EXPECT_EQ(got, Outcome::kServed);  // the caller's thread never queues
    return;
  }
  EXPECT_TRUE(settled);
  EXPECT_EQ(got, Outcome::kOverloaded);
  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.shed, Owners());
  EXPECT_EQ(metrics.lanes[static_cast<std::size_t>(Priority::kNormal)].shed,
            Owners());
}

INSTANTIATE_TEST_SUITE_P(EveryEntryPoint, EntryPointContractTest,
                         ::testing::Values(EntryPoint::kCompile,
                                           EntryPoint::kSubmit,
                                           EntryPoint::kBatchOfOne,
                                           EntryPoint::kGroupedBatch),
                         EntryPointName);

}  // namespace
}  // namespace respect
