// CompileService correctness over the CompileRequest/CompileResponse API:
// content-addressed hits must be bit-identical to cold solves for every
// registered engine, ReplaceRl must invalidate exactly the RL-dependent
// entries, single-flight must collapse N concurrent identical requests into
// one engine solve, priority lanes must let interactive requests overtake
// queued batch work, and deadlines must fail fast with DeadlineExceeded
// before a solve ever runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <locale>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/respect.h"
#include "engines/builtin.h"
#include "engines/registry.h"
#include "graph/canonical_hash.h"
#include "graph/sampler.h"
#include "graph/serialize.h"
#include "models/zoo.h"
#include "obs/registry.h"
#include "serve/compile_service.h"
#include "serve/request.h"

namespace respect {
namespace {

using serve::CachePolicy;
using serve::CacheOutcome;
using serve::CompileRequest;
using serve::CompileResponse;
using serve::DeadlineExceeded;
using serve::Priority;

CompilerOptions FastOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 12;
  options.exact_max_expansions = 200'000;
  // Expansion-capped only: a live wall-clock limit would make exact solves
  // depend on CPU contention, breaking the hit==cold-solve assertions.
  options.exact_time_limit_seconds = 0.0;
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

graph::Dag SampleDag(int nodes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return graph::SampleTrainingDag(nodes, rng);
}

/// Canonical names of the built-in engines, read off a private registry so
/// engines this binary registers at runtime stay out.
std::vector<std::string> BuiltinEngineNames() {
  engines::EngineRegistry builtins;
  engines::RegisterBuiltinEngines(builtins);
  return builtins.Names();
}

/// A service counter read through the registry: a misspelt series throws
/// instead of reading 0.
std::uint64_t Count(const serve::CompileService& service,
                    std::string_view name, obs::Label label = {}) {
  return service.MetricsRegistry().FindCounter(name, label).load();
}

obs::Label Lane(Priority priority) {
  return {"lane", serve::PriorityName(priority)};
}

const obs::Histogram& LaneWait(const serve::CompileService& service,
                               Priority priority) {
  return service.MetricsRegistry().FindHistogram(
      "respect_serve_lane_wait_seconds", Lane(priority));
}

/// Requests routed to `priority`'s lane and not yet started, expired or
/// shed.
std::uint64_t LaneDepth(const serve::CompileService& service,
                        Priority priority) {
  return Count(service, "respect_serve_lane_enqueued_total", Lane(priority)) -
         Count(service, "respect_serve_lane_started_total", Lane(priority)) -
         Count(service, "respect_serve_lane_expired_total", Lane(priority)) -
         Count(service, "respect_serve_lane_shed_total", Lane(priority));
}

/// Shorthand for the common synchronous request shape.
CompileResponse Ask(serve::CompileService& service, const graph::Dag& dag,
                    int num_stages, std::string engine,
                    CachePolicy policy = CachePolicy::kUse) {
  return service.Compile(CompileRequest{.dag = dag,
                                        .num_stages = num_stages,
                                        .engine = std::move(engine),
                                        .cache_policy = policy});
}

/// Everything deterministic about a CompileResult (solve_seconds is wall
/// clock and deliberately excluded).
void ExpectSameResult(const CompileResult& a, const CompileResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.schedule.num_stages, b.schedule.num_stages) << label;
  EXPECT_EQ(a.schedule.stage, b.schedule.stage) << label;
  EXPECT_EQ(a.peak_stage_param_bytes, b.peak_stage_param_bytes) << label;
  EXPECT_EQ(a.proved_optimal, b.proved_optimal) << label;
  ASSERT_EQ(a.package.segments.size(), b.package.segments.size()) << label;
  for (std::size_t s = 0; s < a.package.segments.size(); ++s) {
    EXPECT_EQ(a.package.segments[s].ops, b.package.segments[s].ops)
        << label << " stage " << s;
    EXPECT_EQ(a.package.segments[s].param_bytes,
              b.package.segments[s].param_bytes)
        << label << " stage " << s;
  }
}

TEST(CanonicalHashTest, EqualContentHashesEqual) {
  const graph::Dag a = SampleDag(24, 5);
  const graph::Dag b = SampleDag(24, 5);  // same seed, same content
  EXPECT_EQ(graph::HashDag(a), graph::HashDag(b));
  EXPECT_EQ(graph::HashDag(a).ToHex().size(), 32u);
}

TEST(CanonicalHashTest, ContentChangesChangeTheHash) {
  const graph::Dag base = SampleDag(24, 5);
  const graph::CanonicalHash h = graph::HashDag(base);

  graph::Dag renamed = base;
  renamed.SetName("something-else");
  EXPECT_NE(graph::HashDag(renamed), h);

  graph::Dag reattributed = base;
  reattributed.MutableAttr(3).param_bytes += 1;
  EXPECT_NE(graph::HashDag(reattributed), h);

  graph::Dag other = SampleDag(24, 6);
  EXPECT_NE(graph::HashDag(other), h);
}

TEST(CanonicalHashTest, HasherIsStreamingForBytesOnly) {
  graph::CanonicalHasher one;
  one.Update("abc");
  graph::CanonicalHasher split;
  split.Update("ab");
  split.Update("c");
  EXPECT_EQ(one.Finish(), split.Finish());

  graph::CanonicalHasher number;
  number.Update(std::uint64_t{0x616263});  // fixed-width, != the text "abc"
  EXPECT_NE(number.Finish(), one.Finish());
}

/// A small hand-built graph covering what the key text must spell
/// exactly: names with spaces, an empty name, INT64_MAX/INT64_MIN and
/// negative attributes, several edges.
graph::Dag KeyStreamEdgeCaseDag() {
  graph::Dag dag("golden model v1");
  dag.AddNode({.name = "conv 1 / branch a",
               .type = graph::OpType::kConv2D,
               .param_bytes = std::numeric_limits<std::int64_t>::max(),
               .macs = 1234567});
  dag.AddNode({.name = "", .type = graph::OpType::kRelu});
  dag.AddNode(
      {.name = "sum", .type = graph::OpType::kAdd, .output_bytes = 4096});
  // AddNode refuses negative attributes; the text must spell them anyway.
  dag.MutableAttr(0).output_bytes = -1;
  dag.MutableAttr(1).param_bytes = std::numeric_limits<std::int64_t>::min();
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 2);
  return dag;
}

graph::CanonicalHash HashOfWrittenText(const graph::Dag& dag) {
  std::ostringstream text;
  graph::WriteDag(dag, text);
  graph::CanonicalHasher hasher;
  hasher.Update(text.str());
  return hasher.Finish();
}

TEST(CanonicalHashTest, DigestIsTheHashOfTheWrittenText) {
  std::vector<graph::Dag> dags = {graph::Dag(), graph::Dag(""),
                                  graph::Dag("name with  spaces "),
                                  KeyStreamEdgeCaseDag()};
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    dags.push_back(SampleDag(8 + static_cast<int>(seed), seed));
  }
  for (const models::ModelName model : models::TableIModels()) {
    dags.push_back(models::BuildModel(model));
  }
  for (const graph::Dag& dag : dags) {
    EXPECT_EQ(graph::HashDag(dag), HashOfWrittenText(dag)) << dag.Name();
  }
}

TEST(CanonicalHashTest, GoldenDigestPinsTheKeyStream) {
  // Every cache key and spill file name folds this digest in: a change to
  // the serialized text orphans every existing spill directory, so it must
  // fail here first.
  EXPECT_EQ(graph::HashDag(KeyStreamEdgeCaseDag()).ToHex(),
            "983b093f27d39d2418b46f16ef9a9ab5");
}

/// Groups thousands with ',' — what a process-wide user locale may do.
class ThousandsGrouping : public std::numpunct<char> {
 protected:
  [[nodiscard]] char do_thousands_sep() const override { return ','; }
  [[nodiscard]] std::string do_grouping() const override { return "\3"; }
};

TEST(CanonicalHashTest, DigestAndTextIgnoreTheGlobalLocale) {
  const graph::Dag dag = SampleDag(24, 5);
  const graph::CanonicalHash classic_hash = graph::HashDag(dag);
  std::ostringstream classic_text;
  graph::WriteDag(dag, classic_text);

  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new ThousandsGrouping));
  const graph::CanonicalHash grouped_hash = graph::HashDag(dag);
  std::ostringstream grouped_text;  // imbued with the grouping locale
  graph::WriteDag(dag, grouped_text);
  std::locale::global(previous);

  EXPECT_EQ(grouped_hash, classic_hash);
  EXPECT_EQ(grouped_text.str(), classic_text.str());
}

TEST(EngineResolveTest, ResolvesAliasAndNameToOneRegistration) {
  const engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  const engines::EngineRegistration& by_name = registry.Resolve("Annealing");
  EXPECT_EQ(&registry.Resolve("anneal"), &by_name);
  EXPECT_THROW((void)registry.Resolve("NoSuchEngine"), std::invalid_argument);
  EXPECT_THROW((void)registry.Resolve(""), std::invalid_argument);
}

TEST(CompileServiceTest, CacheHitMatchesColdSolveForEveryBuiltinEngine) {
  serve::CompileService service(FastOptions());
  PipelineCompiler cold(FastOptions());
  const graph::Dag dag = SampleDag(24, 7);

  const std::vector<std::string> builtins = BuiltinEngineNames();
  for (const std::string& name : builtins) {
    const CompileResponse first = Ask(service, dag, 4, name);
    const CompileResponse second = Ask(service, dag, 4, name);
    // Pointer equality proves the second answer came from the cache.
    EXPECT_EQ(first.result, second.result) << name;
    EXPECT_EQ(first.outcome, CacheOutcome::kMiss) << name;
    EXPECT_EQ(second.outcome, CacheOutcome::kHit) << name;
    EXPECT_GT(first.solve_seconds, 0.0) << name;
    EXPECT_EQ(second.solve_seconds, 0.0) << name;
    EXPECT_EQ(first.engine_name, name);
    EXPECT_EQ(first.key_hex.size(), 32u);
    EXPECT_EQ(first.key_hex, second.key_hex);
    ExpectSameResult(*first.result, cold.Compile(dag, 4, name), name);
  }
  const serve::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), builtins.size());
  EXPECT_EQ(Count(service, "respect_serve_hits_total"), builtins.size());
  EXPECT_EQ(metrics.cache_size, builtins.size());
}

TEST(CompileServiceTest, AliasAndNameShareOneEntry) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(20, 9);
  const CompileResponse by_alias = Ask(service, dag, 4, "anneal");
  const CompileResponse by_name = Ask(service, dag, 4, "Annealing");
  EXPECT_EQ(by_alias.result, by_name.result);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 1u);
  EXPECT_EQ(Count(service, "respect_serve_hits_total"), 1u);
}

TEST(CompileServiceTest, KeyCoversStagesAndGraphContent) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(20, 11);
  (void)Ask(service, dag, 4, "list");
  (void)Ask(service, dag, 5, "list");  // different stage count
  graph::Dag renamed = dag;
  renamed.SetName("renamed");  // name flows into the package -> own entry
  (void)Ask(service, renamed, 4, "list");
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 3u);
  EXPECT_EQ(Count(service, "respect_serve_hits_total"), 0u);
}

TEST(PriorityTest, ParsePriorityRoundTripsEveryLaneName) {
  for (const Priority priority :
       {Priority::kInteractive, Priority::kNormal, Priority::kBatch}) {
    const auto parsed = serve::ParsePriority(serve::PriorityName(priority));
    ASSERT_TRUE(parsed.has_value()) << serve::PriorityName(priority);
    EXPECT_EQ(*parsed, priority);
  }
  EXPECT_FALSE(serve::ParsePriority("urgent").has_value());
  EXPECT_FALSE(serve::ParsePriority("").has_value());
  EXPECT_FALSE(serve::ParsePriority("Interactive").has_value());  // exact case
}

// ── Device profiles in the serving key ───────────────────────────────────

TEST(CompileServiceProfileTest, ProfilesSeparateCacheEntriesPerFleet) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(24, 77);
  const auto ask = [&](const std::string& profile) {
    return service.Compile(CompileRequest{.dag = dag,
                                          .num_stages = 4,
                                          .engine = "greedy",
                                          .profile = profile});
  };

  // "" and the default preset's name are the same key: both resolve to the
  // default profile, and a fingerprint covers the hardware, not the name.
  const CompileResponse unnamed = ask("");
  const CompileResponse named_default = ask("coral");
  EXPECT_EQ(named_default.result, unnamed.result);
  EXPECT_EQ(named_default.key_hex, unnamed.key_hex);
  EXPECT_EQ(named_default.outcome, CacheOutcome::kHit);

  // Each non-default fleet gets its own entry for the same DAG/engine.
  const CompileResponse fast = ask("coral-x2fast");
  const CompileResponse usb2 = ask("coral-usb2");
  EXPECT_NE(fast.key_hex, unnamed.key_hex);
  EXPECT_NE(usb2.key_hex, unnamed.key_hex);
  EXPECT_NE(fast.key_hex, usb2.key_hex);
  EXPECT_EQ(fast.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 3u);

  // And each is warm on repeat.
  EXPECT_EQ(ask("coral-x2fast").result, fast.result);
}

TEST(CompileServiceProfileTest, UnknownProfileFailsBeforeTouchingTheCache) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(10, 79);
  EXPECT_THROW((void)service.Compile(CompileRequest{.dag = dag,
                                                    .num_stages = 2,
                                                    .engine = "greedy",
                                                    .profile = "no-such-fleet"}),
               std::invalid_argument);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 0u);
  EXPECT_EQ(Count(service, "respect_serve_failures_total"), 0u);
}

// ── Per-tenant accounting ────────────────────────────────────────────────

TEST(CompileServiceTenantTest, MetricsCountWorkPerTenant) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.tenant_weights = {{"alpha", 1.0}, {"beta", 1.0}};
  serve::CompileService service(FastOptions(), options);

  const graph::Dag a = SampleDag(20, 83);
  const graph::Dag b = SampleDag(20, 85);
  const graph::Dag c = SampleDag(20, 87);
  const auto submit = [&](const graph::Dag& dag, const std::string& tenant) {
    return service.Submit(CompileRequest{.dag = dag,
                                         .num_stages = 4,
                                         .engine = "greedy",
                                         .tenant = tenant});
  };
  auto t0 = submit(a, "alpha");
  auto t1 = submit(b, "alpha");
  auto t2 = submit(c, "beta");
  (void)t0.Wait();
  (void)t1.Wait();
  (void)t2.Wait();

  // Tenant-labelled series; FindCounter throws on a tenant never named.
  const obs::Label alpha{"tenant", "alpha"};
  const obs::Label beta{"tenant", "beta"};
  EXPECT_EQ(Count(service, "respect_serve_tenant_enqueued_total", alpha), 2u);
  EXPECT_EQ(Count(service, "respect_serve_tenant_started_total", alpha), 2u);
  EXPECT_EQ(Count(service, "respect_serve_tenant_expired_total", alpha), 0u);
  EXPECT_EQ(Count(service, "respect_serve_tenant_enqueued_total", beta), 1u);
  EXPECT_EQ(Count(service, "respect_serve_tenant_started_total", beta), 1u);
  // Untagged work stays under the default ("") tenant.
  EXPECT_EQ(Count(service, "respect_serve_tenant_enqueued_total",
                  {"tenant", ""}),
            0u);
  EXPECT_THROW((void)Count(service, "respect_serve_tenant_enqueued_total",
                           {"tenant", "gamma"}),
               std::out_of_range);
}

TEST(CompileServiceTenantTest, UnnamedTenantsShareTheOverflowSeries) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::CompileService service(FastOptions(), options);
  const graph::Dag dag = SampleDag(10, 89);
  const auto submit = [&](int tenant) {
    return service.Submit(CompileRequest{.dag = dag,
                                         .num_stages = 2,
                                         .engine = "list",
                                         .tenant = "t" +
                                                   std::to_string(tenant)});
  };
  const auto page_lines = [&service] {
    std::ostringstream page;
    service.MetricsRegistry().RenderPrometheus(page);
    const std::string text = std::move(page).str();
    return std::count(text.begin(), text.end(), '\n');
  };

  (void)submit(0).Wait();
  const auto lines_after_one = page_lines();
  std::vector<serve::CompileService::Ticket> tickets;
  constexpr int kTenants = 10'000;
  tickets.reserve(kTenants - 1);
  for (int t = 1; t < kTenants; ++t) tickets.push_back(submit(t));
  for (const auto& ticket : tickets) (void)ticket.Wait();

  // Tenant ids are remote input on a fleet shard: cycling them must not
  // grow the page.  Their work is counted, under the overflow label.
  EXPECT_EQ(page_lines(), lines_after_one);
  const obs::Label overflow{"tenant", serve::kOverflowTenant};
  EXPECT_EQ(Count(service, "respect_serve_tenant_enqueued_total", overflow),
            static_cast<std::uint64_t>(kTenants));
  EXPECT_EQ(Count(service, "respect_serve_tenant_started_total", overflow),
            static_cast<std::uint64_t>(kTenants));
  EXPECT_THROW((void)Count(service, "respect_serve_tenant_enqueued_total",
                           {"tenant", "t1"}),
               std::out_of_range);

  // The overflow label cannot also name a tenant.
  serve::ServiceOptions reserved;
  reserved.tenant_weights = {{std::string(serve::kOverflowTenant), 2.0}};
  EXPECT_THROW(serve::CompileService(FastOptions(), reserved),
               std::invalid_argument);
}

TEST(CompileServiceTest, ReplaceRlInvalidatesOnlyRlEntries) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(24, 13);

  EXPECT_EQ(service.Compiler().RlVersion(), 0u);
  const CompileResponse rl_before = Ask(service, dag, 4, "RESPECT");
  const CompileResponse list_before =
      Ask(service, dag, 4, "ListScheduling");
  const CompileResponse ilp_before = Ask(service, dag, 4, "ExactILP");

  service.ReplaceRl(std::make_shared<rl::RlScheduler>(FastOptions().net));
  EXPECT_EQ(service.Compiler().RlVersion(), 1u);
  EXPECT_EQ(service.Metrics().invalidations, 1u);

  // Deterministic engines stay warm (same shared object), the RL entry is
  // recomputed (fresh object, one extra miss).
  EXPECT_EQ(Ask(service, dag, 4, "ListScheduling").result,
            list_before.result);
  EXPECT_EQ(Ask(service, dag, 4, "ExactILP").result,
            ilp_before.result);
  const CompileResponse rl_after = Ask(service, dag, 4, "RESPECT");
  EXPECT_NE(rl_after.result, rl_before.result);
  EXPECT_NE(rl_after.key_hex, rl_before.key_hex);  // version is in the key
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 4u);
  EXPECT_EQ(Count(service, "respect_serve_hits_total"), 2u);

  // A null swap resets to the configured weights and still versions.
  service.ReplaceRl(nullptr);
  EXPECT_EQ(service.Compiler().RlVersion(), 2u);
  EXPECT_EQ(service.Metrics().invalidations, 2u);
}

TEST(CompileServiceTest, CachePolicyBypassAndRefresh) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(20, 15);

  // Bypass solves fresh and leaves the cache empty behind it.
  const CompileResponse bypass = Ask(service, dag, 4, "list",
                                     CachePolicy::kBypass);
  EXPECT_EQ(bypass.outcome, CacheOutcome::kBypass);
  EXPECT_GT(bypass.solve_seconds, 0.0);
  EXPECT_EQ(service.Metrics().cache_size, 0u);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 0u);
  EXPECT_EQ(Count(service, "respect_serve_bypasses_total"), 1u);

  // Populate, then refresh: a fresh result object replaces the entry.
  const CompileResponse cold = Ask(service, dag, 4, "list");
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  const CompileResponse refreshed = Ask(service, dag, 4, "list",
                                        CachePolicy::kRefresh);
  EXPECT_EQ(refreshed.outcome, CacheOutcome::kRefresh);
  EXPECT_NE(refreshed.result, cold.result);  // fresh object
  EXPECT_EQ(Count(service, "respect_serve_refreshes_total"), 1u);
  ExpectSameResult(*refreshed.result, *cold.result, "refresh determinism");

  // The refreshed object now answers hits.
  const CompileResponse warm = Ask(service, dag, 4, "list");
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.result, refreshed.result);
  EXPECT_EQ(service.Metrics().cache_size, 1u);
}

/// Counts engine solves so the single-flight test can assert exactly one
/// happened; sleeps long enough that concurrent requests really overlap.
class CountingSlowEngine : public engines::SchedulerEngine {
 public:
  static std::atomic<int>& Solves() {
    static std::atomic<int> solves{0};
    return solves;
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    Solves().fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

TEST(CompileServiceTest, SingleFlightCollapsesConcurrentIdenticalRequests) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("CountingSlow")) {
    registry.Register({"CountingSlow", "", "test-only counting engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<CountingSlowEngine>();
                       }});
  }
  CountingSlowEngine::Solves().store(0);

  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(20, 17);
  constexpr int kRequests = 8;

  std::vector<CompileResponse> responses(kRequests);
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      responses[i] = Ask(service, dag, 4, "CountingSlow");
    });
  }
  for (std::thread& t : threads) t.join();

  // One engine solve total; whether a given request collapsed onto the
  // in-flight solve or arrived after it cached, it shares the one result.
  EXPECT_EQ(CountingSlowEngine::Solves().load(), 1);
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(responses[i].result, responses[0].result);
    EXPECT_TRUE(responses[i].outcome == CacheOutcome::kHit ||
                responses[i].outcome == CacheOutcome::kCollapsed ||
                responses[i].outcome == CacheOutcome::kMiss);
  }
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 1u);
  EXPECT_EQ(Count(service, "respect_serve_hits_total") +
                Count(service, "respect_serve_single_flight_waits_total"),
            kRequests - 1u);
}

TEST(CompileServiceTest, LruEvictionRespectsCapacity) {
  serve::ServiceOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  serve::CompileService service(FastOptions(), options);

  const graph::Dag a = SampleDag(20, 19);
  const graph::Dag b = SampleDag(20, 21);
  const graph::Dag c = SampleDag(20, 23);
  (void)Ask(service, a, 4, "list");
  (void)Ask(service, b, 4, "list");
  (void)Ask(service, c, 4, "list");  // evicts a (least recently used)
  EXPECT_EQ(service.Metrics().evictions, 1u);
  EXPECT_EQ(service.Metrics().cache_size, 2u);

  (void)Ask(service, a, 4, "list");  // cold again
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 4u);
  EXPECT_EQ(Count(service, "respect_serve_hits_total"), 0u);
}

TEST(CompileServiceTest, SubmitWaitSharesTheSyncCache) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::CompileService service(FastOptions(), options);
  const graph::Dag dag = SampleDag(24, 25);

  auto ticket_a = service.Submit(
      CompileRequest{.dag = dag, .num_stages = 4, .engine = "greedy"});
  auto ticket_b = service.Submit(
      CompileRequest{.dag = dag, .num_stages = 4, .engine = "GreedyBalance"});
  const CompileResponse& async_a = ticket_a.WaitResponse();
  const CompileResponse& async_b = ticket_b.WaitResponse();
  EXPECT_EQ(async_a.result, async_b.result);
  EXPECT_GE(async_a.queue_wait_seconds, 0.0);
  // The sync path hits the entry the async path populated.
  EXPECT_EQ(Ask(service, dag, 4, "GreedyBalance").result,
            async_a.result);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 1u);

  auto bad = service.Submit(
      CompileRequest{.dag = dag, .num_stages = 4, .engine = "NoSuchEngine"});
  EXPECT_THROW((void)bad.Wait(), std::invalid_argument);
  EXPECT_THROW((void)bad.Wait(), std::invalid_argument);  // repeatable

  // A ticket that never held a request reports no_state, not UB.
  const serve::CompileService::Ticket empty;
  EXPECT_FALSE(empty.Valid());
  EXPECT_THROW((void)empty.Wait(), std::future_error);
}

TEST(CompileServiceTest, FailedSolvesPropagateAndAreNotCached) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(10, 27);
  // 10 nodes cannot fill 64 stages; the solve must fail both times (no
  // negative caching) and the failure must not poison later requests.
  EXPECT_THROW((void)Ask(service, dag, 64, "greedy"), std::exception);
  EXPECT_THROW((void)Ask(service, dag, 64, "greedy"), std::exception);
  const serve::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(Count(service, "respect_serve_failures_total"), 2u);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 2u);
  EXPECT_EQ(metrics.cache_size, 0u);

  EXPECT_NE(Ask(service, dag, 2, "greedy").result, nullptr);
}

TEST(CompileServiceTest, MetricsReportSolveLatencyPercentiles) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(24, 29);
  for (int stages = 2; stages <= 5; ++stages) {
    (void)Ask(service, dag, stages, "list");
  }
  const obs::Histogram& solve =
      service.MetricsRegistry().FindHistogram("respect_serve_solve_seconds");
  EXPECT_GT(solve.Quantile(0.5), 0.0);
  EXPECT_GE(solve.Quantile(0.99), solve.Quantile(0.5));
}

TEST(CompileServiceTest, LaneWaitHistogramsCountEveryStartedRequest) {
  // Every cold solve lands in the solve histogram and every started queued
  // request in its lane's wait histogram — the series the Prometheus page
  // renders.
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(24, 29);
  for (int stages = 2; stages <= 4; ++stages) {
    (void)Ask(service, dag, stages, "list");
  }
  std::vector<serve::CompileService::Ticket> tickets;
  const Priority priorities[] = {Priority::kInteractive, Priority::kNormal,
                                 Priority::kBatch, Priority::kBatch};
  int stages = 2;
  for (const Priority priority : priorities) {
    tickets.push_back(service.Submit(CompileRequest{.dag = SampleDag(20, 31),
                                                    .num_stages = stages++,
                                                    .engine = "list",
                                                    .priority = priority}));
  }
  for (const auto& ticket : tickets) (void)ticket.Wait();

  const obs::Histogram& solve =
      service.MetricsRegistry().FindHistogram("respect_serve_solve_seconds");
  EXPECT_EQ(solve.Count(), 7u);
  EXPECT_GT(solve.Quantile(0.5), 0.0);
  EXPECT_GE(solve.Quantile(0.99), solve.Quantile(0.5));
  std::uint64_t started = 0;
  for (std::size_t lane = 0; lane < serve::kNumPriorityLanes; ++lane) {
    const auto priority = static_cast<Priority>(lane);
    const std::uint64_t lane_started =
        Count(service, "respect_serve_lane_started_total", Lane(priority));
    const obs::Histogram& wait = LaneWait(service, priority);
    EXPECT_EQ(wait.Count(), lane_started) << serve::PriorityName(priority);
    EXPECT_GT(wait.Quantile(0.5), 0.0) << serve::PriorityName(priority);
    EXPECT_GE(wait.Quantile(0.99), wait.Quantile(0.5))
        << serve::PriorityName(priority);
    started += lane_started;
  }
  EXPECT_EQ(started, 4u);
}

TEST(CompileServiceTest, CompileBatchPopulatesAndHitsTheSharedCache) {
  serve::ServiceOptions options;
  // One pool thread makes the duplicate-collapse accounting deterministic:
  // the owner's insert always lands before the duplicate's task runs, so 2
  // unique graphs cost exactly 2 cold solves.  (With more threads the
  // collapse is via single-flight and the split between hits and waits —
  // and, under adverse scheduling, even the miss count — depends on
  // timing; SingleFlightCollapsesConcurrentIdenticalRequests covers the
  // concurrent case.)
  options.num_threads = 1;
  serve::CompileService service(FastOptions(), options);

  const graph::Dag a = SampleDag(24, 33);
  const graph::Dag b = SampleDag(24, 35);
  const auto batch_of = [](std::span<const graph::Dag* const> dags,
                           int num_stages, const std::string& engine) {
    std::vector<CompileRequest> requests;
    for (const graph::Dag* dag : dags) {
      requests.push_back(CompileRequest{.dag = *dag,
                                        .num_stages = num_stages,
                                        .engine = engine,
                                        .priority = Priority::kBatch});
    }
    return requests;
  };

  const std::vector<const graph::Dag*> batch = {&a, &b, &a, &b, &a};
  const auto responses = service.CompileBatch(batch_of(batch, 4, "list"));
  ASSERT_EQ(responses.size(), batch.size());
  for (const auto& response : responses) ASSERT_NE(response.result, nullptr);
  EXPECT_EQ(responses[0].result, responses[2].result);  // shared cache entry
  EXPECT_EQ(responses[0].result, responses[4].result);
  EXPECT_EQ(responses[1].result, responses[3].result);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 2u);

  // Batch results equal the sync path's, and a repeat batch is all-warm.
  EXPECT_EQ(Ask(service, a, 4, "list").result, responses[0].result);
  const auto warm =
      service.CompileBatch(batch_of(batch, 4, "ListScheduling"));
  EXPECT_EQ(warm[0].result, responses[0].result);
  EXPECT_EQ(warm[1].result, responses[1].result);
  for (const auto& response : warm) {
    EXPECT_EQ(response.outcome, CacheOutcome::kHit);
  }
  // Still only the two cold solves.
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 2u);

  // Partial failure: at 16 stages `tiny` (10 nodes) cannot fill the
  // pipeline and fails, while `a` (24 nodes) solves fine.  The batch
  // rethrows after every flight finishes, the good graph's result is
  // cached, and the failure is not.
  const graph::Dag tiny = SampleDag(10, 37);
  const std::vector<const graph::Dag*> mixed = {&a, &tiny};
  EXPECT_THROW((void)service.CompileBatch(batch_of(mixed, 16, "greedy")),
               std::exception);
  const auto misses_after_mixed = Count(service, "respect_serve_misses_total");
  EXPECT_NE(Ask(service, a, 16, "greedy").result, nullptr);  // warm hit
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), misses_after_mixed);
  EXPECT_THROW((void)Ask(service, tiny, 16, "greedy"),  // retried cold
               std::exception);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"),
            misses_after_mixed + 1);
}

TEST(CompileServiceBatchDecodeTest, GroupedMissStormSolvesBatchedAndMatchesSync) {
  serve::CompileService service(FastOptions());
  PipelineCompiler reference(FastOptions());

  // Four same-size cold graphs plus one duplicate → ONE group task: the
  // four unique keys lock-step through a single batched decode and the
  // duplicate collapses onto the first one's flight.
  const graph::Dag g0 = SampleDag(30, 101);
  const graph::Dag g1 = SampleDag(30, 102);
  const graph::Dag g2 = SampleDag(30, 103);
  const graph::Dag g3 = SampleDag(30, 104);
  std::vector<CompileRequest> requests;
  for (const graph::Dag* dag : {&g0, &g1, &g2, &g3, &g0}) {
    requests.push_back(
        CompileRequest{.dag = *dag, .num_stages = 4, .engine = "respect"});
  }

  const auto responses = service.CompileBatch(requests);
  ASSERT_EQ(responses.size(), 5u);
  serve::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 4u);
  EXPECT_EQ(metrics.batch_solved, 4u);
  EXPECT_EQ(metrics.batch_groups, 1u);
  EXPECT_EQ(metrics.batch_single, 0u);
  EXPECT_EQ(Count(service, "respect_serve_single_flight_waits_total"), 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].outcome, CacheOutcome::kMiss) << i;
    EXPECT_GT(responses[i].solve_seconds, 0.0) << i;
  }
  EXPECT_EQ(responses[4].outcome, CacheOutcome::kCollapsed);
  EXPECT_EQ(responses[4].result, responses[0].result);

  // The scalar batch decode is bit-identical to the sync single-graph path.
  const graph::Dag* const dags[] = {&g0, &g1, &g2, &g3};
  for (int i = 0; i < 4; ++i) {
    ExpectSameResult(*responses[i].result,
                     reference.Compile(*dags[i], 4, "respect"),
                     "batched vs sync graph " + std::to_string(i));
  }

  // Repeat batch: all warm, no new group.
  const auto warm = service.CompileBatch(requests);
  for (const auto& response : warm) {
    EXPECT_EQ(response.outcome, CacheOutcome::kHit);
  }
  EXPECT_EQ(service.Metrics().batch_groups, 1u);

  // The miss storm this path exists for: ReplaceRl cold-starts every RL
  // key, and the refill goes back through one batched group with results
  // identical to the first pass (same configured weights).
  service.ReplaceRl(nullptr);
  const auto refill = service.CompileBatch(requests);
  metrics = service.Metrics();
  EXPECT_EQ(metrics.batch_solved, 8u);
  EXPECT_EQ(metrics.batch_groups, 2u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(refill[i].outcome, CacheOutcome::kMiss) << i;
    ExpectSameResult(*refill[i].result, *responses[i].result,
                     "refill graph " + std::to_string(i));
  }
}

TEST(CompileServiceBatchDecodeTest, StragglersAndNonBatchEnginesSolveSingly) {
  const graph::Dag a = SampleDag(30, 111);
  const graph::Dag b = SampleDag(30, 112);
  const graph::Dag lone = SampleDag(20, 113);
  std::vector<CompileRequest> requests;
  for (const graph::Dag* dag : {&a, &b, &lone}) {
    requests.push_back(
        CompileRequest{.dag = *dag, .num_stages = 4, .engine = "respect"});
  }

  // {30, 30, 20}: the pair lock-steps, the 20-node straggler takes the
  // ordinary async path — still a cold solve, just not a grouped one.
  serve::CompileService service(FastOptions());
  const auto responses = service.CompileBatch(requests);
  for (const auto& response : responses) ASSERT_NE(response.result, nullptr);
  serve::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 3u);
  EXPECT_EQ(metrics.batch_solved, 2u);
  EXPECT_EQ(metrics.batch_groups, 1u);

  // A non-batch engine never groups, whatever the sizes.
  std::vector<CompileRequest> list_requests;
  for (const graph::Dag* dag : {&a, &b}) {
    list_requests.push_back(
        CompileRequest{.dag = *dag, .num_stages = 4, .engine = "list"});
  }
  (void)service.CompileBatch(list_requests);
  EXPECT_EQ(service.Metrics().batch_groups, 1u);  // unchanged
}

TEST(CompileServiceBatchDecodeTest, BatchResponsesReportTheRequestedEngine) {
  serve::CompileService service(FastOptions());
  const graph::Dag a = SampleDag(30, 121);
  const graph::Dag b = SampleDag(30, 122);
  std::vector<CompileRequest> requests;
  for (const graph::Dag* dag : {&a, &b}) {
    requests.push_back(
        CompileRequest{.dag = *dag, .num_stages = 4, .engine = "respect"});
  }

  const auto cold = service.CompileBatch(requests);  // one grouped miss
  EXPECT_EQ(service.Metrics().batch_groups, 1u);
  const auto warm = service.CompileBatch(requests);  // answered in place
  const CompileResponse sync = Ask(service, a, 4, "respect");
  ASSERT_EQ(sync.requested_engine, "RESPECT");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(cold[i].outcome, CacheOutcome::kMiss) << i;
    EXPECT_EQ(warm[i].outcome, CacheOutcome::kHit) << i;
    EXPECT_EQ(cold[i].requested_engine, sync.requested_engine) << i;
    EXPECT_EQ(warm[i].requested_engine, sync.requested_engine) << i;
    EXPECT_EQ(cold[i].engine_name, sync.engine_name) << i;
    EXPECT_EQ(warm[i].key_hex, cold[i].key_hex) << i;
  }
}

TEST(CompileServiceBatchDecodeTest, InvalidGraphFailsOnlyItsOwnFlight) {
  serve::CompileService service(FastOptions());
  const graph::Dag a = SampleDag(30, 131);
  const graph::Dag b = SampleDag(30, 132);
  graph::Dag cyclic = SampleDag(30, 133);
  for (graph::NodeId v = 0; v < cyclic.NodeCount(); ++v) {
    if (!cyclic.Children(v).empty()) {
      cyclic.AddEdge(cyclic.Children(v).front(), v);  // back edge: a cycle
      break;
    }
  }
  ASSERT_FALSE(cyclic.IsAcyclic());
  const graph::Dag& broken = cyclic;
  std::vector<CompileRequest> requests;
  for (const graph::Dag* dag : {&a, &b, &broken}) {
    requests.push_back(
        CompileRequest{.dag = *dag, .num_stages = 4, .engine = "respect"});
  }

  // The cyclic graph fails its own flight; its two siblings still share
  // the lock-stepped attempt and land in the cache.
  EXPECT_THROW((void)service.CompileBatch(requests), std::logic_error);
  const serve::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(Count(service, "respect_serve_failures_total"), 1u);
  EXPECT_EQ(metrics.batch_solved, 2u);
  EXPECT_EQ(Ask(service, b, 4, "respect").outcome, CacheOutcome::kHit);
}

TEST(CompileServiceTest, UnknownEngineThrowsBeforeTouchingTheCache) {
  serve::CompileService service(FastOptions());
  const graph::Dag dag = SampleDag(10, 31);
  EXPECT_THROW((void)Ask(service, dag, 4, "NoSuchEngine"),
               std::invalid_argument);
  EXPECT_THROW((void)Ask(service, dag, 4, ""),
               std::invalid_argument);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 0u);
  EXPECT_EQ(Count(service, "respect_serve_failures_total"), 0u);
}

// ── Queue semantics ──────────────────────────────────────────────────────

/// Records solve order by dag name; dags named "hold-*" block until the
/// test calls Release(), which is how a test pins the single worker while
/// it stacks up queued requests.
class RecordingEngine : public engines::SchedulerEngine {
 public:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> order;
    bool released = false;
  };

  static State& GetState() {
    static State* state = new State();
    return *state;
  }

  static void Reset() {
    State& state = GetState();
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.order.clear();
    state.released = false;
  }

  static void Release() {
    State& state = GetState();
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      state.released = true;
    }
    state.cv.notify_all();
  }

  static std::vector<std::string> Order() {
    State& state = GetState();
    const std::lock_guard<std::mutex> lock(state.mutex);
    return state.order;
  }

  /// Spins until the recorded order reaches `n` entries (the worker is
  /// then inside a solve or past it).
  static void WaitForSolves(std::size_t n) {
    while (Order().size() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    State& state = GetState();
    {
      std::unique_lock<std::mutex> lock(state.mutex);
      state.order.push_back(dag.Name());
      if (dag.Name().rfind("hold", 0) == 0) {
        state.cv.wait(lock, [&] { return state.released; });
      }
    }
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

void EnsureRecordingEngine() {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("Recording")) {
    registry.Register({"Recording", "", "test-only order-recording engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<RecordingEngine>();
                       }});
  }
  RecordingEngine::Reset();
}

graph::Dag NamedDag(std::uint64_t seed, const std::string& name) {
  graph::Dag dag = SampleDag(20, seed);
  dag.SetName(name);
  return dag;
}

CompileRequest QueuedRequest(graph::Dag dag, Priority priority) {
  return CompileRequest{.dag = std::move(dag),
                        .num_stages = 2,
                        .engine = "Recording",
                        .priority = priority};
}

// The acceptance scenario: with the one-worker pool pinned by a running
// solve and batch work already queued, a later-submitted interactive
// request is solved before any of the queued batch requests.
TEST(CompileServiceQueueTest, InteractiveOvertakesQueuedBatchWork) {
  EnsureRecordingEngine();
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.queue_aging_seconds = 3600.0;  // no aging interference
  serve::CompileService service(FastOptions(), options);

  std::vector<serve::CompileService::Ticket> tickets;
  tickets.push_back(service.Submit(
      QueuedRequest(NamedDag(41, "hold-blocker"), Priority::kInteractive)));
  RecordingEngine::WaitForSolves(1);  // worker is pinned inside the blocker

  for (int i = 0; i < 3; ++i) {
    tickets.push_back(service.Submit(QueuedRequest(
        NamedDag(43 + 2 * i, "batch-" + std::to_string(i)),
        Priority::kBatch)));
  }
  tickets.push_back(service.Submit(
      QueuedRequest(NamedDag(51, "interactive"), Priority::kInteractive)));

  RecordingEngine::Release();
  for (const auto& ticket : tickets) (void)ticket.Wait();

  const std::vector<std::string> order = RecordingEngine::Order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "hold-blocker");
  EXPECT_EQ(order[1], "interactive");  // submitted last, ran first
  EXPECT_EQ(order[2], "batch-0");      // batch stays FIFO within its lane
  EXPECT_EQ(order[3], "batch-1");
  EXPECT_EQ(order[4], "batch-2");

  const obs::Label interactive = Lane(Priority::kInteractive);
  const obs::Label batch = Lane(Priority::kBatch);
  EXPECT_EQ(Count(service, "respect_serve_lane_enqueued_total", interactive),
            2u);
  EXPECT_EQ(Count(service, "respect_serve_lane_started_total", interactive),
            2u);
  EXPECT_EQ(Count(service, "respect_serve_lane_enqueued_total", batch), 3u);
  EXPECT_EQ(Count(service, "respect_serve_lane_started_total", batch), 3u);
  EXPECT_EQ(LaneDepth(service, Priority::kBatch), 0u);
  EXPECT_EQ(Count(service, "respect_serve_deadline_expired_total"), 0u);
  const obs::Histogram& batch_wait = LaneWait(service, Priority::kBatch);
  EXPECT_GE(batch_wait.Quantile(0.99), batch_wait.Quantile(0.5));
}

// A request whose deadline passes while it queues fails with
// DeadlineExceeded and never reaches the engine.
TEST(CompileServiceQueueTest, ExpiredDeadlineFailsFastWithoutASolve) {
  EnsureRecordingEngine();
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::CompileService service(FastOptions(), options);

  auto blocker = service.Submit(
      QueuedRequest(NamedDag(61, "hold-blocker"), Priority::kNormal));
  RecordingEngine::WaitForSolves(1);

  CompileRequest doomed =
      QueuedRequest(NamedDag(63, "doomed"), Priority::kInteractive);
  doomed.deadline = serve::DeadlineIn(0.02);
  auto doomed_ticket = service.Submit(std::move(doomed));

  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // let it lapse
  RecordingEngine::Release();

  EXPECT_THROW((void)doomed_ticket.Wait(), DeadlineExceeded);
  (void)blocker.Wait();

  const std::vector<std::string> order = RecordingEngine::Order();
  for (const std::string& name : order) EXPECT_NE(name, "doomed");

  EXPECT_EQ(Count(service, "respect_serve_deadline_expired_total"), 1u);
  const obs::Label interactive = Lane(Priority::kInteractive);
  EXPECT_EQ(Count(service, "respect_serve_lane_expired_total", interactive),
            1u);
  EXPECT_EQ(Count(service, "respect_serve_lane_started_total", interactive),
            0u);
  // An expiry is not a solve failure.
  EXPECT_EQ(Count(service, "respect_serve_failures_total"), 0u);
}

// The synchronous path honors deadlines too: an already-lapsed deadline
// fails before any engine work.
TEST(CompileServiceQueueTest, SyncCompileRejectsLapsedDeadline) {
  EnsureRecordingEngine();
  serve::CompileService service(FastOptions());
  CompileRequest request =
      QueuedRequest(NamedDag(65, "sync-doomed"), Priority::kInteractive);
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_THROW((void)service.Compile(request), DeadlineExceeded);
  EXPECT_TRUE(RecordingEngine::Order().empty());
  EXPECT_EQ(Count(service, "respect_serve_deadline_expired_total"), 1u);
  EXPECT_EQ(Count(service, "respect_serve_misses_total"), 0u);
}

// ServiceOptions::max_batch_inflight: with 2 workers and a batch cap of 1,
// a batch flood holds at most one worker — the second worker stays free,
// so an interactive request submitted behind three queued batch solves
// never waits behind more than the one batch solve the cap admits.
TEST(CompileServiceQueueTest, BatchCapKeepsAWorkerFreeForInteractive) {
  EnsureRecordingEngine();
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.max_batch_inflight = 1;
  options.queue_aging_seconds = 3600.0;  // no aging interference
  serve::CompileService service(FastOptions(), options);

  std::vector<serve::CompileService::Ticket> tickets;
  // Three blocking batch solves.  Without the cap, b0 and b1 would claim
  // both workers; with it, only b0 starts.
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(service.Submit(QueuedRequest(
        NamedDag(81 + 2 * i, "hold-batch-" + std::to_string(i)),
        Priority::kBatch)));
  }
  RecordingEngine::WaitForSolves(1);  // b0 pinned inside its solve

  auto interactive = service.Submit(
      QueuedRequest(NamedDag(91, "interactive"), Priority::kInteractive));
  // Completes on the free worker while every batch solve but b0 is still
  // queued — this Wait would deadlock behind the flood without the cap.
  (void)interactive.Wait();

  {
    const std::vector<std::string> order = RecordingEngine::Order();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "hold-batch-0");
    EXPECT_EQ(order[1], "interactive");
  }
  const obs::Label batch = Lane(Priority::kBatch);
  // The cap admitted exactly one.
  EXPECT_EQ(Count(service, "respect_serve_lane_started_total", batch), 1u);
  EXPECT_EQ(LaneDepth(service, Priority::kBatch), 2u);

  RecordingEngine::Release();
  for (const auto& ticket : tickets) (void)ticket.Wait();
  const std::vector<std::string> order = RecordingEngine::Order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], "hold-batch-1");  // backlog resumes in FIFO order
  EXPECT_EQ(order[3], "hold-batch-2");
  EXPECT_EQ(Count(service, "respect_serve_lane_started_total", batch), 3u);
}

}  // namespace
}  // namespace respect
