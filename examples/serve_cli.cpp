// Domain example 5: `serve_cli` — CompileService under a synthetic request
// stream, the serving shape of the ROADMAP's north star.
//
//   $ ./build/examples/serve_cli [requests] [models] [stages] [engine] \
//       [--priority=interactive|normal|batch] [--deadline-ms=N] \
//       [--threads=N] [--mixed] [--max-batch-inflight=N] \
//       [--cache-dir=DIR] [--restart-demo]
//
// Default mode samples `models` distinct synthetic DAGs, then fires
// `requests` async CompileRequests with a skewed popularity distribution
// (hot graphs repeat, as model-serving traffic does) on the chosen priority
// lane, with an optional per-request deadline.  Three of every four
// requests go to `engine`; the rest exercise the RL engine, and halfway
// through the stream the RL weights are swapped with ReplaceRl — so the
// final metrics show cache hits, single-flight collapses, and the RL-only
// invalidation sweep in one run.
//
// --mixed instead drives the priority queue the way real serving mixes
// traffic: a batch flood (3 of 4 requests, batch lane, cache bypass so
// every one solves) with interactive requests interleaved (1 of 4,
// interactive lane, the --deadline-ms budget if given), then prints
// per-lane queue-wait and completion-latency p50/p99 — the number that
// shows interactive requests overtaking the flood.
// --max-batch-inflight=N additionally caps concurrent batch solves, so the
// flood can never hold every worker.
//
// --cache-dir=DIR plugs in the persistent schedule store (spill files under
// DIR).  --restart-demo (requires
// --cache-dir) shows what the store buys: it compiles a skewed stream
// against an empty cache, tears the service down, builds a fresh one on the
// same directory — the restart — and replays the exact stream, reporting
// the disk-warm-start hit rate and latency against the cold run.
//
// --miss-storm drives the grouped cold-miss path: a skewed stream of
// RL-engine requests fills the cache, ReplaceRl (same weights) invalidates
// every entry — the miss storm — and the same stream refills through
// CompileBatch, whose same-size misses share lock-stepped decodes.  Exits
// non-zero unless the refill took the batch path and every refilled result
// equals the fill's.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "core/failpoint.h"
#include "engines/registry.h"
#include "graph/sampler.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "obs/chrometrace.h"
#include "obs/trace.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "tpu/device_profile.h"
#include "tpu/sim.h"

namespace {

using namespace respect;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [requests=200] [models=6] [stages=4 (1..%d)] "
      "[engine=anneal]\n"
      "          [--priority=interactive|normal|batch] [--deadline-ms=N]\n"
      "          [--threads=N] [--mixed] [--max-batch-inflight=N]\n"
      "          [--cache-dir=DIR] [--restart-demo]\n"
      "          [--miss-storm]\n"
      "          [--profile=NAME] [--tenant=NAME] [--fleet-demo]\n"
      "          [--fleet[=N]] [--chaos-demo] "
      "[--failpoint=SITE=ACTION;...] [--budget-ms=N]\n"
      "          [--trace-out=FILE] [--metrics-out=FILE|-] "
      "[--sim-trace-out=FILE]\n"
      "  --profile targets a named device profile (",
      argv0, examples::kMaxStages);
  bool first = true;
  for (const std::string_view name : tpu::ProfileNames()) {
    std::fprintf(stderr, "%s%.*s", first ? "" : ", ",
                 static_cast<int>(name.size()), name.data());
    first = false;
  }
  std::fprintf(stderr,
               ")\n  --tenant tags requests for weighted-fair queueing; "
               "--fleet-demo runs one\n  service over several profiles and "
               "tenants and checks the fairness and\n  cache-separation "
               "invariants\n  --fleet[=N] spawns N loopback shard processes "
               "(default 3) behind the wire\n  protocol and checks the "
               "routing-dedup, kill-survival, and peer-warm-restart\n  "
               "invariants; besides N it takes only --failpoint,\n  "
               "--trace-out and --cache-dir\n  --chaos-demo serves a stream "
               "under injected faults and exits non-zero\n  unless every "
               "request settles valid-or-typed-error; --failpoint arms "
               "extra\n  fault sites "
               "(any mode); --budget-ms bounds each engine solve attempt\n"
               "  --trace-out arms per-request span tracing and writes a "
               "chrometrace JSON\n  (in --fleet mode: one merged trace, one "
               "pid track per shard); --metrics-out\n  writes the unified "
               "registry as Prometheus text ('-' = stdout);\n  "
               "--sim-trace-out writes a served schedule's simulated "
               "per-stage timeline\n");
  return 2;
}

using serve::Percentile;

struct LaneSamples {
  std::vector<double> wait_seconds;
  std::vector<double> total_seconds;  // queue wait + own solve
  int completed = 0;
  int expired = 0;
};

void PrintLane(const char* label, const LaneSamples& lane) {
  std::printf(
      "  %-11s %4d done  %3d expired  wait p50 %7.2f ms  p99 %7.2f ms  "
      "latency p50 %7.2f ms  p99 %7.2f ms\n",
      label, lane.completed, lane.expired,
      Percentile(lane.wait_seconds, 0.50) * 1e3,
      Percentile(lane.wait_seconds, 0.99) * 1e3,
      Percentile(lane.total_seconds, 0.50) * 1e3,
      Percentile(lane.total_seconds, 0.99) * 1e3);
}

using examples::CounterValue;         // registry reads in cli_util.h
using examples::PrintServiceMetrics;  // the shared dump in cli_util.h

/// One synchronous pass over a fixed request stream; the measurable unit of
/// the restart demo.
struct StreamReport {
  std::vector<double> latency_seconds;
  int hits = 0;       // memory hits
  int disk_hits = 0;  // persistent-tier hits
  int misses = 0;     // engine solves
  double wall_seconds = 0.0;
};

StreamReport ReplayStream(serve::CompileService& service,
                          const std::vector<graph::Dag>& zoo,
                          const std::vector<std::size_t>& picks, int stages,
                          const std::string& engine) {
  StreamReport report;
  report.latency_seconds.reserve(picks.size());
  const auto start = std::chrono::steady_clock::now();
  for (const std::size_t pick : picks) {
    const auto request_start = std::chrono::steady_clock::now();
    const serve::CompileResponse response =
        service.Compile(serve::CompileRequest{
            .dag = zoo[pick], .num_stages = stages, .engine = engine});
    report.latency_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      request_start)
            .count());
    switch (response.outcome) {
      case serve::CacheOutcome::kHit: ++report.hits; break;
      case serve::CacheOutcome::kDiskHit: ++report.disk_hits; break;
      default: ++report.misses; break;
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

void PrintStreamReport(const char* label, const StreamReport& report) {
  const auto n = static_cast<double>(report.latency_seconds.size());
  std::printf(
      "  %-18s %5.3f s (%.0f req/s)  mem-hits %d  disk-hits %d  solves %d\n"
      "  %-18s latency p50 %.3f ms  p99 %.3f ms\n",
      label, report.wall_seconds, n / report.wall_seconds, report.hits,
      report.disk_hits, report.misses, "",
      Percentile(report.latency_seconds, 0.50) * 1e3,
      Percentile(report.latency_seconds, 0.99) * 1e3);
}

/// --restart-demo: cold stream -> service teardown -> fresh service on the
/// same cache directory -> identical stream, answered from disk.
int RunRestartDemo(const CompilerOptions& options,
                   serve::ServiceOptions service_options,
                   const std::vector<graph::Dag>& zoo, int requests,
                   int stages, const std::string& engine,
                   std::mt19937_64& rng) {
  service_options.num_threads = 1;  // sync streams; keep the pool small
  std::vector<std::size_t> picks(requests);
  for (std::size_t& pick : picks) {
    // Same skewed popularity as the async stream: min of two draws.
    pick = std::min(rng() % zoo.size(), rng() % zoo.size());
  }

  std::printf("restart demo: %d requests over %zu models, %d stages, "
              "engine %s, cache dir %s\n",
              requests, zoo.size(), stages, engine.c_str(),
              service_options.cache_dir.c_str());
  StreamReport cold;
  {
    serve::CompileService service(options, service_options);
    cold = ReplayStream(service, zoo, picks, stages, engine);
    PrintStreamReport("cold process:", cold);
    service.FlushStore();  // every solve is on disk before the "crash"
    std::printf("  spilled %llu entries to disk\n",
                static_cast<unsigned long long>(
                    service.Metrics().store.writes));
  }  // service destroyed: the restart

  serve::CompileService restarted(options, service_options);
  const StreamReport warm = ReplayStream(restarted, zoo, picks, stages,
                                         engine);
  PrintStreamReport("restarted process:", warm);

  const auto n = static_cast<double>(picks.size());
  std::printf(
      "  disk warm-start: %d/%d requests served without an engine solve "
      "(%.0f%% — %d straight from disk), %.1fx the cold wall clock\n",
      warm.hits + warm.disk_hits, static_cast<int>(picks.size()),
      100.0 * (warm.hits + warm.disk_hits) / n, warm.disk_hits,
      cold.wall_seconds / warm.wall_seconds);
  PrintServiceMetrics(restarted);
  // A restarted stream must not re-solve.
  return CounterValue(restarted, "respect_serve_misses_total") == 0 ? 0 : 1;
}

/// --miss-storm: the cold-refill path after a weight rollout.  Fill the
/// cache through CompileBatch, invalidate every RL entry with ReplaceRl —
/// the storm — then refill the identical stream and time it.  Thread count
/// defaults to 1 so the timing shows per-worker decode throughput (GEMM
/// across the group) rather than pool parallelism; pass --threads to load
/// more workers.
int RunMissStorm(const CompilerOptions& options,
                 serve::ServiceOptions service_options,
                 const std::vector<graph::Dag>& zoo, int requests, int stages,
                 int threads) {
  service_options.num_threads = threads > 0 ? threads : 1;
  std::mt19937_64 rng(131);
  std::vector<serve::CompileRequest> stream;
  stream.reserve(requests);
  std::vector<bool> seen(zoo.size(), false);
  int unique_models = 0;
  for (int r = 0; r < requests; ++r) {
    // The usual skewed popularity: hot models repeat, so the storm mixes
    // duplicate keys (collapsed in-flight) with unique cold solves.
    const std::size_t pick = std::min(rng() % zoo.size(), rng() % zoo.size());
    if (!seen[pick]) {
      seen[pick] = true;
      ++unique_models;
    }
    stream.push_back(serve::CompileRequest{
        .dag = zoo[pick], .num_stages = stages, .engine = "respect"});
  }

  std::printf("miss storm: %d requests over %zu models, %d stages, engine "
              "respect, %d worker(s)\n",
              requests, zoo.size(), stages, service_options.num_threads);
  serve::CompileService service(options, service_options);
  const std::vector<serve::CompileResponse> fill = service.CompileBatch(stream);
  // The rollout: every RL-dependent entry (here: all of them) drops.  The
  // new snapshot has the configured weights, so the refill must reproduce
  // the fill exactly.
  service.ReplaceRl(std::make_shared<rl::RlScheduler>(options.net));
  const auto start = std::chrono::steady_clock::now();
  const std::vector<serve::CompileResponse> refill =
      service.CompileBatch(stream);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t batch_solved =
      CounterValue(service, "respect_serve_batch_solved_total");

  int mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const CompileResult& a = *fill[i].result;
    const CompileResult& b = *refill[i].result;
    if (a.schedule.stage != b.schedule.stage ||
        a.peak_stage_param_bytes != b.peak_stage_param_bytes) {
      ++mismatches;
    }
  }
  // Fill and refill each solve every unique picked model once; the refill
  // half is what the wall clock above measures.
  std::printf(
      "  refill: %7.3f s (%6.0f solves/s, %6.0f req/s)  batch-solved %llu "
      "of %llu cold solves in %llu group(s); %d result mismatch(es)\n",
      wall_seconds, unique_models / wall_seconds, requests / wall_seconds,
      static_cast<unsigned long long>(batch_solved),
      static_cast<unsigned long long>(
          CounterValue(service, "respect_serve_misses_total")),
      static_cast<unsigned long long>(
          CounterValue(service, "respect_serve_batch_groups_total")),
      mismatches);
  if (batch_solved == 0) {
    std::fprintf(stderr, "error: the refill never took the batch path\n");
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "error: the refill changed %d result(s)\n",
                 mismatches);
    return 1;
  }
  return 0;
}

/// Jain's fairness index over per-tenant (weight-normalized) service rates:
/// 1.0 = perfectly proportional, 1/n = one tenant starves the rest.
double JainIndex(const std::vector<double>& rates) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double rate : rates) {
    sum += rate;
    sum_sq += rate * rate;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(rates.size()) * sum_sq);
}

/// A chain of identical compute-heavy ops: the shape where a faster front
/// stage visibly attracts more work (no DAG parallelism to hide behind).
graph::Dag ChainDag(int nodes) {
  graph::Dag dag;
  dag.SetName("fleet-chain");
  for (int i = 0; i < nodes; ++i) {
    graph::OpAttr attr;
    attr.macs = 2'000'000;
    attr.param_bytes = 1024;
    attr.output_bytes = 256;
    dag.AddNode(std::move(attr));
    if (i > 0) dag.AddEdge(i - 1, i);
  }
  return dag;
}

/// --fleet-demo: one service, several device profiles, several tenants.
/// Checks, in one run, every serving-layer invariant the heterogeneity
/// refactor added:
///   1. the same DAG compiled for different fleets gets different cache
///      keys (and "" == the default preset's name);
///   2. the profile-adapted schedule beats the uniform-profile schedule
///      when both are replayed on the heterogeneous simulator;
///   3. under an adversarial arrival mix (one tenant floods first) the
///      weighted-fair queue holds Jain's index >= 0.9.
int RunFleetDemo(const CompilerOptions& options,
                 serve::ServiceOptions service_options,
                 const std::vector<graph::Dag>& zoo, int requests, int stages,
                 const std::string& engine) {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  service_options.num_threads = 1;  // serialize solves: fairness is visible
  service_options.tenant_weights = {{"alice", 2.0}};  // bob/mallory default 1
  const std::vector<std::string> tenants = {"mallory", "alice", "bob"};
  const std::vector<std::string> tenant_profiles = {"coral-usb2",
                                                    "coral-x2fast", "coral"};
  const std::map<std::string, double> weights = {
      {"alice", 2.0}, {"bob", 1.0}, {"mallory", 1.0}};

  std::printf("fleet demo: engine %s, %d stages, profiles "
              "{coral, coral-x2fast, coral-usb2}, tenants {alice w=2, bob, "
              "mallory}\n",
              engine.c_str(), stages);

  serve::CompileService service(options, service_options);

  // Leg 1: per-profile cache keys for the same DAG never collide.
  const auto key_for = [&](const std::string& profile) {
    return service
        .Compile(serve::CompileRequest{.dag = zoo[0],
                                       .num_stages = stages,
                                       .engine = engine,
                                       .profile = profile})
        .key_hex;
  };
  const std::string default_key_hex = key_for("");
  const std::string named_default = key_for("coral");
  const std::string fast_key = key_for("coral-x2fast");
  const std::string usb2_key = key_for("coral-usb2");
  std::printf("  keys for %s: default %s  coral-x2fast %s  coral-usb2 "
              "%s\n",
              zoo[0].Name().c_str(), default_key_hex.c_str(),
              fast_key.c_str(), usb2_key.c_str());
  check(default_key_hex == named_default,
        "\"\" and \"coral\" share one cache entry");
  check(fast_key != default_key_hex && usb2_key != default_key_hex &&
            fast_key != usb2_key,
        "each non-default profile has its own cache key");

  // Leg 2: the adapted schedule wins on the heterogeneous simulator.
  const graph::Dag chain = ChainDag(6 * stages);
  const tpu::DeviceProfile hetero = *tpu::FindProfile("coral-x2fast");
  const auto uniform =
      service.Compile(serve::CompileRequest{.dag = chain,
                                            .num_stages = stages,
                                            .engine = engine});
  const auto adapted =
      service.Compile(serve::CompileRequest{.dag = chain,
                                            .num_stages = stages,
                                            .engine = engine,
                                            .profile = "coral-x2fast"});
  const double uniform_us =
      tpu::SimulatePipeline(uniform.result->package, hetero).total_us;
  const double adapted_us =
      tpu::SimulatePipeline(adapted.result->package, hetero).total_us;
  std::printf("  chain-%d on coral-x2fast: uniform schedule %.0f us, "
              "adapted %.0f us (%.2fx)\n",
              chain.NodeCount(), uniform_us, adapted_us,
              uniform_us / adapted_us);
  check(adapted_us < uniform_us,
        "profile-adapted schedule beats the uniform one on the hetero sim");

  // Leg 3: adversarial arrival mix.  mallory floods the queue first, then
  // alice and bob arrive — FIFO would drain mallory before serving either.
  // Every request bypasses the cache so each one occupies the worker, and
  // each tenant targets its own fleet (three profiles in flight at once).
  const int per_tenant = std::max(12, requests / 12);
  struct Pending {
    std::size_t tenant;
    serve::CompileService::Ticket ticket;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(per_tenant) * tenants.size());
  std::mt19937_64 mix_rng(7);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (int r = 0; r < per_tenant; ++r) {
      const std::size_t pick =
          std::min(mix_rng() % zoo.size(), mix_rng() % zoo.size());
      pending.push_back(
          {t, service.Submit(serve::CompileRequest{
                  .dag = zoo[pick],
                  .num_stages = stages,
                  .engine = engine,
                  .cache_policy = serve::CachePolicy::kBypass,
                  .profile = tenant_profiles[t],
                  .tenant = tenants[t]})});
    }
  }
  std::vector<double> wait_sum(tenants.size(), 0.0);
  for (auto& [tenant, ticket] : pending) {
    wait_sum[tenant] += ticket.WaitResponse().queue_wait_seconds;
  }
  std::vector<double> rates;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const double mean_wait = wait_sum[t] / per_tenant;
    // Weight-normalized service rate: completions per second of queue
    // wait, divided by the tenant's configured share.
    rates.push_back(per_tenant / (mean_wait * weights.at(tenants[t])));
    std::printf("  tenant %-8s mean wait %7.2f ms (weight %.0f)\n",
                tenants[t].c_str(), mean_wait * 1e3,
                weights.at(tenants[t]));
  }
  const double jain = JainIndex(rates);
  std::printf("  Jain's fairness index (weight-normalized): %.3f\n", jain);
  check(jain >= 0.9, "weighted-fair queue holds Jain's index >= 0.9");

  service.FlushStore();
  PrintServiceMetrics(service);

  std::printf("fleet demo: %s\n", failures == 0 ? "all checks passed"
                                                : "CHECKS FAILED");
  return failures == 0 ? 0 : 1;
}

/// --chaos-demo: the failure-domain hardening contract, live.  Arms a mix
/// of failpoints (engine faults on the preferred engine, transient store
/// write failures, writeback failures, queue-pop stalls), serves a mixed
/// async stream through a fallback chain with solve budgets, circuit
/// breakers, and a bounded queue — then verifies the one invariant that
/// matters under faults: EVERY request settles with a valid schedule or a
/// typed error (DeadlineExceeded / Overloaded).  Any untyped failure, or an
/// injected fault leaking to a caller, exits non-zero.
int RunChaosDemo(const CompilerOptions& options,
                 serve::ServiceOptions service_options,
                 const std::vector<graph::Dag>& zoo, int requests, int stages,
                 const std::string& engine, int deadline_ms) {
  const std::string canonical =
      engines::EngineRegistry::Global().Resolve(engine).name;
  if (service_options.num_threads <= 0) service_options.num_threads = 2;
  service_options.fallback_chain = {"list", "greedy"};
  if (service_options.default_solve_budget_seconds <= 0.0) {
    service_options.default_solve_budget_seconds = 1.0;
  }
  service_options.breaker_failure_threshold = 3;
  service_options.breaker_open_seconds = 0.5;
  service_options.max_lane_depth = 8;

  // The default fault mix; a --failpoint=SPEC on the command line adds to
  // (or, for the same sites, overrides) these.  The engine fault count
  // matches the breaker threshold exactly: the first wave absorbs the whole
  // burst (opening the breaker), so the second wave's half-open probe runs
  // against a healthy engine and demonstrates recovery.
  const auto injected =
      static_cast<std::uint64_t>(service_options.breaker_failure_threshold);
  core::failpoint::Configure("engine.solve." + canonical, "error(chaos)",
                             injected);
  core::failpoint::Configure("store.write", "error(chaos ENOSPC)", 4);
  core::failpoint::Configure("serve.writeback", "error(chaos)", 2);
  core::failpoint::Configure("queue.pop", "delay(1)", 16);
  std::printf("chaos demo: %d requests over %zu models, %d stages, "
              "preferred engine %s -> fallback {list, greedy}\n"
              "  armed: engine.solve.%s=error(x%llu) store.write=error(x4) "
              "serve.writeback=error(x2) queue.pop=delay(1ms,x16)\n",
              requests, zoo.size(), stages, canonical.c_str(),
              canonical.c_str(), static_cast<unsigned long long>(injected));

  serve::CompileService service(options, service_options);
  std::mt19937_64 rng(53);
  const double deadline_s = deadline_ms > 0 ? deadline_ms * 1e-3 : 0.25;

  int valid = 0;
  int degraded = 0;
  int deadline_failed = 0;
  int overloaded = 0;
  int untyped = 0;
  std::string first_untyped;
  const auto settle = [&](const serve::CompileService::Ticket& ticket) {
    try {
      const serve::CompileResponse& response = ticket.WaitResponse();
      if (response.result != nullptr) {
        ++valid;
        if (response.degraded) ++degraded;
      } else {
        ++untyped;
        if (first_untyped.empty()) first_untyped = "null result";
      }
    } catch (const serve::DeadlineExceeded&) {
      ++deadline_failed;
    } catch (const serve::Overloaded&) {
      ++overloaded;
    } catch (const std::exception& e) {
      ++untyped;
      if (first_untyped.empty()) first_untyped = e.what();
    }
  };

  // Two waves.  The first rides out the injected fault burst (fallbacks,
  // breaker opening, shedding at the depth bound); the pause lets the open
  // breaker's window lapse, so the second wave demonstrates the recovery
  // half of the contract — the half-open probe re-admitting the engine.
  int wave_number = 0;
  for (const int wave : {requests - requests / 2, requests / 2}) {
    std::vector<serve::CompileService::Ticket> tickets;
    tickets.reserve(wave);
    for (int r = 0; r < wave; ++r) {
      const bool interactive = r % 4 == 3;
      const std::size_t pick =
          std::min(rng() % zoo.size(), rng() % zoo.size());
      tickets.push_back(service.Submit(serve::CompileRequest{
          .dag = zoo[pick],
          .num_stages = stages,
          .engine = engine,
          .priority = interactive ? serve::Priority::kInteractive
                                  : serve::Priority::kBatch,
          .deadline = interactive
                          ? std::optional(serve::DeadlineIn(deadline_s))
                          : std::nullopt,
          // Half of each wave bypasses the cache so faults keep hitting
          // live solves instead of being absorbed by warm entries.
          .cache_policy = (r % 2 == 0) ? serve::CachePolicy::kBypass
                                       : serve::CachePolicy::kUse}));
      if (r % 8 == 7) {
        // A paced stream, not one instantaneous burst: the queue both
        // sheds (early, while solves back up behind the faults) and
        // serves (once fallbacks land and the cache warms).
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (const auto& ticket : tickets) settle(ticket);
    if (wave_number++ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  }
  core::failpoint::ClearAll();

  std::printf("  settled %d/%d: %d valid (%d degraded), %d deadline, "
              "%d overloaded, %d UNTYPED\n",
              valid + deadline_failed + overloaded + untyped, requests, valid,
              degraded, deadline_failed, overloaded, untyped);
  PrintServiceMetrics(service);
  if (untyped > 0) {
    std::fprintf(stderr,
                 "error: %d request(s) failed without a typed error "
                 "(first: %s)\n",
                 untyped, first_untyped.c_str());
    return 1;
  }
  if (valid == 0) {
    std::fprintf(stderr, "error: no request produced a valid schedule\n");
    return 1;
  }
  std::printf("chaos demo: every request settled valid-or-typed under "
              "injected faults\n");
  return 0;
}

// ── Fleet mode: N serve_cli processes behind net::FleetServer ──────────────

/// Atomic small-file write (tmp + rename): readers polling for the file
/// never observe a partial write.
void WriteFileAtomic(const std::filesystem::path& path,
                     const std::string& contents) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
  }
  std::filesystem::rename(tmp, path);
}

bool WaitForFile(const std::filesystem::path& path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (std::filesystem::exists(path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::filesystem::exists(path);
}

/// Child process body behind the hidden --fleet-serve flag: one
/// CompileService + FleetServer shard.  Publishes its bound address as
/// addr-<id>.e<epoch>, joins the ring once members.txt appears, serves
/// until the parent drops the stop file (or the shard is orphaned), then
/// flushes its spills and exits.  The cache directory is per (shard,
/// epoch) so a restarted shard comes up cold on purpose — its warmth must
/// come from peer spill fetch.
int RunFleetShard(const CompilerOptions& options,
                  serve::ServiceOptions service_options,
                  const std::string& fleet_dir, int shard_id, int epoch,
                  int port, bool trace_arm) {
  namespace fs = std::filesystem;
  const fs::path dir(fleet_dir);
  const fs::path cache_dir = dir / ("shard-" + std::to_string(shard_id)) /
                             ("cache-e" + std::to_string(epoch));
  fs::create_directories(cache_dir);
  service_options.cache_dir = cache_dir.string();
  // Arm span tracing before any request arrives; the parent drains the
  // ring over the wire (kTraceDump) before teardown.
  if (trace_arm) obs::Tracer::Global().Start();
  serve::CompileService service(options, service_options);
  net::FleetServerOptions server_options;
  server_options.port = port;
  // pid 0 is the parent's track in the merged chrometrace; shards are 1..N.
  server_options.shard_id = static_cast<std::uint32_t>(shard_id) + 1;
  net::FleetServer server(service, server_options);

  WriteFileAtomic(dir / ("addr-" + std::to_string(shard_id) + ".e" +
                         std::to_string(epoch)),
                  server.Address() + "\n");

  const fs::path members_path = dir / "members.txt";
  if (!WaitForFile(members_path, 20000)) {
    std::fprintf(stderr, "[shard %d] members.txt never appeared\n", shard_id);
    return 1;
  }
  std::vector<std::string> members;
  {
    std::ifstream in(members_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) members.push_back(line);
    }
  }
  server.SetMembers(members, server.Address());
  // Readiness ack: the parent must not drive traffic until every shard has
  // installed the ring — a pre-ring request is always served locally, which
  // silently defeats the forward-to-owner dedup the fleet phase asserts.
  WriteFileAtomic(dir / ("ready-" + std::to_string(shard_id) + ".e" +
                         std::to_string(epoch)),
                  "ready\n");

  const fs::path stop_path = dir / "stop";
  while (!fs::exists(stop_path) && ::getppid() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  service.FlushStore();
  return 0;
}

pid_t SpawnShard(const std::string& fleet_dir, int shard_id, int epoch,
                 int port, bool trace_arm) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<std::string> args = {
      "/proc/self/exe",
      "--fleet-serve",
      "--fleet-dir=" + fleet_dir,
      "--fleet-id=" + std::to_string(shard_id),
      "--fleet-epoch=" + std::to_string(epoch),
  };
  if (port > 0) args.push_back("--fleet-port=" + std::to_string(port));
  if (trace_arm) args.push_back("--fleet-trace");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv("/proc/self/exe", argv.data());
  std::perror("execv");
  ::_exit(127);
}

/// One compile against the fleet with transport failover: start at
/// `start`, walk the membership on NetError/WireError (reconnecting lazily
/// through `clients`).  Typed service errors propagate to the caller —
/// they are settled outcomes, not transport failures.
serve::CompileResponse FleetCompile(
    std::vector<std::unique_ptr<net::FleetClient>>& clients,
    const std::vector<std::string>& members, int start,
    const serve::CompileRequest& request) {
  net::FleetClientOptions client_options;
  client_options.connect_timeout_ms = 1000;
  client_options.io_timeout_ms = 30000;
  const int n = static_cast<int>(members.size());
  for (int attempt = 0; attempt < n; ++attempt) {
    const int shard = (start + attempt) % n;
    try {
      if (clients[shard] == nullptr) {
        clients[shard] =
            std::make_unique<net::FleetClient>(members[shard], client_options);
      }
      return clients[shard]->Compile(request);
    } catch (const net::NetError&) {
      clients[shard].reset();  // dead shard: fail over to the next member
    } catch (const net::WireError&) {
      clients[shard].reset();
    }
  }
  throw net::NetError("fleet compile: no shard reachable");
}

/// Parent orchestrator behind --fleet=N.  Three phases:
///   1. Healthy: a skewed stream round-robined across N shards; asserts
///      fleet-wide engine-solves-per-unique-graph <= 1.1 (forward-to-owner
///      dedups the fleet like one cache).
///   2. Kill: SIGKILL the shard owning the most unique keys mid-replay;
///      every request must still settle valid-or-typed (transport failover
///      + degrade-to-local at the surviving shards).
///   3. Restart: bring the shard back on the same port with a FRESH cache
///      directory and drive the stream through it; asserts it warm-starts
///      entirely via peer spill fetch — zero local engine solves.
/// Exits non-zero when any phase's invariant fails.
int RunFleet(const CompilerOptions& options,
             const std::vector<graph::Dag>& zoo, int requests, int stages,
             const std::string& engine, int fleet_n,
             const std::string& cache_dir, const std::string& trace_out) {
  const bool tracing = !trace_out.empty();
  namespace fs = std::filesystem;
  const fs::path dir =
      cache_dir.empty()
          ? fs::temp_directory_path() /
                ("respect-fleet-" + std::to_string(::getpid()))
          : fs::path(cache_dir);
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::printf("fleet: %d shards, workspace %s\n", fleet_n,
              dir.string().c_str());

  std::vector<pid_t> pids(fleet_n, -1);
  const auto kill_all = [&] {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  };

  for (int i = 0; i < fleet_n; ++i) {
    pids[i] = SpawnShard(dir.string(), i, /*epoch=*/1, /*port=*/0, tracing);
  }

  std::vector<std::string> members(fleet_n);
  std::vector<int> ports(fleet_n, 0);
  for (int i = 0; i < fleet_n; ++i) {
    const fs::path addr_path = dir / ("addr-" + std::to_string(i) + ".e1");
    if (!WaitForFile(addr_path, 15000)) {
      std::fprintf(stderr, "error: shard %d never published its address\n",
                   i);
      kill_all();
      return 1;
    }
    std::ifstream in(addr_path);
    std::getline(in, members[i]);
    ports[i] = net::SplitHostPort(members[i]).second;
  }
  {
    std::string roster;
    for (const std::string& member : members) roster += member + "\n";
    WriteFileAtomic(dir / "members.txt", roster);
  }
  for (int i = 0; i < fleet_n; ++i) {
    if (!WaitForFile(dir / ("ready-" + std::to_string(i) + ".e1"), 15000)) {
      std::fprintf(stderr, "error: shard %d never joined the ring\n", i);
      kill_all();
      return 1;
    }
  }

  // The parent computes keys and ownership with the same code the shards
  // run: a throwaway local service for MakeKey, and the same ring.
  serve::CompileService key_service(options);
  const net::ConsistentHashRing ring(members);

  // Skewed popularity (min of two draws): hot models repeat, as serving
  // traffic does.
  std::mt19937_64 stream_rng(271828);
  std::vector<int> stream;
  stream.reserve(requests);
  for (int r = 0; r < requests; ++r) {
    const int a = static_cast<int>(stream_rng() % zoo.size());
    const int b = static_cast<int>(stream_rng() % zoo.size());
    stream.push_back(std::min(a, b));
  }
  const auto make_request = [&](int model) {
    return serve::CompileRequest{.dag = zoo[model],
                                 .num_stages = stages,
                                 .engine = engine};
  };
  std::map<std::string, int> owner_uniques;  // member -> unique keys owned
  std::vector<int> unique_models;            // first-seen order
  {
    std::map<int, bool> seen;
    for (const int model : stream) {
      if (seen.emplace(model, true).second) {
        unique_models.push_back(model);
        owner_uniques[ring.OwnerOf(
            key_service.KeyFor(make_request(model)).lo)]++;
      }
    }
  }
  const std::size_t unique_keys = unique_models.size();

  std::vector<std::unique_ptr<net::FleetClient>> clients(fleet_n);
  int valid = 0;
  int typed = 0;
  int untyped = 0;
  const auto send_one = [&](int start, int model) {
    try {
      serve::CompileRequest request = make_request(model);
      // Mint the trace id client-side: every hop this request takes —
      // entry shard, forward to owner, peer fetch — shares it, which is
      // what makes the merged fleet trace coherent across pid tracks.
      if (obs::Armed()) {
        request.trace_id = obs::Tracer::Global().MintTraceId();
      }
      const obs::ScopedTraceId trace_scope(request.trace_id);
      const serve::CompileResponse response =
          FleetCompile(clients, members, start, request);
      if (response.result != nullptr) {
        ++valid;
      } else {
        ++untyped;
      }
    } catch (const serve::DeadlineExceeded&) {
      ++typed;
    } catch (const serve::Overloaded&) {
      ++typed;
    } catch (const std::invalid_argument&) {
      ++typed;
    } catch (const net::RemoteError&) {
      ++typed;
    } catch (const std::exception& e) {
      ++untyped;
      std::fprintf(stderr, "untyped failure: %s\n", e.what());
    }
  };
  const auto drive = [&](int at_shard_or_rr, bool round_robin,
                         int kill_at_index, int victim) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (kill_at_index >= 0 && static_cast<int>(i) == kill_at_index) {
        std::printf("fleet: SIGKILL shard %d (%s) mid-stream\n", victim,
                    members[victim].c_str());
        ::kill(pids[victim], SIGKILL);
        ::waitpid(pids[victim], nullptr, 0);
        pids[victim] = -1;
      }
      const int start = round_robin ? static_cast<int>(i) % fleet_n
                                    : at_shard_or_rr;
      send_one(start, stream[i]);
    }
  };
  const auto flush_all = [&] {
    for (int i = 0; i < fleet_n; ++i) {
      if (pids[i] <= 0) continue;
      try {
        if (clients[i] == nullptr) {
          clients[i] = std::make_unique<net::FleetClient>(members[i]);
        }
        clients[i]->Flush();
      } catch (const std::exception&) {
        clients[i].reset();
      }
    }
  };
  const auto page_of = [&](int shard) {
    if (clients[shard] == nullptr) {
      clients[shard] = std::make_unique<net::FleetClient>(members[shard]);
    }
    return clients[shard]->MetricsPage();
  };
  // Engine solves = every path that ran a local solve: cold misses,
  // bypasses, refreshes.
  const auto solves_in = [](std::string_view page) {
    return examples::PageCounter(page, "respect_serve_misses_total") +
           examples::PageCounter(page, "respect_serve_bypasses_total") +
           examples::PageCounter(page, "respect_serve_refreshes_total");
  };

  int exit_code = 0;

  // Phase 1 — healthy fleet.
  std::printf("fleet phase 1: %zu requests (%zu unique) round-robin over "
              "%d shards\n",
              stream.size(), unique_keys, fleet_n);
  drive(0, /*round_robin=*/true, /*kill_at_index=*/-1, -1);
  flush_all();
  std::uint64_t total_solves = 0;
  for (int i = 0; i < fleet_n; ++i) {
    try {
      const std::string page = page_of(i);
      const std::uint64_t solves = solves_in(page);
      std::printf(
          "  shard %d: requests %llu  solves %llu  hits %llu  "
          "forwarded %llu\n",
          i,
          static_cast<unsigned long long>(
              examples::PageCounter(page, "respect_fleet_requests_total")),
          static_cast<unsigned long long>(solves),
          static_cast<unsigned long long>(
              examples::PageCounter(page, "respect_serve_hits_total")),
          static_cast<unsigned long long>(
              examples::PageCounter(page, "respect_fleet_forwarded_total")));
      total_solves += solves;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: stats from shard %d failed: %s\n", i,
                   e.what());
      kill_all();
      return 1;
    }
  }
  const double solves_per_unique =
      unique_keys == 0 ? 0.0
                       : static_cast<double>(total_solves) /
                             static_cast<double>(unique_keys);
  std::printf("fleet phase 1: %llu engine solves / %zu unique graphs = "
              "%.3f solves-per-unique\n",
              static_cast<unsigned long long>(total_solves), unique_keys,
              solves_per_unique);
  if (solves_per_unique > 1.1) {
    std::fprintf(stderr, "error: fleet solved duplicates (%.3f > 1.1) — "
                 "forward-to-owner dedup is broken\n",
                 solves_per_unique);
    exit_code = 1;
  }

  // Phase 2 — kill the busiest owner mid-stream.
  int victim = 0;
  for (int i = 1; i < fleet_n; ++i) {
    if (owner_uniques[members[i]] > owner_uniques[members[victim]]) {
      victim = i;
    }
  }
  std::printf("fleet phase 2: replay with shard %d (owner of %d unique "
              "keys) killed mid-stream\n",
              victim, owner_uniques[members[victim]]);
  const int before_valid = valid;
  const int before_typed = typed;
  drive(0, /*round_robin=*/true,
        /*kill_at_index=*/static_cast<int>(stream.size()) / 3, victim);
  clients[victim].reset();
  // Settle pass: with the victim down, touch every unique key once more so
  // a surviving shard solves-and-spills any key only the victim had served
  // before the kill.  Without this, a victim-owned key whose stream
  // occurrences all landed pre-kill would exist in no survivor's store —
  // and phase 3's peer warm-up would have nowhere to fetch it from.
  for (std::size_t u = 0; u < unique_models.size(); ++u) {
    send_one(static_cast<int>(u) % fleet_n, unique_models[u]);
  }
  flush_all();
  std::printf("fleet phase 2: %d valid, %d typed, %d untyped after the "
              "kill\n",
              valid - before_valid, typed - before_typed, untyped);
  if (untyped > 0) {
    std::fprintf(stderr, "error: %d request(s) failed without a typed "
                 "error during the kill\n",
                 untyped);
    exit_code = 1;
  }

  // Phase 3 — restart the victim on its old port with a fresh cache dir.
  std::printf("fleet phase 3: restart shard %d on port %d with an empty "
              "cache (epoch 2)\n",
              victim, ports[victim]);
  pids[victim] = SpawnShard(dir.string(), victim, /*epoch=*/2,
                            ports[victim], tracing);
  const fs::path addr2 =
      dir / ("addr-" + std::to_string(victim) + ".e2");
  if (!WaitForFile(addr2, 15000) ||
      !WaitForFile(dir / ("ready-" + std::to_string(victim) + ".e2"),
                   15000)) {
    std::fprintf(stderr, "error: restarted shard %d never came back\n",
                 victim);
    kill_all();
    return 1;
  }
  drive(victim, /*round_robin=*/false, /*kill_at_index=*/-1, -1);
  try {
    const std::string page = page_of(victim);
    const std::uint64_t solves = solves_in(page);
    const std::uint64_t peer_hits =
        examples::PageCounter(page, "respect_serve_peer_hits_total");
    std::printf("fleet phase 3: restarted shard solves %llu  peer-hits "
                "%llu  peer-fetches %llu\n",
                static_cast<unsigned long long>(solves),
                static_cast<unsigned long long>(peer_hits),
                static_cast<unsigned long long>(examples::PageCounter(
                    page, "respect_serve_peer_fetches_total")));
    if (solves != 0) {
      std::fprintf(stderr, "error: restarted shard re-solved %llu already-"
                   "solved graphs instead of peer-warming\n",
                   static_cast<unsigned long long>(solves));
      exit_code = 1;
    }
    if (peer_hits == 0) {
      std::fprintf(stderr,
                   "error: restarted shard never peer-warm fetched\n");
      exit_code = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: stats from restarted shard failed: %s\n",
                 e.what());
    exit_code = 1;
  }
  if (untyped > 0) exit_code = 1;

  // Drain every live shard's trace ring over the wire and merge the
  // fragments (plus the parent's own client-side spans) into one trace
  // file — one pid track per shard, pid 0 for the parent.
  if (tracing) {
    std::vector<std::string> fragments;
    fragments.emplace_back();
    obs::AppendChromeTraceEvents(fragments.back(),
                                 obs::Tracer::Global().Drain(), /*pid=*/0);
    for (int i = 0; i < fleet_n; ++i) {
      if (pids[i] <= 0) continue;
      try {
        if (clients[i] == nullptr) {
          clients[i] = std::make_unique<net::FleetClient>(members[i]);
        }
        fragments.push_back(clients[i]->TraceDumpFetch().events_json);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: trace dump from shard %d failed: %s\n",
                     i, e.what());
        clients[i].reset();
      }
    }
    std::ofstream trace_file(trace_out, std::ios::trunc);
    obs::WriteChromeTraceFragments(trace_file, fragments);
    if (trace_file) {
      std::printf("fleet: merged chrometrace written to %s\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      exit_code = 1;
    }
  }

  // Orderly teardown: stop file, bounded wait, SIGKILL stragglers.
  WriteFileAtomic(dir / "stop", "stop\n");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  for (int i = 0; i < fleet_n; ++i) {
    if (pids[i] <= 0) continue;
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pids[i], nullptr, WNOHANG) != 0) {
        pids[i] = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  kill_all();
  if (exit_code == 0) {
    std::printf("fleet: all invariants held (dedup <= 1.1, valid-or-typed "
                "under kill, peer warm restart)\n");
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 200;
  int num_models = 6;
  int stages = 4;
  std::string engine = "anneal";
  std::optional<serve::Priority> priority;  // unset = the normal lane
  int deadline_ms = 0;  // 0 = no deadline
  int threads = 0;      // 0 = ThreadPool::DefaultThreadCount
  bool mixed = false;
  int max_batch_inflight = 0;  // 0 = uncapped
  std::string cache_dir;       // empty = no persistent tier
  bool restart_demo = false;
  bool miss_storm = false;
  bool fleet_demo = false;
  bool chaos_demo = false;
  int fleet_n = 0;          // > 0: parent of a --fleet multi-process run
  bool fleet_serve = false;  // hidden: this process is a fleet shard
  std::string fleet_dir;
  int fleet_id = 0;
  int fleet_epoch = 1;
  int fleet_port = 0;
  int budget_ms = 0;        // 0 = no per-attempt solve budget
  std::string failpoints;   // "site=action;..." spec, armed before serving
  std::string profile;  // empty = the default device profile
  std::string tenant;   // empty = the shared default tenant
  std::string trace_out;      // empty = tracing disarmed
  std::string metrics_out;    // Prometheus text; "-" = stdout
  std::string sim_trace_out;  // simulated timeline chrometrace
  bool fleet_trace = false;   // hidden: arm tracing in a fleet shard
  constexpr int kMaxInt = std::numeric_limits<int>::max();

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--priority=", 11) == 0) {
      const auto parsed = serve::ParsePriority(arg + 11);
      if (!parsed) {
        std::fprintf(stderr, "error: bad --priority '%s'\n", arg + 11);
        return Usage(argv[0]);
      }
      priority = parsed;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      if (!examples::ParseIntInRange(arg + 14, 1, kMaxInt, deadline_ms)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!examples::ParseIntInRange(arg + 10, 1, 1024, threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--mixed") == 0) {
      mixed = true;
    } else if (std::strncmp(arg, "--max-batch-inflight=", 21) == 0) {
      if (!examples::ParseIntInRange(arg + 21, 1, 1024,
                                     max_batch_inflight)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      cache_dir = arg + 12;
      if (cache_dir.empty()) {
        std::fprintf(stderr, "error: --cache-dir needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--restart-demo") == 0) {
      restart_demo = true;
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile = arg + 10;
      if (!tpu::FindProfile(profile)) {
        std::fprintf(stderr, "error: unknown device profile '%s'\n",
                     profile.c_str());
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--tenant=", 9) == 0) {
      tenant = arg + 9;
    } else if (std::strcmp(arg, "--fleet-demo") == 0) {
      fleet_demo = true;
    } else if (std::strcmp(arg, "--fleet") == 0) {
      fleet_n = 3;
    } else if (std::strncmp(arg, "--fleet=", 8) == 0) {
      if (!examples::ParseIntInRange(arg + 8, 2, 8, fleet_n)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fleet-serve") == 0) {
      fleet_serve = true;
    } else if (std::strncmp(arg, "--fleet-dir=", 12) == 0) {
      fleet_dir = arg + 12;
    } else if (std::strncmp(arg, "--fleet-id=", 11) == 0) {
      if (!examples::ParseIntInRange(arg + 11, 0, 255, fleet_id)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fleet-epoch=", 14) == 0) {
      if (!examples::ParseIntInRange(arg + 14, 1, kMaxInt, fleet_epoch)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fleet-port=", 13) == 0) {
      if (!examples::ParseIntInRange(arg + 13, 1, 65535, fleet_port)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--chaos-demo") == 0) {
      chaos_demo = true;
    } else if (std::strncmp(arg, "--failpoint=", 12) == 0) {
      failpoints = arg + 12;
      if (failpoints.empty()) {
        std::fprintf(stderr, "error: --failpoint needs a site=action spec\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--budget-ms=", 12) == 0) {
      if (!examples::ParseIntInRange(arg + 12, 1, kMaxInt, budget_ms)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--miss-storm") == 0) {
      miss_storm = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      if (trace_out.empty()) {
        std::fprintf(stderr, "error: --trace-out needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
      if (metrics_out.empty()) {
        std::fprintf(stderr, "error: --metrics-out needs a path or '-'\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--sim-trace-out=", 16) == 0) {
      sim_trace_out = arg + 16;
      if (sim_trace_out.empty()) {
        std::fprintf(stderr, "error: --sim-trace-out needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fleet-trace") == 0) {
      fleet_trace = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    } else {
      switch (positional++) {
        case 0:
          if (!examples::ParseIntInRange(arg, 1, kMaxInt, requests)) {
            return Usage(argv[0]);
          }
          break;
        case 1:
          if (!examples::ParseIntInRange(arg, 1, kMaxInt, num_models)) {
            return Usage(argv[0]);
          }
          break;
        case 2:
          // The sampled DAGs have 40 nodes; the stage cap keeps every
          // request satisfiable (beyond kMaxStages it would fail to pack).
          if (!examples::ParseIntInRange(arg, 1, examples::kMaxStages,
                                         stages)) {
            return Usage(argv[0]);
          }
          break;
        case 3:
          engine = arg;
          break;
        default:
          return Usage(argv[0]);
      }
    }
  }
  // Shards are spawned with the --fleet-* flags alone and the parent runs
  // only the fleet phases, so any other serving or demo flag given to the
  // --fleet parent would silently do nothing.
  if (fleet_n > 0 &&
      (threads > 0 || budget_ms > 0 || max_batch_inflight > 0 || priority ||
       deadline_ms > 0 || mixed || !profile.empty() || !tenant.empty() ||
       !metrics_out.empty() || !sim_trace_out.empty() || restart_demo ||
       miss_storm || fleet_demo || chaos_demo)) {
    std::fprintf(stderr, "error: --fleet takes only --failpoint, "
                 "--trace-out and --cache-dir\n");
    return Usage(argv[0]);
  }
  if (!engines::EngineRegistry::Global().Contains(engine)) {
    std::fprintf(stderr, "error: unknown engine '%s' (see compiler_cli "
                 "--help for the registry)\n",
                 engine.c_str());
    return Usage(argv[0]);
  }

  std::mt19937_64 rng(97);
  std::vector<graph::Dag> zoo;
  zoo.reserve(num_models);
  for (int i = 0; i < num_models; ++i) {
    zoo.push_back(graph::SampleTrainingDag(40, rng));
    zoo.back().SetName("model-" + std::to_string(i));
  }

  CompilerOptions options;
  options.net.hidden_dim = 32;
  options.exact_max_expansions = 50'000;
  options.exact_time_limit_seconds = 0.2;
  serve::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.max_batch_inflight = max_batch_inflight;
  service_options.cache_dir = cache_dir;
  service_options.default_solve_budget_seconds = budget_ms * 1e-3;
  // A named tenant gets its own series (unnamed ones share the overflow
  // label).
  if (!tenant.empty()) service_options.tenant_weights[tenant] = 1.0;

  if (fleet_serve) {
    // Hidden shard mode, exec'd by the --fleet parent.  It runs the exact
    // same option/zoo construction as the parent above, so cache keys and
    // ring placement agree across all processes.
    if (fleet_dir.empty()) {
      std::fprintf(stderr, "error: --fleet-serve requires --fleet-dir\n");
      return 2;
    }
    try {
      return RunFleetShard(options, service_options, fleet_dir, fleet_id,
                           fleet_epoch, fleet_port, fleet_trace);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[shard %d] fatal: %s\n", fleet_id, e.what());
      return 1;
    }
  }

  if (!failpoints.empty()) {
    if (!respect::core::failpoint::ConfigureFromSpec(failpoints)) {
      std::fprintf(stderr, "error: malformed --failpoint spec '%s'\n",
                   failpoints.c_str());
      return Usage(argv[0]);
    }
    std::printf("failpoints armed: %s\n", failpoints.c_str());
  }

  // Arm the tracer before any service exists so admission mints trace ids
  // from the very first request.  (Fleet shards arm their own rings via the
  // hidden --fleet-trace flag; the parent's ring records the client side.)
  if (!trace_out.empty()) obs::Tracer::Global().Start();

  if (fleet_n > 0) {
    try {
      return RunFleet(options, zoo, requests, stages, engine, fleet_n,
                      cache_dir, trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: fleet run failed: %s\n", e.what());
      return 1;
    }
  }

  if (chaos_demo) {
    try {
      return RunChaosDemo(options, service_options, zoo, requests, stages,
                          engine, deadline_ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: chaos demo failed: %s\n", e.what());
      return 1;
    }
  }

  if (fleet_demo) {
    try {
      return RunFleetDemo(options, service_options, zoo, requests, stages,
                          engine);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: fleet demo failed: %s\n", e.what());
      return 1;
    }
  }

  if (miss_storm) {
    try {
      return RunMissStorm(options, service_options, zoo, requests, stages,
                          threads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: miss-storm demo failed: %s\n", e.what());
      return 1;
    }
  }

  if (restart_demo) {
    if (cache_dir.empty()) {
      std::fprintf(stderr, "error: --restart-demo requires --cache-dir\n");
      return Usage(argv[0]);
    }
    try {
      return RunRestartDemo(options, service_options, zoo, requests, stages,
                            engine, rng);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: restart demo failed: %s\n", e.what());
      return 1;
    }
  }

  // Construction can fail when --cache-dir is unusable (DiskStore throws).
  std::unique_ptr<serve::CompileService> service_holder;
  try {
    service_holder =
        std::make_unique<serve::CompileService>(options, service_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot start service: %s\n", e.what());
    return 1;
  }
  serve::CompileService& service = *service_holder;

  const auto deadline_for = [&](bool apply) {
    return apply && deadline_ms > 0
               ? std::optional<std::chrono::steady_clock::time_point>(
                     serve::DeadlineIn(deadline_ms * 1e-3))
               : std::nullopt;
  };

  std::vector<std::pair<serve::Priority, serve::CompileService::Ticket>>
      tickets;
  tickets.reserve(requests);
  std::vector<LaneSamples> lanes(serve::kNumPriorityLanes);
  const auto start = std::chrono::steady_clock::now();

  const auto submit_mixed = [&] {
    // Batch flood + interactive trickle.  The flood bypasses the cache so
    // every batch request really occupies a worker — the interactive lane
    // has a backlog to overtake.
    std::printf("mixed traffic: %d requests over %d models, %d stages, "
                "engine %s (3:1 batch:interactive%s)\n",
                requests, num_models, stages, engine.c_str(),
                deadline_ms > 0 ? ", interactive deadline applied" : "");
    for (int r = 0; r < requests; ++r) {
      const bool interactive = r % 4 == 3;
      const std::size_t pick =
          std::min(rng() % zoo.size(), rng() % zoo.size());
      serve::CompileRequest request{
          .dag = zoo[pick],
          .num_stages = stages,
          .engine = engine,
          .priority = interactive ? serve::Priority::kInteractive
                                  : serve::Priority::kBatch,
          .deadline = deadline_for(interactive),
          .cache_policy = interactive ? serve::CachePolicy::kUse
                                      : serve::CachePolicy::kBypass,
          .profile = profile,
          .tenant = tenant};
      tickets.emplace_back(request.priority,
                           service.Submit(std::move(request)));
    }
  };

  const auto submit_stream = [&] {
    const serve::Priority lane = priority.value_or(serve::Priority::kNormal);
    std::printf("serving %d requests over %d models, %d stages, engine %s, "
                "%s lane (1 in 4 requests uses the RL engine)\n",
                requests, num_models, stages, engine.c_str(),
                std::string(PriorityName(lane)).c_str());
    for (int r = 0; r < requests; ++r) {
      if (r == requests / 2) {
        // Mid-stream weight rollout: RL-engine entries invalidate, every
        // deterministic-engine entry stays warm.
        for (auto& [lane, ticket] : tickets) {
          try {
            (void)ticket.Wait();
          } catch (const serve::DeadlineExceeded&) {
          }
        }
        service.ReplaceRl(std::make_shared<rl::RlScheduler>(options.net));
        std::printf("  ... ReplaceRl at request %d (invalidations so far: "
                    "%llu)\n",
                    r,
                    static_cast<unsigned long long>(
                        service.Metrics().invalidations));
      }
      // Skewed popularity: the minimum of two uniform draws favours the
      // first (hot) models, approximating serving traffic.
      const std::size_t pick =
          std::min(rng() % zoo.size(), rng() % zoo.size());
      serve::CompileRequest request{
          .dag = zoo[pick],
          .num_stages = stages,
          .engine = (r % 4 == 3) ? std::string("respect") : engine,
          .priority = lane,
          .deadline = deadline_for(true),
          .profile = profile,
          .tenant = tenant};
      tickets.emplace_back(request.priority,
                           service.Submit(std::move(request)));
    }
  };

  // One try around submission and draining: a non-deadline failure anywhere
  // in the stream (solve failure mid-rollout, unsatisfiable request) reports
  // and exits instead of escaping main.
  try {
    if (mixed) {
      submit_mixed();
    } else {
      submit_stream();
    }
    for (auto& [lane, ticket] : tickets) {
      LaneSamples& samples = lanes[static_cast<std::size_t>(lane)];
      try {
        const serve::CompileResponse& response = ticket.WaitResponse();
        samples.wait_seconds.push_back(response.queue_wait_seconds);
        samples.total_seconds.push_back(response.queue_wait_seconds +
                                        response.solve_seconds);
        ++samples.completed;
      } catch (const serve::DeadlineExceeded&) {
        ++samples.expired;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: compile request failed: %s\n", e.what());
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("done in %.3f s (%.0f requests/s)\n", seconds,
              requests / seconds);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane].completed == 0 && lanes[lane].expired == 0) continue;
    PrintLane(
        std::string(PriorityName(static_cast<serve::Priority>(lane))).c_str(),
        lanes[lane]);
  }
  PrintServiceMetrics(service);

  if (!trace_out.empty()) {
    std::ofstream trace_file(trace_out, std::ios::trunc);
    obs::WriteChromeTrace(trace_file, obs::Tracer::Global().Drain(),
                          /*pid=*/0);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("chrometrace written to %s (dropped events: %llu)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::Global().Dropped()));
  }
  if (!metrics_out.empty() &&
      !examples::WritePrometheusMetrics(service, metrics_out)) {
    return 1;
  }
  if (!sim_trace_out.empty()) {
    // A schedule this run actually served (warm by now), simulated with the
    // per-(inference, stage) timeline recorded, exported as its own trace:
    // one tid track per pipeline stage, transfer/compute sub-events nested.
    try {
      const serve::CompileResponse sampled = service.Compile(
          serve::CompileRequest{.dag = zoo[0],
                                .num_stages = stages,
                                .engine = engine});
      tpu::SimConfig sim_config;
      sim_config.num_inferences = 64;
      sim_config.record_timeline = true;
      const tpu::SimResult sim =
          tpu::SimulatePipeline(sampled.result->package, sim_config);
      const std::vector<tpu::StageCost> costs = tpu::ProfilePackage(
          sampled.result->package, sim_config.device, sim_config.link);
      std::ofstream sim_file(sim_trace_out, std::ios::trunc);
      obs::WriteSimChromeTrace(sim_file, sim.timeline, costs);
      if (!sim_file) {
        std::fprintf(stderr, "error: cannot write sim trace to %s\n",
                     sim_trace_out.c_str());
        return 1;
      }
      std::printf("sim chrometrace written to %s (%zu intervals, "
                  "%.0f us total)\n",
                  sim_trace_out.c_str(), sim.timeline.size(), sim.total_us);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: sim trace export failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
