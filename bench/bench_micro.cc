// Micro-benchmarks (google-benchmark) for every substrate: graph analyses,
// samplers, exact solvers, the backend compiler, NN forward/backward, PtrNet
// decode, the pipeline simulator, per-engine solve times enumerated from the
// SchedulerEngine registry, and CompileBatch throughput across thread counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/respect.h"
#include "core/thread_pool.h"
#include "deploy/package.h"
#include "engines/registry.h"
#include "exact/bnb_scheduler.h"
#include "exact/dp_partitioner.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "heuristics/backend_compile.h"
#include "models/zoo.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "obs/trace.h"
#include "nn/lstm.h"
#include "nn/tape.h"
#include "rl/decode_workspace.h"
#include "rl/ptrnet.h"
#include "rl/reference_decode.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "serve/store/spill_codec.h"
#include "tpu/sim.h"

namespace {

using namespace respect;

void BM_SampleTrainingDag(benchmark::State& state) {
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::SampleTrainingDag(30, rng));
  }
}
BENCHMARK(BM_SampleTrainingDag);

void BM_AnalyzeTopology(benchmark::State& state) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::AnalyzeTopology(dag));
  }
}
BENCHMARK(BM_AnalyzeTopology);

void BM_DpPartition(benchmark::State& state) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet152);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exact::PartitionDefaultOrder(dag, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_DpPartition)->Arg(4)->Arg(6);

void BM_BnbExactSmall(benchmark::State& state) {
  std::mt19937_64 rng(2);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  exact::BnbConfig config;
  config.num_stages = 4;
  config.max_expansions = 200'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::SolveExact(dag, config));
  }
}
BENCHMARK(BM_BnbExactSmall);

void BM_CompileSegment(benchmark::State& state) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet101);
  const auto topo = graph::AnalyzeTopology(dag);
  const std::vector<graph::NodeId> ops(
      topo.order.begin(), topo.order.begin() + state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristics::CompileSegment(dag, ops));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompileSegment)->Arg(50)->Arg(150);

void BM_LstmStepForward(benchmark::State& state) {
  std::mt19937_64 rng(3);
  nn::ParamStore store;
  nn::LstmCell cell(store, "lstm", 48, 48, rng);
  const nn::Tensor x = nn::Tensor::Xavier(48, 1, rng);
  auto s = cell.InitialState();
  for (auto _ : state) {
    s = cell.Step(x, s);
    benchmark::DoNotOptimize(s.h);
  }
}
BENCHMARK(BM_LstmStepForward);

/// The decode-throughput trio (the tentpole metric).  All three decode the
/// same graphs with the same weights and produce bit-identical sequences
/// (tests/decode_parity_test.cc):
///  * Reference — the frozen pre-optimization allocate-per-op path;
///  * PtrNetGreedyDecode — the fused path through the compatibility entry
///    point (fresh workspace per call);
///  * Workspace — the fused path on a warm per-thread workspace, i.e. the
///    steady-state serving hot path (zero heap allocations per decode).
/// Acceptance bar: Workspace >= 3x Reference items/s on ~100-node graphs.
rl::PtrNetAgent& DecodeBenchAgent() {
  static rl::PtrNetAgent* agent = [] {
    rl::PtrNetConfig config;
    config.hidden_dim = 48;
    return new rl::PtrNetAgent(config);
  }();
  return *agent;
}

graph::Dag DecodeBenchDag(int nodes) {
  std::mt19937_64 rng(4);
  return graph::SampleTrainingDag(nodes, rng);
}

void BM_DecodeGreedyReference(benchmark::State& state) {
  const graph::Dag dag = DecodeBenchDag(static_cast<int>(state.range(0)));
  const rl::PtrNetAgent& agent = DecodeBenchAgent();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rl::ReferenceDecodeGreedy(agent, dag));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeGreedyReference)->Arg(30)->Arg(100);

void BM_PtrNetGreedyDecode(benchmark::State& state) {
  const graph::Dag dag = DecodeBenchDag(static_cast<int>(state.range(0)));
  const rl::PtrNetAgent& agent = DecodeBenchAgent();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.DecodeGreedy(dag));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PtrNetGreedyDecode)->Arg(30)->Arg(100);

void BM_DecodeGreedyWorkspace(benchmark::State& state) {
  const graph::Dag dag = DecodeBenchDag(static_cast<int>(state.range(0)));
  const rl::PtrNetAgent& agent = DecodeBenchAgent();
  rl::DecodeWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.DecodeGreedy(dag, ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeGreedyWorkspace)->Arg(30)->Arg(100);

/// The decode at the shape the paper path runs (perfbench zoo-compile):
/// default PtrNetConfig (hidden 64) on ResNet152, warm workspace.  Items
/// are nodes, so the rate compares with the sampled-graph trio above.
void BM_DecodeGreedyZoo(benchmark::State& state) {
  static const rl::PtrNetAgent agent{rl::PtrNetConfig{}};
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet152);
  rl::DecodeWorkspace ws;
  (void)agent.DecodeGreedy(dag, ws);  // warms every buffer
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.DecodeGreedy(dag, ws));
  }
  state.SetItemsProcessed(state.iterations() * dag.NodeCount());
}
BENCHMARK(BM_DecodeGreedyZoo);

/// Lock-stepped multi-graph decode: 16 fixed 100-node graphs decoded per
/// iteration through DecodeGreedyBatch in groups of `state.range(0)`, on
/// one workspace.  Arg(1) is B = 1 through the same call (the k-major
/// panel GEMVs); Arg(16) is the full row-pair GEMM width.  All widths
/// produce bit-identical sequences (tests/batch_decode_test.cc).
void BatchedDecodeBody(benchmark::State& state, std::size_t batch) {
  const rl::PtrNetAgent& agent = DecodeBenchAgent();
  static const std::vector<graph::Dag>* dags = [] {
    auto* sampled = new std::vector<graph::Dag>();
    std::mt19937_64 rng(9);
    for (int i = 0; i < 16; ++i) {
      sampled->push_back(graph::SampleTrainingDag(100, rng));
    }
    return sampled;
  }();
  rl::DecodeWorkspace ws;
  std::vector<const graph::Dag*> group;
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < dags->size(); begin += batch) {
      const std::size_t end = std::min(dags->size(), begin + batch);
      group.clear();
      for (std::size_t i = begin; i < end; ++i) group.push_back(&(*dags)[i]);
      benchmark::DoNotOptimize(agent.DecodeGreedyBatch(
          std::span<const graph::Dag* const>(group), ws));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dags->size()) * 100);
}

void BM_BatchedDecode(benchmark::State& state) {
  BatchedDecodeBody(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BatchedDecode)->Arg(1)->Arg(4)->Arg(16);

void BM_SampleWithTapeAndBackward(benchmark::State& state) {
  std::mt19937_64 rng(5);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  rl::PtrNetConfig config;
  config.hidden_dim = 48;
  rl::PtrNetAgent agent(config);
  for (auto _ : state) {
    nn::Tape tape;
    const auto sample = agent.SampleWithTape(dag, tape, rng);
    tape.Backward(sample.log_prob_sum, 0.01f);
    benchmark::DoNotOptimize(sample.sequence);
  }
}
BENCHMARK(BM_SampleWithTapeAndBackward);

void BM_PipelineSimulation(benchmark::State& state) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet50);
  const auto dp = exact::PartitionDefaultOrder(dag, 4);
  const auto package = deploy::BuildPackage(dag, dp.schedule, true);
  tpu::SimConfig sim;
  sim.num_inferences = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpu::SimulatePipeline(package, sim));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineSimulation)->Arg(1000)->Arg(10000);

void BM_BuildResNet101(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        models::BuildModel(models::ModelName::kResNet101));
  }
}
BENCHMARK(BM_BuildResNet101);

CompilerOptions BatchBenchOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 32;
  options.exact_max_expansions = 50'000;
  options.exact_time_limit_seconds = 0.2;
  options.compiler.refinement_rounds = 4;
  options.compiler.compile_passes = 2;
  return options;
}

const std::vector<graph::Dag>& BatchDags() {
  static const std::vector<graph::Dag>* dags = [] {
    auto* sampled = new std::vector<graph::Dag>();
    std::mt19937_64 rng(6);
    for (int i = 0; i < 8; ++i) {
      sampled->push_back(graph::SampleTrainingDag(40, rng));
    }
    return sampled;
  }();
  return *dags;
}

std::vector<const graph::Dag*> BatchPointers() {
  std::vector<const graph::Dag*> pointers;
  for (const graph::Dag& dag : BatchDags()) pointers.push_back(&dag);
  return pointers;
}

/// The tentpole throughput benchmark: one batch of 8 sampled DAGs compiled
/// with `state.range(0)` worker threads.  Arg(1) is the sequential baseline;
/// Arg(4) must show the >= 2x wall-clock speedup the batch path exists for.
/// The pool lives outside the timed loop (the serving-loop shape), so this
/// measures steady-state throughput, not thread spawn/join.
void BM_CompileBatchThroughput(benchmark::State& state) {
  static const PipelineCompiler* compiler =
      new PipelineCompiler(BatchBenchOptions());
  const std::vector<const graph::Dag*> pointers = BatchPointers();
  core::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiler->CompileBatch(pointers, 4, "Annealing", pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pointers.size()));
}
BENCHMARK(BM_CompileBatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// CompileService on a repeated-request stream, cold vs. warm.  Cold clears
/// the cache every iteration, so each request pays the full engine solve;
/// warm answers every iteration from the content-addressed cache (hash +
/// shard lookup).  The serving acceptance bar is warm >= 10x cold
/// throughput; in practice the gap is orders of magnitude.  The
/// CompileRequest is built once outside the loop — the serving shape, and
/// what keeps the warm path free of per-iteration Dag copies.
void BM_CompileServiceColdSolve(benchmark::State& state) {
  static serve::CompileService* service =
      new serve::CompileService(BatchBenchOptions());
  const serve::CompileRequest request{.dag = BatchDags()[0],
                                      .num_stages = 4,
                                      .engine = "Annealing"};
  for (auto _ : state) {
    service->ClearCache();  // negligible against the solve it forces
    benchmark::DoNotOptimize(service->Compile(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileServiceColdSolve);

void BM_CompileServiceWarmCache(benchmark::State& state) {
  static serve::CompileService* service =
      new serve::CompileService(BatchBenchOptions());
  const serve::CompileRequest request{.dag = BatchDags()[0],
                                      .num_stages = 4,
                                      .engine = "Annealing"};
  benchmark::DoNotOptimize(service->Compile(request));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Compile(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileServiceWarmCache);

/// Tracing tax on the hot serving path.  Disarmed is the default serving
/// configuration: every OBS_SPAN along the warm-cache path costs one relaxed
/// atomic load and nothing else, so this must stay within noise of
/// BM_CompileServiceWarmCache (the regression gate watches the pair at a 1%
/// band).  Armed runs the same stream with the tracer recording and the ring
/// drained every 4096 iterations — the price of leaving tracing on in
/// production, not a gate, just a published number.
void BM_TraceOverheadDisarmed(benchmark::State& state) {
  static serve::CompileService* service =
      new serve::CompileService(BatchBenchOptions());
  const serve::CompileRequest request{.dag = BatchDags()[0],
                                      .num_stages = 4,
                                      .engine = "Annealing"};
  obs::Tracer::Global().Stop();  // belt-and-braces: a prior armed run
  benchmark::DoNotOptimize(service->Compile(request));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Compile(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverheadDisarmed);

void BM_TraceOverheadArmed(benchmark::State& state) {
  static serve::CompileService* service =
      new serve::CompileService(BatchBenchOptions());
  const serve::CompileRequest request{.dag = BatchDags()[0],
                                      .num_stages = 4,
                                      .engine = "Annealing"};
  obs::Tracer::Global().Start();
  benchmark::DoNotOptimize(service->Compile(request));
  std::int64_t since_drain = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Compile(request));
    if (++since_drain == 4096) {  // keep the ring from saturating
      state.PauseTiming();
      benchmark::DoNotOptimize(obs::Tracer::Global().Drain());
      since_drain = 0;
      state.ResumeTiming();
    }
  }
  obs::Tracer::Global().Stop();
  benchmark::DoNotOptimize(obs::Tracer::Global().Drain());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverheadArmed);

/// Restart warm-start throughput: every iteration drops the in-memory
/// cache, so each request pays the full persistent-tier path — index check,
/// spill read + checksum verify + deserialize, memory promote (the
/// CacheOutcome::kDiskHit shape).  The spill is written once, outside the
/// timed loop; disk hits never re-write.  Compare against
/// BM_CompileServiceWarmCache (memory hit) for the tier gap and
/// BM_CompileServiceColdSolve for what the disk tier saves after a restart.
void BM_CompileServiceDiskWarmStart(benchmark::State& state) {
  static serve::CompileService* service = [] {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "respect-bench-disk-store";
    std::filesystem::remove_all(dir);  // fresh store per process
    serve::ServiceOptions options;
    options.cache_dir = dir.string();
    return new serve::CompileService(BatchBenchOptions(), options);
  }();
  const serve::CompileRequest request{.dag = BatchDags()[0],
                                      .num_stages = 4,
                                      .engine = "Annealing"};
  benchmark::DoNotOptimize(service->Compile(request));  // populate
  service->FlushStore();                                // spill landed
  for (auto _ : state) {
    service->ClearCache();  // memory gone: the next answer comes from disk
    benchmark::DoNotOptimize(service->Compile(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileServiceDiskWarmStart);

/// Peer warm-fetch round trip: what a freshly restarted fleet shard pays
/// per already-solved graph — one FetchSpill over the loopback wire
/// protocol (frame encode, socket round trip, spill read on the peer) plus
/// the local checksum-verify + decode of the returned envelope.  Compare
/// against BM_CompileServiceDiskWarmStart for the network-hop tax over a
/// local disk hit, and BM_CompileServiceColdSolve for what peer warmth
/// saves.
void BM_FleetWarmFetch(benchmark::State& state) {
  struct Fixture {
    serve::CompileService service;
    net::FleetServer server;
    net::FleetClient client;
    graph::CanonicalHash key;
    Fixture()
        : service(BatchBenchOptions(),
                  [] {
                    const std::filesystem::path dir =
                        std::filesystem::temp_directory_path() /
                        "respect-bench-fleet-store";
                    std::filesystem::remove_all(dir);
                    serve::ServiceOptions options;
                    options.cache_dir = dir.string();
                    return options;
                  }()),
          server(service, {}),
          client(server.Address()) {
      const serve::CompileRequest request{.dag = BatchDags()[0],
                                          .num_stages = 4,
                                          .engine = "Annealing"};
      benchmark::DoNotOptimize(service.Compile(request));
      service.FlushStore();  // the spill the fetches serve
      key = service.KeyFor(request);
    }
  };
  static Fixture* fixture = new Fixture();
  for (auto _ : state) {
    std::optional<std::string> envelope =
        fixture->client.FetchSpill(fixture->key);
    if (!envelope ||
        !serve::store::TryDecodeSpillEnvelope(*envelope).has_value()) {
      state.SkipWithError("peer fetch missed or failed to verify");
      return;
    }
    benchmark::DoNotOptimize(envelope);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetWarmFetch);

/// The degraded-path tax: every iteration asks for Annealing under a solve
/// budget far too small for it, so the service pays one budget-blown attempt
/// (CancelToken poll -> CancelledError unwind) and then the ListScheduling
/// fallback solve — the exact shape a saturated preferred engine produces in
/// production.  Cache bypass keeps every iteration on this path, and the
/// breaker is disabled so no iteration short-circuits the blown attempt
/// (which would silently change what is being measured mid-run).  items/s is
/// degraded requests per second; compare BM_CompileServiceColdSolve for the
/// healthy-path cost.
void BM_DegradedFallbackLatency(benchmark::State& state) {
  static serve::CompileService* service = [] {
    serve::ServiceOptions options;
    options.fallback_chain = {"list"};
    options.default_solve_budget_seconds = 5e-4;
    options.breaker_failure_threshold = 0;  // disabled: iterations identical
    return new serve::CompileService(BatchBenchOptions(), options);
  }();
  const serve::CompileRequest request{
      .dag = BatchDags()[0],
      .num_stages = 4,
      .engine = "Annealing",
      .cache_policy = serve::CachePolicy::kBypass};
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Compile(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegradedFallbackLatency);

std::vector<serve::CompileRequest> BatchRequests(serve::Priority priority,
                                                 serve::CachePolicy policy) {
  std::vector<serve::CompileRequest> requests;
  for (const graph::Dag& dag : BatchDags()) {
    requests.push_back(serve::CompileRequest{.dag = dag,
                                             .num_stages = 4,
                                             .engine = "Annealing",
                                             .priority = priority,
                                             .cache_policy = policy});
  }
  return requests;
}

/// Batch-aware caching: a warm CompileBatch through the service answers the
/// whole batch from the shared cache (cf. BM_CompileBatchThroughput, which
/// re-solves every graph every time).
void BM_CompileServiceBatchWarm(benchmark::State& state) {
  static serve::CompileService* service =
      new serve::CompileService(BatchBenchOptions());
  const std::vector<serve::CompileRequest> requests = BatchRequests(
      serve::Priority::kBatch, serve::CachePolicy::kUse);
  benchmark::DoNotOptimize(service->CompileBatch(requests));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->CompileBatch(requests));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_CompileServiceBatchWarm);

/// The serving miss storm the grouped batch path exists for: every
/// iteration rolls the RL weights (ReplaceRl invalidates all 8 cached
/// entries) and refills them through CompileBatch — one grouped
/// lock-stepped attempt on the single worker, through the same cold path
/// (flight, disk/peer warm-up, SolveCold, publish) as every other miss.
/// Alternating between two premade snapshots keeps weight
/// (re)initialization out of the timed rollout.
void BM_MissStormRefill(benchmark::State& state) {
  serve::ServiceOptions options;
  options.num_threads = 1;  // isolate per-worker refill throughput
  serve::CompileService service(BatchBenchOptions(), options);
  const auto snapshot_a =
      std::make_shared<rl::RlScheduler>(BatchBenchOptions().net);
  const auto snapshot_b =
      std::make_shared<rl::RlScheduler>(BatchBenchOptions().net);
  std::vector<serve::CompileRequest> storm;
  for (const graph::Dag& dag : BatchDags()) {
    storm.push_back(serve::CompileRequest{
        .dag = dag, .num_stages = 4, .engine = "RESPECT"});
  }
  bool flip = false;
  for (auto _ : state) {
    service.ReplaceRl(flip ? snapshot_a : snapshot_b);  // the rollout
    flip = !flip;
    benchmark::DoNotOptimize(service.CompileBatch(storm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(storm.size()));
}
BENCHMARK(BM_MissStormRefill)->Unit(benchmark::kMillisecond);

/// Interactive latency under a batch flood: each iteration submits the full
/// 8-graph batch on the batch lane with cache bypass (every one a real
/// solve occupying the 2 workers), then one interactive request, and the
/// manual time is submit-to-complete for the interactive request alone.
/// Run with /fifo vs /lanes to see what the deadline-aware queue buys: on
/// the FIFO baseline the interactive request waits out the whole flood; on
/// the lane queue it overtakes everything still queued.
void MixedPriorityLoad(benchmark::State& state, bool fifo_queue) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.fifo_queue = fifo_queue;
  serve::CompileService service(BatchBenchOptions(), options);
  const std::vector<serve::CompileRequest> flood = BatchRequests(
      serve::Priority::kBatch, serve::CachePolicy::kBypass);
  const serve::CompileRequest interactive{
      .dag = BatchDags()[0],
      .num_stages = 4,
      .engine = "Annealing",
      .priority = serve::Priority::kInteractive,
      .cache_policy = serve::CachePolicy::kBypass};
  for (auto _ : state) {
    std::vector<serve::CompileService::Ticket> tickets;
    tickets.reserve(flood.size());
    for (const serve::CompileRequest& request : flood) {
      tickets.push_back(service.Submit(request));
    }
    const auto start = std::chrono::steady_clock::now();
    auto urgent = service.Submit(interactive);
    (void)urgent.Wait();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    for (auto& ticket : tickets) (void)ticket.Wait();  // drain, untimed
  }
}

void BM_MixedPriorityLoad_Fifo(benchmark::State& state) {
  MixedPriorityLoad(state, /*fifo_queue=*/true);
}
BENCHMARK(BM_MixedPriorityLoad_Fifo)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_MixedPriorityLoad_Lanes(benchmark::State& state) {
  MixedPriorityLoad(state, /*fifo_queue=*/false);
}
BENCHMARK(BM_MixedPriorityLoad_Lanes)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Adversarial tenant mix through the weighted-fair queue: tenant "mallory"
/// floods the single worker first, then "alice" (weight 2) and "bob" arrive
/// — under FIFO the late tenants would wait out the whole flood.  Reports
/// completed requests/s (the gated metric) plus two counters: Jain's
/// fairness index over weight-normalized per-tenant service rates and the
/// worst per-tenant p99 queue wait in milliseconds.
void BM_TenantFairness(benchmark::State& state) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.tenant_weights = {{"alice", 2.0}};  // bob/mallory default to 1
  serve::CompileService service(BatchBenchOptions(), options);
  const std::vector<std::pair<std::string, double>> tenants = {
      {"mallory", 1.0}, {"alice", 2.0}, {"bob", 1.0}};
  constexpr int kPerTenant = 12;

  double jain_min = 1.0;
  double worst_p99_seconds = 0.0;
  std::int64_t completed = 0;
  for (auto _ : state) {
    struct Pending {
      std::size_t tenant;
      serve::CompileService::Ticket ticket;
    };
    std::vector<Pending> pending;
    pending.reserve(tenants.size() * kPerTenant);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      for (int r = 0; r < kPerTenant; ++r) {
        pending.push_back(
            {t, service.Submit(serve::CompileRequest{
                    .dag = BatchDags()[(t * kPerTenant + r) %
                                       BatchDags().size()],
                    .num_stages = 4,
                    .engine = "Annealing",
                    .priority = serve::Priority::kNormal,
                    .cache_policy = serve::CachePolicy::kBypass,
                    .tenant = tenants[t].first})});
      }
    }
    std::vector<std::vector<double>> waits(tenants.size());
    for (auto& [tenant, ticket] : pending) {
      waits[tenant].push_back(ticket.WaitResponse().queue_wait_seconds);
      ++completed;
    }
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());

    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      double mean_wait = 0.0;
      for (const double w : waits[t]) mean_wait += w;
      mean_wait /= static_cast<double>(waits[t].size());
      const double rate = 1.0 / (mean_wait * tenants[t].second);
      sum += rate;
      sum_sq += rate * rate;
      worst_p99_seconds =
          std::max(worst_p99_seconds, serve::Percentile(waits[t], 0.99));
    }
    const double jain =
        sum_sq == 0.0
            ? 1.0
            : sum * sum / (static_cast<double>(tenants.size()) * sum_sq);
    jain_min = std::min(jain_min, jain);
  }
  state.SetItemsProcessed(completed);
  state.counters["jain"] = jain_min;
  state.counters["tenant_wait_p99_ms"] = worst_p99_seconds * 1e3;
}
BENCHMARK(BM_TenantFairness)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// One engine solve (SchedulerEngine::Schedule only — no post-processing or
/// packaging, the Fig. 3 quantity) per registered engine on a 30-node
/// training graph — registered dynamically so new engines show up here
/// without editing this file.
void EngineSolve(benchmark::State& state, const std::string& engine_name) {
  static const PipelineCompiler* compiler =
      new PipelineCompiler(BatchBenchOptions());
  const auto engine = engines::EngineRegistry::Global().Create(
      engine_name, compiler->MakeEngineContext());
  std::mt19937_64 rng(8);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  engines::EngineBudget budget;
  budget.max_expansions = 50'000;
  budget.time_limit_seconds = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Schedule(dag, constraints, budget));
  }
}

void RegisterEngineSolveBenchmarks() {
  for (const engines::EngineRegistration& registration :
       engines::EngineRegistry::Global().Registrations()) {
    benchmark::RegisterBenchmark(
        ("BM_EngineSolve/" + registration.name).c_str(),
        [name = registration.name](benchmark::State& state) {
          EngineSolve(state, name);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterEngineSolveBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
