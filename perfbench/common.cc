#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "deploy/package.h"
#include "deploy/quantize.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "obs/trace.h"
#include "rl/decode_workspace.h"
#include "rl/embedding.h"
#include "sched/device_aware.h"
#include "sched/postprocess.h"
#include "sched/rho.h"
#include "sched/schedule.h"
#include "tpu/sim.h"

namespace perfbench {

namespace fs = std::filesystem;
using respect::CompileResult;
using respect::graph::Dag;

// ── Metric lists ─────────────────────────────────────────────────────────

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_ops_s", "ops/s"},
      {"rss_mb", "MiB"},
      {"peak_param_ratio_geomean", "ratio"},
      {"pipeline_speedup_geomean", "ratio"},
  };
  return kMetrics;
}

// Spans whose busy fraction is reported (self time over the window).
const char* const kBusySpans[] = {
    "serve.request",  "serve.compile",     "serve.cache_probe",
    "serve.disk_probe", "serve.solve",     "serve.writeback",
    "serve.batch_group", "serve.peer_fetch", "store.read",
    "store.write",    "net.handle_compile", "net.forward",
};

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m = {
        {"graph.hash_us_p50", "us"},
        {"serve.key_us_p50", "us"},
        {"serve.submit_us_p50", "us"},
        {"serve.cache_probe_us_p50", "us"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p99", "ms"},
        {"serve.hit_frac", "ratio"},
        {"serve.disk_hit_frac", "ratio"},
        {"serve.miss_frac", "ratio"},
        {"serve.collapsed_frac", "ratio"},
        {"serve.evictions", "count"},
        {"serve.admission_rejected", "count"},
        {"serve.solve_ms_p50", "ms"},
        {"serve.solve_ms_p99", "ms"},
        {"serve.batch_solved_frac", "ratio"},
        {"serve.batch_group_size_mean", "count"},
        {"serve.invalidations", "count"},
        {"store.read_us_p50", "us"},
        {"store.write_us_p50", "us"},
        {"store.writes", "count"},
        {"store.write_failures", "count"},
        {"store.corrupt_dropped", "count"},
        {"engines.solve_ms_p50", "ms"},
        {"engines.layer_sum_frac", "ratio"},
        {"graph.topology_ms_p50", "ms"},
        {"rl.embed_ms_p50", "ms"},
        {"rl.decode_ms_p50", "ms"},
        {"sched.pack_ms_p50", "ms"},
        {"sched.repair_ms_p50", "ms"},
        {"sched.rebalance_ms_p50", "ms"},
        {"deploy.package_ms_p50", "ms"},
        {"net.ping_us_p50", "us"},
        {"net.forward_us_p50", "us"},
        {"net.forward_frac", "ratio"},
        {"net.peer_hit_frac", "ratio"},
        {"net.forward_failures", "count"},
        {"net.protocol_errors", "count"},
        {"net.request_bytes_mean", "bytes"},
        {"net.response_bytes_mean", "bytes"},
    };
    // Names must outlive the vector: keep them in a static pool.
    static std::vector<std::string> busy_names;
    for (const char* span : kBusySpans) {
      busy_names.push_back(std::string(span) + ".busy_frac");
    }
    for (const std::string& name : busy_names) {
      m.push_back({name.c_str(), "ratio"});
    }
    m.push_back({"loadgen.lag_ms_p99", "ms"});
    m.push_back({"obs.trace_overhead_frac", "ratio"});
    m.push_back({"obs.dropped_events", "count"});
    return m;
  }();
  return kMetrics;
}

// ── Report ───────────────────────────────────────────────────────────────

void Report::Set(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name] = value;
}

void Report::SetExtra(const std::string& name, double value,
                      const std::string& unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  extras_[name] = {value, unit};
}

void Report::SetIfAbsent(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_.emplace(name, value);
}

bool Report::Has(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return values_.count(name) != 0;
}

void Report::Fail(const std::string& why) {
  CountOp(false);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (logged_failures_++ < 10) std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void Report::Note(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  notes_.push_back(line);
}

int Report::Print(const std::string& workload, bool trace) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<MetricSpec>& promised =
      trace ? LayerMetrics() : EndToEndMetrics();
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  const std::uint64_t attempted = attempted_.load();
  const std::uint64_t failed = failed_.load();
  const double fail_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("%-32s %-8s %s\n", "metric", "unit", workload.c_str());
  std::printf("%-32s %-8s %.6g\n", "fail_frac", "ratio", fail_frac);
  bool missing = false;
  std::string json;
  for (const MetricSpec& spec : promised) {
    const auto it = values_.find(spec.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      missing = true;
      continue;
    }
    std::printf("%-32s %-8s %.6g\n", spec.name, spec.unit, it->second);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    json += buf;
  }
  for (const auto& [name, extra] : extras_) {
    std::printf("%-32s %-8s %.6g\n", name.c_str(), extra.second.c_str(),
                extra.first);
  }
  const bool correct = failed == 0 && attempted > 0 && !missing;
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ── Process and file system ──────────────────────────────────────────────

namespace {

long ResidentPages() {
  long size = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident;
}

}  // namespace

RssSampler::RssSampler()
    : thread_([this] {
        const double page_mb =
            static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
        while (running_.load()) {
          {
            const std::lock_guard<std::mutex> lock(mutex_);
            samples_mb_.push_back(static_cast<double>(ResidentPages()) * page_mb);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

RssSampler::~RssSampler() { Join(); }

void RssSampler::Join() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

void RssSampler::Stop(Report& report) {
  Join();
  const std::lock_guard<std::mutex> lock(mutex_);
  report.Set("rss_mb", Median(samples_mb_));
  report.SetExtra("peak_rss_mb",
                  *std::max_element(samples_mb_.begin(), samples_mb_.end()),
                  "MiB");
}

void TrimHeap() { ::malloc_trim(0); }

ScratchDir::ScratchDir(const std::string& root, const std::string& name) {
  path_ = (fs::path(root) / (name + "-" + std::to_string(::getpid()))).string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string ScratchDir::Sub(const std::string& name) const {
  const fs::path sub = fs::path(path_) / name;
  fs::remove_all(sub);
  fs::create_directories(sub);
  return sub.string();
}

// ── Catalog ──────────────────────────────────────────────────────────────

namespace {

/// Node counts: three common sizes share lock-stepped decodes; the rest are
/// scattered sizes that mostly appear once per batch (stragglers).
int DrawNodeCount(std::mt19937_64& rng) {
  static const int kCommon[] = {16, 24, 32};
  const double u = Uniform01(rng);
  if (u < 0.9) return kCommon[rng() % 3];
  return 17 + static_cast<int>(rng() % 15);  // 17..31
}

}  // namespace

Catalog BuildCatalog(std::uint64_t seed, const respect::PipelineCompiler& compiler,
                     int threads) {
  Catalog catalog;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  catalog.entries.resize(kCatalogSize);
  for (Entry& entry : catalog.entries) {
    const int nodes = DrawNodeCount(rng);
    entry.dag = respect::graph::SampleTrainingDag(nodes, rng);
    entry.engine = Uniform01(rng) < 0.8 ? kRlEngine : kDetEngine;
    entry.num_stages = 4;
  }
  catalog.by_rank.resize(kCatalogSize);
  for (std::size_t i = 0; i < kCatalogSize; ++i) catalog.by_rank[i] = i;
  std::shuffle(catalog.by_rank.begin(), catalog.by_rank.end(), rng);
  catalog.zipf = std::make_unique<Zipf>(kCatalogSize, 1.0);

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, threads); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < catalog.entries.size(); i = next++) {
        Entry& entry = catalog.entries[i];
        entry.reference =
            compiler.Compile(entry.dag, entry.num_stages, entry.engine);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return catalog;
}

std::unique_ptr<ServingState> SetUpServing(std::uint64_t seed,
                                           const std::string& store_dir,
                                           std::size_t warm_draws,
                                           Report& report) {
  auto state = std::make_unique<ServingState>();
  {
    const respect::PipelineCompiler compiler;
    state->catalog = BuildCatalog(seed, compiler, 3);
  }
  respect::serve::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = kMemoryEntries;
  options.cache_dir = store_dir;
  state->service = std::make_unique<respect::serve::CompileService>(
      respect::CompilerOptions{}, options);

  const std::vector<Entry>& entries = state->catalog.entries;
  std::vector<respect::serve::CompileRequest> requests;
  requests.reserve(entries.size());
  for (const Entry& entry : entries) requests.push_back(RequestFor(entry));
  const std::vector<respect::serve::CompileResponse> filled =
      state->service->CompileBatch(requests);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::string why;
    if (MatchesReference(entries[i].dag, entries[i].num_stages,
                         filled[i].result.get(), entries[i].reference, &why)) {
      report.Pass();
    } else {
      report.Fail("prefill entry " + std::to_string(i) + ": " + why);
    }
  }
  state->service->FlushStore();
  state->service->ClearCache();

  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < warm_draws; ++i) {
    (void)state->service->Compile(requests[state->catalog.Draw(rng)]);
  }
  return state;
}

respect::serve::CompileRequest RequestFor(const Entry& entry,
                                          respect::serve::Priority priority) {
  respect::serve::CompileRequest request;
  request.dag = entry.dag;
  request.num_stages = entry.num_stages;
  request.engine = entry.engine;
  request.priority = priority;
  return request;
}

bool MatchesReference(const Dag& dag, int num_stages, const CompileResult* got,
                      const CompileResult& reference, std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (got == nullptr) return fail("no result");
  respect::sched::PipelineConstraints constraints;
  constraints.num_stages = num_stages;
  const respect::sched::ValidationResult valid =
      respect::sched::ValidateSchedule(dag, got->schedule, constraints);
  if (!valid.ok) return fail("invalid schedule");
  if (got->schedule.num_stages != reference.schedule.num_stages ||
      got->schedule.stage != reference.schedule.stage) {
    return fail("schedule differs from reference");
  }
  if (got->peak_stage_param_bytes != reference.peak_stage_param_bytes ||
      got->package.segments.size() != reference.package.segments.size()) {
    return fail("package differs from reference");
  }
  return true;
}

// ── Quality ──────────────────────────────────────────────────────────────

Quality QualityOf(const Dag& dag, int num_stages, const CompileResult& result) {
  const Dag quantized = respect::deploy::QuantizeGraph(dag);
  std::int64_t largest = 0;
  std::int64_t total = 0;
  for (int v = 0; v < quantized.NodeCount(); ++v) {
    largest = std::max(largest, quantized.Attr(v).param_bytes);
    total += quantized.Attr(v).param_bytes;
  }
  const std::int64_t bound =
      std::max(largest, (total + num_stages - 1) / num_stages);
  Quality q;
  q.peak_param_ratio = bound > 0 ? static_cast<double>(result.peak_stage_param_bytes) /
                                       static_cast<double>(bound)
                                 : 1.0;
  respect::sched::Schedule single;
  single.num_stages = 1;
  single.stage.assign(dag.NodeCount(), 0);
  const double single_us =
      respect::tpu::SimulatePipeline(respect::deploy::BuildPackage(dag, single))
          .per_inference_us;
  q.sim_us = respect::tpu::SimulatePipeline(result.package).per_inference_us;
  q.pipeline_speedup = single_us / q.sim_us;
  return q;
}

void ReportQuality(const std::vector<Quality>& cells, Report& report) {
  std::vector<double> ratio, speedup, sim;
  for (const Quality& q : cells) {
    ratio.push_back(q.peak_param_ratio);
    speedup.push_back(q.pipeline_speedup);
    sim.push_back(q.sim_us);
  }
  report.Set("peak_param_ratio_geomean", GeoMean(ratio));
  report.Set("pipeline_speedup_geomean", GeoMean(speedup));
  report.SetExtra("sim_us_geomean", GeoMean(sim), "us");
  report.Note("quality over " + std::to_string(cells.size()) + " cells");
}

// ── Span collection ──────────────────────────────────────────────────────

SpanCollector::~SpanCollector() { Stop(); }

void SpanCollector::Start() {
  respect::obs::Tracer& tracer = respect::obs::Tracer::Global();
  (void)tracer.Drain();  // discard anything recorded before this window
  dropped_at_start_ = tracer.Dropped();
  started_ = Clock::now();
  running_ = true;
  tracer.Start();
  drainer_ = std::thread([this] {
    while (running_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      DrainOnce();
    }
  });
}

void SpanCollector::Stop() {
  if (!running_.exchange(false)) return;
  drainer_.join();
  respect::obs::Tracer& tracer = respect::obs::Tracer::Global();
  tracer.Stop();
  wall_s_ = SecondsBetween(started_, Clock::now());
  DrainOnce();
  dropped_ = tracer.Dropped() - dropped_at_start_;
}

void SpanCollector::DrainOnce() {
  const std::lock_guard<std::mutex> lock(drain_mutex_);
  aggregator_.Add(respect::obs::Tracer::Global().Drain());
}

double SpanCollector::SelfP50Us(const std::string& name) const {
  return SelfTailUs(name, 0.5);
}

double SpanCollector::SelfTailUs(const std::string& name, double q) const {
  const SpanAggregator::Stats* stats = aggregator_.Find(name);
  if (stats == nullptr || stats->self_us.empty()) return -1.0;
  std::vector<double> sorted = stats->self_us;
  std::sort(sorted.begin(), sorted.end());
  return q == 0.5 ? NearestRank(sorted, q) : TailPercentile(sorted, q).value;
}

double SpanCollector::BusyFrac(const std::string& name) const {
  const SpanAggregator::Stats* stats = aggregator_.Find(name);
  if (stats == nullptr || wall_s_ <= 0.0) return 0.0;
  return stats->self_total_us /
         (wall_s_ * 1e6 * static_cast<double>(stats->tids.size()));
}

void ReportSpanLayers(const SpanCollector& spans, Report& report) {
  const auto set_us = [&](const char* metric, const char* span) {
    const double us = spans.SelfP50Us(span);
    if (us >= 0.0) report.Set(metric, us);
  };
  set_us("store.read_us_p50", "store.read");
  set_us("store.write_us_p50", "store.write");
  set_us("net.forward_us_p50", "net.forward");
  for (const char* span : kBusySpans) {
    report.Set(std::string(span) + ".busy_frac", spans.BusyFrac(span));
  }
  report.Set("obs.dropped_events", static_cast<double>(spans.Dropped()));
}

// ── Rebuilt pipeline ─────────────────────────────────────────────────────

respect::sched::Schedule RebuildPipeline(const respect::PipelineCompiler& compiler,
                                         const Dag& dag, int num_stages,
                                         LayerTimes& times) {
  thread_local respect::rl::DecodeWorkspace workspace;
  thread_local respect::nn::Tensor embedding;
  const std::shared_ptr<const respect::rl::RlScheduler> rl = compiler.Rl();
  respect::sched::PipelineConstraints constraints;
  constraints.num_stages = num_stages;

  Clock::time_point t0 = Clock::now();
  const respect::graph::TopoInfo topo = respect::graph::AnalyzeTopology(dag);
  Clock::time_point t1 = Clock::now();
  times.topology_ms = MsBetween(t0, t1);

  t0 = Clock::now();
  respect::rl::EmbedGraphInto(dag, rl->Agent().Config().embedding, topo,
                              embedding);
  t1 = Clock::now();
  times.embed_ms = MsBetween(t0, t1);

  // DecodeGreedy analyzes and embeds the graph again internally; its self
  // time is what remains after those two passes.
  t0 = Clock::now();
  const std::vector<respect::graph::NodeId> sequence =
      rl->Agent().DecodeGreedy(dag, workspace);
  t1 = Clock::now();
  times.decode_ms =
      std::max(0.0, MsBetween(t0, t1) - times.topology_ms - times.embed_ms);

  t0 = Clock::now();
  respect::sched::Schedule schedule =
      respect::sched::PackSequence(dag, sequence, num_stages);
  t1 = Clock::now();
  times.pack_ms = MsBetween(t0, t1);

  t0 = Clock::now();
  respect::sched::PostProcess(dag, constraints, schedule);
  t1 = Clock::now();
  times.repair_ms = MsBetween(t0, t1);

  t0 = Clock::now();
  respect::sched::RebalanceForProfile(dag, constraints, schedule, 0.25);
  t1 = Clock::now();
  times.rebalance_ms = MsBetween(t0, t1);

  t0 = Clock::now();
  const respect::deploy::PipelinePackage package =
      respect::deploy::BuildPackage(dag, schedule, true);
  t1 = Clock::now();
  times.package_ms = MsBetween(t0, t1);
  (void)package;
  return schedule;
}

void LayerSamples::Add(const LayerTimes& t) {
  topology.push_back(t.topology_ms);
  embed.push_back(t.embed_ms);
  decode.push_back(t.decode_ms);
  pack.push_back(t.pack_ms);
  repair.push_back(t.repair_ms);
  rebalance.push_back(t.rebalance_ms);
  package.push_back(t.package_ms);
}

void LayerSamples::Report(perfbench::Report& report, bool fill_only) const {
  const auto put = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    if (fill_only) {
      report.SetIfAbsent(name, Median(v));
    } else {
      report.Set(name, Median(v));
    }
  };
  put("graph.topology_ms_p50", topology);
  put("rl.embed_ms_p50", embed);
  put("rl.decode_ms_p50", decode);
  put("sched.pack_ms_p50", pack);
  put("sched.repair_ms_p50", repair);
  put("sched.rebalance_ms_p50", rebalance);
  put("deploy.package_ms_p50", package);
}

// ── Fleet ────────────────────────────────────────────────────────────────

void Shard::Stop() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
}

std::unique_ptr<Shard> StartShard(const respect::serve::ServiceOptions& options,
                                  int port, std::uint32_t shard_id) {
  auto shard = std::make_unique<Shard>();
  shard->service = std::make_unique<respect::serve::CompileService>(
      respect::CompilerOptions{}, options);
  respect::net::FleetServerOptions server_options;
  server_options.port = port;
  server_options.num_threads = 8;
  server_options.shard_id = shard_id;
  shard->server = std::make_unique<respect::net::FleetServer>(*shard->service,
                                                              server_options);
  return shard;
}

std::vector<std::string> JoinFleet(
    const std::vector<std::unique_ptr<Shard>>& shards) {
  std::vector<std::string> members;
  for (const auto& shard : shards) {
    members.push_back("127.0.0.1:" + std::to_string(shard->server->Port()));
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i]->server->SetMembers(members, members[i]);
  }
  return members;
}

// ── Service counters and catalog samples ─────────────────────────────────

void ReportServiceDeltas(const respect::serve::ServiceMetrics& before,
                         const respect::serve::ServiceMetrics& after,
                         Report& report) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.Set("serve.evictions", delta(before.evictions, after.evictions));
  report.Set("serve.admission_rejected",
             delta(before.admission_rejected, after.admission_rejected));
  report.Set("serve.invalidations",
             delta(before.invalidations, after.invalidations));
  const double solved = delta(before.batch_solved, after.batch_solved);
  const double single = delta(before.batch_single, after.batch_single);
  const double groups = delta(before.batch_groups, after.batch_groups);
  report.Set("serve.batch_solved_frac",
             solved + single > 0.0 ? solved / (solved + single) : 0.0);
  report.Set("serve.batch_group_size_mean", groups > 0.0 ? solved / groups : 0.0);
  report.Set("store.writes", delta(before.store.writes, after.store.writes));
  report.Set("store.write_failures",
             delta(before.store.write_failures, after.store.write_failures));
  report.Set("store.corrupt_dropped",
             delta(before.store.corrupt_dropped, after.store.corrupt_dropped));
}

void Outcomes::Add(const respect::serve::CompileResponse& response) {
  ++counts[static_cast<std::size_t>(response.outcome)];
  if (response.solve_seconds > 0.0) {
    solve_ms.push_back(response.solve_seconds * 1e3);
  }
  if (response.queue_wait_seconds > 0.0) {
    queue_wait_ms.push_back(response.queue_wait_seconds * 1e3);
  }
}

void Outcomes::Merge(const Outcomes& other) {
  for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += other.counts[k];
  solve_ms.insert(solve_ms.end(), other.solve_ms.begin(),
                  other.solve_ms.end());
  queue_wait_ms.insert(queue_wait_ms.end(), other.queue_wait_ms.begin(),
                       other.queue_wait_ms.end());
}

void Outcomes::Report(perfbench::Report& report) const {
  using respect::serve::CacheOutcome;
  double total = 0.0;
  for (const std::uint64_t n : counts) total += static_cast<double>(n);
  const auto frac = [&](CacheOutcome o) {
    return total > 0.0
               ? static_cast<double>(counts[static_cast<std::size_t>(o)]) / total
               : 0.0;
  };
  report.Set("serve.hit_frac", frac(CacheOutcome::kHit));
  report.Set("serve.disk_hit_frac", frac(CacheOutcome::kDiskHit));
  report.Set("serve.miss_frac", frac(CacheOutcome::kMiss));
  report.Set("serve.collapsed_frac", frac(CacheOutcome::kCollapsed));
  report.Set("net.peer_hit_frac", frac(CacheOutcome::kPeerHit));
  if (!solve_ms.empty()) {
    report.Set("serve.solve_ms_p50", Quantile(solve_ms, 0.5));
    report.Set("serve.solve_ms_p99", Quantile(solve_ms, 0.99));
  }
  if (!queue_wait_ms.empty()) {
    report.Set("serve.queue_wait_ms_p50", Quantile(queue_wait_ms, 0.5));
    report.Set("serve.queue_wait_ms_p99", Quantile(queue_wait_ms, 0.99));
  }
}

std::vector<const Entry*> PopularSample(const Catalog& catalog, std::size_t n) {
  std::vector<const Entry*> sample;
  for (std::size_t r = 0; r < n && r < catalog.by_rank.size(); ++r) {
    sample.push_back(&catalog.entries[catalog.by_rank[r]]);
  }
  return sample;
}

void ReportCatalogQuality(const Catalog& catalog, Report& report) {
  std::vector<Quality> cells;
  for (const Entry& e : catalog.entries) {
    cells.push_back(QualityOf(e.dag, e.num_stages, e.reference));
  }
  ReportQuality(cells, report);
}

// ── Windows ──────────────────────────────────────────────────────────────

void Window::ReportEndToEnd(Report& report) const {
  std::vector<double> ordered = latency_ms;
  if (at_s.size() == latency_ms.size()) {
    std::vector<std::size_t> index(latency_ms.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    std::sort(index.begin(), index.end(),
              [&](std::size_t a, std::size_t b) { return at_s[a] < at_s[b]; });
    for (std::size_t i = 0; i < index.size(); ++i) {
      ordered[i] = latency_ms[index[i]];
    }
  }
  const std::size_t n = ordered.size();
  const std::size_t chunks = std::clamp<std::size_t>(n / 1000, 1, 10);
  std::vector<double> p50s, p90s, p99s;
  Tail tail;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> part(ordered.begin() + c * n / chunks,
                             ordered.begin() + (c + 1) * n / chunks);
    std::sort(part.begin(), part.end());
    p50s.push_back(NearestRank(part, 0.5));
    p90s.push_back(TailPercentile(part, 0.9).value);
    tail = TailPercentile(part, 0.99);
    p99s.push_back(tail.value);
  }
  if (!report.Has("latency_p50_ms")) report.Set("latency_p50_ms", Median(p50s));
  report.Set("latency_p90_ms", Median(p90s));
  report.SetExtra("latency_p99_ms", Median(p99s), "ms");
  report.Set("throughput_ops_s",
             wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0);
  char line[200];
  std::snprintf(line, sizeof(line),
                "latency: %zu samples; p50, p90 and p%.4g (%zu beyond) in "
                "each of %zu sub-window(s), medians reported",
                n, tail.q * 100.0, tail.beyond, chunks);
  report.Note(line);
}

}  // namespace perfbench
