// Shared plumbing of the repository benchmark: arguments, the report that
// prints every metric by name and unit, the seeded request catalog with its
// out-of-service references, output checks, the span collector, and the
// RESPECT pipeline rebuilt from public layer functions.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/respect.h"
#include "graph/dag.h"
#include "net/fleet_server.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

/// Every metric of one run, plus the op and check counts.  Print() emits a
/// human-readable table row and, as the last line, the JSON object with
/// exactly the metrics the mode promises (end-to-end untraced, per-layer
/// traced).
class Report {
 public:
  void Set(const std::string& name, double value);
  /// A metric printed in the table only, not in the JSON line (measured on
  /// some workloads, or constant on a correct run).
  void SetExtra(const std::string& name, double value, const std::string& unit);
  /// Sets only when no value is present (probe results never override what
  /// the workload's own traced window measured).
  void SetIfAbsent(const std::string& name, double value);
  [[nodiscard]] bool Has(const std::string& name) const;

  /// One timed operation: `ok` false when it raised a typed error, returned
  /// an invalid schedule, or disagreed with its reference.
  void CountOp(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A failed output check (logged to stderr, the first few verbatim).
  void Fail(const std::string& why);
  /// A passed set-up check.
  void Pass() { attempted_.fetch_add(1, std::memory_order_relaxed); }

  /// A line printed above the table (sample counts, percentiles used).
  void Note(const std::string& line);

  /// Prints the notes, the table row and the JSON line; returns the exit
  /// code (non-zero when any check failed or a promised metric is missing).
  int Print(const std::string& workload, bool trace) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
  std::map<std::string, std::pair<double, std::string>> extras_;
  std::vector<std::string> notes_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  int logged_failures_ = 0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metric lists (BENCHMARK.json mirrors them).
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& LayerMetrics();

/// Samples this process's resident set size every 10 ms while running.
/// Stop() sets rss_mb (the median sample) and the table-only peak_rss_mb
/// (the highest), in MiB.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void Stop(Report& report);

 private:
  void Join();

  std::mutex mutex_;
  std::vector<double> samples_mb_;
  std::atomic<bool> running_{true};
  std::thread thread_;  // last: starts after the members it updates
};

/// A private directory under the work root, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& Path() const { return path_; }
  /// A fresh empty subdirectory.
  [[nodiscard]] std::string Sub(const std::string& name) const;

 private:
  std::string path_;
};

/// The engines of the catalog workloads: most requests go to the RL
/// scheduler, a share to one deterministic engine.
inline constexpr const char* kRlEngine = "RESPECT";
inline constexpr const char* kDetEngine = "GreedyBalance";

struct Entry {
  respect::graph::Dag dag;
  std::string engine;
  int num_stages = 4;
  respect::CompileResult reference;  // PipelineCompiler::Compile, in set-up
};

/// Seeded catalog of synthetic training-distribution graphs with Zipf(1)
/// popularity over a seeded permutation of the entries.
struct Catalog {
  std::vector<Entry> entries;
  std::vector<std::size_t> by_rank;  // popularity rank -> entry index
  std::unique_ptr<Zipf> zipf;

  [[nodiscard]] std::size_t Draw(std::mt19937_64& rng) const {
    return by_rank[zipf->Draw(rng)];
  }
};

/// Catalog size (memory caches in the serving workloads hold a quarter).
inline constexpr std::size_t kCatalogSize = 1024;
inline constexpr std::size_t kMemoryEntries = 256;

/// Builds the catalog for `seed` and computes every reference with
/// PipelineCompiler::Compile outside any service, on `threads` threads.
Catalog BuildCatalog(std::uint64_t seed, const respect::PipelineCompiler& compiler,
                     int threads);

/// A catalog behind a 2-worker CompileService whose disk tier holds every
/// entry and whose memory tier (a quarter of the catalog) is warm.
struct ServingState {
  Catalog catalog;
  std::unique_ptr<respect::serve::CompileService> service;
};

/// Builds the catalog and its references, prefills the disk tier at
/// `store_dir` through CompileService::CompileBatch (checking every result
/// against its reference), drops the memory tier and re-warms it with
/// `warm_draws` seeded Zipf requests.
std::unique_ptr<ServingState> SetUpServing(std::uint64_t seed,
                                           const std::string& store_dir,
                                           std::size_t warm_draws,
                                           Report& report);

respect::serve::CompileRequest RequestFor(const Entry& entry,
                                          respect::serve::Priority priority =
                                              respect::serve::Priority::kNormal);

/// Valid for the entry's graph and equal to its reference; `why` says which.
bool MatchesReference(const respect::graph::Dag& dag, int num_stages,
                      const respect::CompileResult* got,
                      const respect::CompileResult& reference,
                      std::string* why = nullptr);

/// Paper quality of one compiled cell: peak stage parameter bytes over the
/// order-free lower bound max(largest node, ceil(total / k)) (Fig. 5
/// proxy), and single-device over k-stage simulated per-inference runtime
/// (Fig. 4 quantity as a pipelining speed-up).
struct Quality {
  double peak_param_ratio = 0.0;
  double pipeline_speedup = 0.0;
  double sim_us = 0.0;
};
Quality QualityOf(const respect::graph::Dag& dag, int num_stages,
                  const respect::CompileResult& result);

/// Sets peak_param_ratio_geomean / pipeline_speedup_geomean (and the
/// table-only sim_us_geomean) from the given cells.
void ReportQuality(const std::vector<Quality>& cells, Report& report);

/// Arms the global tracer and drains it on a background thread often
/// enough that the per-thread rings never fill.
class SpanCollector {
 public:
  SpanCollector() = default;
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Start();
  void Stop();

  [[nodiscard]] std::uint64_t Dropped() const { return dropped_; }

  /// Self-time quantiles (us) of `name`; negative when the span is absent.
  [[nodiscard]] double SelfP50Us(const std::string& name) const;
  [[nodiscard]] double SelfTailUs(const std::string& name, double q) const;
  /// Summed self time / (wall x emitting threads) over the collected window.
  [[nodiscard]] double BusyFrac(const std::string& name) const;

 private:
  void DrainOnce();

  SpanAggregator aggregator_;
  std::mutex drain_mutex_;
  std::atomic<bool> running_{false};
  std::thread drainer_;
  std::uint64_t dropped_at_start_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point started_{};
  double wall_s_ = 0.0;
};

/// Span-derived per-layer metrics: p50 self time of the store and forward
/// spans (all well above the spans' 1 us resolution), the busy fraction of
/// each reported span, and dropped events.
void ReportSpanLayers(const SpanCollector& spans, Report& report);

/// Per-layer times of one RESPECT compile rebuilt from public functions.
struct LayerTimes {
  double topology_ms = 0.0;
  double embed_ms = 0.0;
  double decode_ms = 0.0;  // decode self time (its own topology + embed
                           // passes subtracted)
  double pack_ms = 0.0;
  double repair_ms = 0.0;
  double rebalance_ms = 0.0;
  double package_ms = 0.0;
  [[nodiscard]] double Sum() const {
    return topology_ms + embed_ms + decode_ms + pack_ms + repair_ms +
           rebalance_ms + package_ms;
  }
};

/// Runs graph::AnalyzeTopology, rl::EmbedGraphInto, PtrNetAgent::DecodeGreedy,
/// sched::PackSequence, sched::PostProcess, sched::RebalanceForProfile and
/// deploy::BuildPackage in PipelineCompiler's order; returns the schedule.
respect::sched::Schedule RebuildPipeline(const respect::PipelineCompiler& compiler,
                                         const respect::graph::Dag& dag,
                                         int num_stages, LayerTimes& times);

/// Per-layer sample vectors collected by the rebuilt pipeline.
struct LayerSamples {
  std::vector<double> topology, embed, decode, pack, repair, rebalance,
      package;
  void Add(const LayerTimes& t);
  /// Sets graph.topology_ms_p50 ... deploy.package_ms_p50 (SetIfAbsent
  /// when `fill_only`).
  void Report(perfbench::Report& report, bool fill_only) const;
};

/// Sets the ServiceMetrics/StoreMetrics counter deltas of a window
/// (evictions, admission rejections, invalidations, grouped-decode shares,
/// store writes and failures).
void ReportServiceDeltas(const respect::serve::ServiceMetrics& before,
                         const respect::serve::ServiceMetrics& after,
                         Report& report);

/// Cache outcomes of a window's responses, with the solve time of every
/// response that ran a solve and the queue wait of every queued one
/// (CompileResponse provenance).
struct Outcomes {
  std::array<std::uint64_t, 8> counts{};
  std::vector<double> solve_ms;
  std::vector<double> queue_wait_ms;
  void Add(const respect::serve::CompileResponse& response);
  void Merge(const Outcomes& other);
  /// Sets serve.{hit,disk_hit,miss,collapsed}_frac and net.peer_hit_frac,
  /// serve.solve_ms_p50/p99 when the window solved anything and
  /// serve.queue_wait_ms_p50/p99 when anything queued.
  void Report(perfbench::Report& report) const;
};

/// The `n` most popular catalog entries.
std::vector<const Entry*> PopularSample(const Catalog& catalog, std::size_t n);

/// Quality metrics over every catalog entry.
void ReportCatalogQuality(const Catalog& catalog, Report& report);

/// One in-process fleet shard: a CompileService fronted by a FleetServer
/// on a loopback port.
struct Shard {
  std::unique_ptr<respect::serve::CompileService> service;
  std::unique_ptr<respect::net::FleetServer> server;
  /// Stops the server before destroying the service it fronts.
  void Stop();
  ~Shard() { Stop(); }
};

/// Starts a shard on `port` (0 = ephemeral).
std::unique_ptr<Shard> StartShard(const respect::serve::ServiceOptions& options,
                                  int port, std::uint32_t shard_id);

/// Installs the membership of every shard; returns the member addresses.
std::vector<std::string> JoinFleet(const std::vector<std::unique_ptr<Shard>>& shards);

/// Times every layer's public calls on a sample of the workload's inputs
/// and fills each per-layer metric the workload's traced window did not
/// measure itself.
void ProbeLayers(const std::vector<const Entry*>& sample, const std::string& dir,
                 Report& report);

/// Runs `setup` `reps` times (keeping the last result) and reports setup_s
/// as the median wall time of one set-up.  Afterwards the allocator returns
/// set-up's freed memory to the system, so the window's RSS reflects the
/// state it serves from rather than which set-up left the most behind.
void TrimHeap();

template <typename T>
std::unique_ptr<T> RepeatSetup(int reps, Report& report,
                               const std::function<std::unique_ptr<T>()>& setup) {
  std::vector<double> times;
  std::unique_ptr<T> state;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = setup();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  report.Set("setup_s", Median(times));
  TrimHeap();
  return state;
}

/// Latency samples (ms) of one window with its length and op count.
/// ReportEndToEnd sets throughput_ops_s, and latency_p50_ms (unless the
/// workload set its own), latency_p90_ms and the table-only latency_p99_ms
/// as the median over up to ten consecutive sub-windows of at least 1000
/// samples each (one window when it is smaller), so one preempted stretch
/// of the run moves one sub-window's percentiles rather than the reported
/// ones.
struct Window {
  std::vector<double> latency_ms;
  /// Seconds since the window opened at which each sample was sent (or
  /// due); empty when `latency_ms` is already in time order.
  std::vector<double> at_s;
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  void ReportEndToEnd(Report& report) const;
};

/// The workloads.
void RunZooCompile(const Args& args, Report& report);
void RunServeZipf(const Args& args, Report& report);
void RunRolloutRefill(const Args& args, Report& report);
void RunFleetForward(const Args& args, Report& report);

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
