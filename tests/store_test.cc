// Persistent schedule-cache store (serve/store) correctness: DiskStore
// spill files must round-trip CompileResults byte-faithfully, every
// corruption mode (truncation, zero-byte, bit flips, bad magic, wrong
// format version) must be a clean miss that quarantines the file — never a
// crash or a wrong answer — TinyLFU admission must keep one-hit-wonder
// scans from flushing hot entries while sketch halving keeps admitting
// after long runs, TTLs must lazily expire both tiers, and a restarted
// CompileService pointed at a populated cache directory must answer a
// previously-solved request with CacheOutcome::kDiskHit and ZERO engine
// solves.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "core/respect.h"
#include "deploy/package.h"
#include "deploy/pod_io.h"
#include "engines/registry.h"
#include "graph/canonical_hash.h"
#include "graph/sampler.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "serve/store/disk_store.h"
#include "serve/store/tinylfu.h"

namespace respect {
namespace {

namespace fs = std::filesystem;

using serve::CachePolicy;
using serve::CacheOutcome;
using serve::CompileRequest;
using serve::CompileResponse;
using serve::ResultPtr;
using serve::store::DiskStore;
using serve::store::DiskStoreOptions;
using serve::store::SpillMeta;
using serve::store::TinyLfuAdmission;

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

/// Deterministic fast engine that counts its solves, so restart tests can
/// assert an answer came from disk and not from any engine work.
class StoreCountingEngine : public engines::SchedulerEngine {
 public:
  static std::atomic<int>& Solves() {
    static std::atomic<int> solves{0};
    return solves;
  }

  [[nodiscard]] engines::EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const engines::EngineBudget&) const override {
    Solves().fetch_add(1);
    engines::EngineResult result;
    result.schedule.num_stages = constraints.num_stages;
    result.schedule.stage.assign(dag.NodeCount(), 0);
    return result;
  }
};

void EnsureStoreCountingEngine() {
  engines::EngineRegistry& registry = engines::EngineRegistry::Global();
  if (!registry.Contains("StoreCounting")) {
    registry.Register({"StoreCounting", "", "test-only counting engine",
                       [](const engines::EngineContext&) {
                         return std::make_unique<StoreCountingEngine>();
                       }});
  }
  StoreCountingEngine::Solves().store(0);
}

/// Everything deterministic about a CompileResult.
void ExpectSameResult(const CompileResult& a, const CompileResult& b) {
  EXPECT_EQ(a.schedule.num_stages, b.schedule.num_stages);
  EXPECT_EQ(a.schedule.stage, b.schedule.stage);
  EXPECT_EQ(a.peak_stage_param_bytes, b.peak_stage_param_bytes);
  EXPECT_EQ(a.proved_optimal, b.proved_optimal);
  EXPECT_EQ(a.package.model_name, b.package.model_name);
  EXPECT_EQ(a.package.num_stages, b.package.num_stages);
  EXPECT_EQ(a.package.quantized, b.package.quantized);
  EXPECT_EQ(a.package.host_input_bytes, b.package.host_input_bytes);
  EXPECT_EQ(a.package.host_output_bytes, b.package.host_output_bytes);
  ASSERT_EQ(a.package.segments.size(), b.package.segments.size());
  for (std::size_t s = 0; s < a.package.segments.size(); ++s) {
    EXPECT_EQ(a.package.segments[s].ops, b.package.segments[s].ops);
    EXPECT_EQ(a.package.segments[s].param_bytes,
              b.package.segments[s].param_bytes);
    EXPECT_EQ(a.package.segments[s].macs, b.package.segments[s].macs);
    EXPECT_EQ(a.package.segments[s].inputs.size(),
              b.package.segments[s].inputs.size());
    EXPECT_EQ(a.package.segments[s].outputs.size(),
              b.package.segments[s].outputs.size());
  }
}

// ── CanonicalHash::FromHex ───────────────────────────────────────────────

TEST(CanonicalHashFromHexTest, RoundTripsAndRejectsGarbage) {
  const graph::CanonicalHash h = graph::HashDag(SampleDag(20, 3));
  const auto parsed = graph::CanonicalHash::FromHex(h.ToHex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);

  const auto upper = graph::CanonicalHash::FromHex(
      "00000000000000FF00000000000000aa");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->hi, 0xffu);
  EXPECT_EQ(upper->lo, 0xaau);

  EXPECT_FALSE(graph::CanonicalHash::FromHex("").has_value());
  EXPECT_FALSE(graph::CanonicalHash::FromHex("deadbeef").has_value());
  EXPECT_FALSE(graph::CanonicalHash::FromHex(std::string(31, 'a')).has_value());
  EXPECT_FALSE(graph::CanonicalHash::FromHex(std::string(33, 'a')).has_value());
  EXPECT_FALSE(
      graph::CanonicalHash::FromHex(std::string(31, 'a') + "g").has_value());
}

// ── TinyLFU sketch semantics ─────────────────────────────────────────────

TEST(TinyLfuTest, EstimatesSaturateAndGateAdmission) {
  TinyLfuAdmission lfu(TinyLfuAdmission::Options{
      .counters = 64, .sample_period = 1'000'000});  // no halving here
  const graph::CanonicalHash hot{0x1111, 0x2222};
  const graph::CanonicalHash cold{0x9999, 0x8888};

  EXPECT_EQ(lfu.Estimate(hot), 0u);
  for (int i = 0; i < 40; ++i) lfu.RecordAccess(hot);
  EXPECT_EQ(lfu.Estimate(hot), 15u);  // 4-bit counters saturate
  EXPECT_EQ(lfu.Estimate(cold), 0u);

  EXPECT_TRUE(lfu.Admit(hot, cold));    // hot displaces cold
  EXPECT_FALSE(lfu.Admit(cold, hot));   // one-hit wonder bounces off
  EXPECT_TRUE(lfu.Admit(cold, cold));   // ties admit (LRU behavior when cold)
}

TEST(TinyLfuTest, HalvingDecaysOldTrafficAndKeepsAdmitting) {
  TinyLfuAdmission lfu(
      TinyLfuAdmission::Options{.counters = 64, .sample_period = 256});
  const graph::CanonicalHash old_hot{0x1111, 0x2222};
  for (int i = 0; i < 15; ++i) lfu.RecordAccess(old_hot);
  EXPECT_EQ(lfu.Estimate(old_hot), 15u);

  // A long run of fresh traffic crosses the sample period: counters halve,
  // the stale entry decays, and the sketch still admits new hot keys.
  for (std::uint64_t i = 0; i < 600; ++i) {
    lfu.RecordAccess(graph::CanonicalHash{i * 3 + 101, i * 7 + 13});
  }
  EXPECT_GE(lfu.Halvings(), 2u);
  EXPECT_LT(lfu.Estimate(old_hot), 15u);

  const graph::CanonicalHash fresh_hot{0xabcd, 0xef01};
  for (int i = 0; i < 20; ++i) lfu.RecordAccess(fresh_hot);
  EXPECT_TRUE(lfu.Admit(fresh_hot, old_hot));
}

// ── DiskStore ────────────────────────────────────────────────────────────

ResultPtr SolveOnce(const graph::Dag& dag) {
  static PipelineCompiler* compiler = new PipelineCompiler(FastOptions());
  return std::make_shared<const CompileResult>(
      compiler->Compile(dag, 4, "list"));
}

TEST(DiskStoreTest, PutProbeRoundTripsTheResult) {
  const TempDir dir("respect-store-roundtrip");
  DiskStore store(DiskStoreOptions{.directory = dir.str()});
  const graph::Dag dag = SampleDag(24, 5);
  const ResultPtr result = SolveOnce(dag);

  SpillMeta meta;
  meta.key = graph::CanonicalHash{0x1234, 0x5678};
  meta.engine_name = "ListScheduling";
  store.Put(meta, result);
  EXPECT_EQ(store.Metrics().writes, 1u);
  EXPECT_EQ(store.Metrics().resident, 1u);
  EXPECT_TRUE(fs::exists(store.PathFor(meta.key)));

  const ResultPtr loaded = store.Probe(meta.key);
  ASSERT_NE(loaded, nullptr);
  ExpectSameResult(*loaded, *result);
  EXPECT_EQ(loaded->solve_seconds, result->solve_seconds);

  EXPECT_EQ(store.Probe(graph::CanonicalHash{1, 2}), nullptr);  // absent
  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.probes, 2u);
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.misses, 1u);
}

#if defined(RESPECT_FAILPOINTS) && RESPECT_FAILPOINTS
// Regression (failure-domain hardening PR): a transient write failure must
// retry to success, count the retry, and never leave a temp file behind; an
// exhausted retry budget is one counted write failure, still litter-free.
TEST(DiskStoreTest, TransientWriteFailureRetriesWithoutTempLitter) {
  const TempDir dir("respect-store-write-retry");
  DiskStore store(DiskStoreOptions{.directory = dir.str(),
                                   .write_retries = 2,
                                   .write_retry_backoff_ms = 1});
  const ResultPtr result = SolveOnce(SampleDag(24, 6));
  SpillMeta meta;
  meta.key = graph::CanonicalHash{0x7e57, 0x1};
  meta.engine_name = "ListScheduling";
  {
    const core::failpoint::ScopedFailpoint fp("store.write", "error", 1);
    store.Put(meta, result);
  }
  auto metrics = store.Metrics();
  EXPECT_EQ(metrics.writes, 1u);
  EXPECT_EQ(metrics.write_retries, 1u);
  EXPECT_EQ(metrics.write_failures, 0u);
  EXPECT_NE(store.Probe(meta.key), nullptr);

  SpillMeta doomed = meta;
  doomed.key = graph::CanonicalHash{0x7e57, 0x2};
  {
    const core::failpoint::ScopedFailpoint fp("store.write", "error");
    store.Put(doomed, result);  // Put must not throw even when every
                                // attempt fails
  }
  metrics = store.Metrics();
  EXPECT_EQ(metrics.writes, 1u);
  EXPECT_EQ(metrics.write_failures, 1u);
  EXPECT_EQ(store.Probe(doomed.key), nullptr);

  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}
#endif  // RESPECT_FAILPOINTS

TEST(DiskStoreTest, ScanWarmStartsAndIgnoresForeignFiles) {
  const TempDir dir("respect-store-scan");
  const graph::Dag dag = SampleDag(24, 7);
  const ResultPtr result = SolveOnce(dag);
  SpillMeta meta;
  meta.key = graph::HashDag(dag);
  meta.engine_name = "ListScheduling";
  {
    DiskStore writer(DiskStoreOptions{.directory = dir.str()});
    writer.Put(meta, result);
  }
  // Clutter the directory: a foreign file, a badly named spill, an
  // uppercase-named copy (unreachable through PathFor's canonical lowercase
  // spelling, so it must not be indexed), and a leftover temp file from a
  // "crashed" writer.
  std::ofstream(dir.path() / "README.txt") << "not a spill";
  std::ofstream(dir.path() / "deadbeef.spill") << "name too short";
  std::string upper_hex = meta.key.ToHex();
  for (char& c : upper_hex) c = static_cast<char>(std::toupper(c));
  std::ofstream(dir.path() / (upper_hex + ".spill")) << "wrong case";
  const fs::path stale_temp = dir.path() / (meta.key.ToHex() + ".spill.9.tmp");
  std::ofstream(stale_temp) << "partial write";

  DiskStore reader(DiskStoreOptions{.directory = dir.str()});
  EXPECT_EQ(reader.Metrics().resident, 1u);   // only the real spill indexed
  EXPECT_FALSE(fs::exists(stale_temp));       // swept on construction
  const ResultPtr loaded = reader.Probe(meta.key);
  ASSERT_NE(loaded, nullptr);
  ExpectSameResult(*loaded, *result);
}

class DiskStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("respect-store-corruption");
    const graph::Dag dag = SampleDag(24, 9);
    meta_.key = graph::HashDag(dag);
    meta_.engine_name = "ListScheduling";
    DiskStore writer(DiskStoreOptions{.directory = dir_->str()});
    writer.Put(meta_, SolveOnce(dag));
    path_ = writer.PathFor(meta_.key);
    std::ifstream is(path_, std::ios::binary);
    pristine_.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(pristine_.size(), 64u);
  }

  /// Rewrites the spill with `bytes`, probes through a fresh store, and
  /// asserts the clean-miss contract: null result, file quarantined,
  /// counted once, and never indexed again.
  void ExpectCleanMiss(const std::string& bytes, const char* label) {
    {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    DiskStore store(DiskStoreOptions{.directory = dir_->str()});
    EXPECT_EQ(store.Probe(meta_.key), nullptr) << label;
    const auto metrics = store.Metrics();
    EXPECT_EQ(metrics.corrupt_dropped, 1u) << label;
    EXPECT_EQ(metrics.hits, 0u) << label;
    EXPECT_EQ(metrics.resident, 0u) << label;
    EXPECT_FALSE(fs::exists(path_)) << label;            // quarantined
    EXPECT_EQ(store.Probe(meta_.key), nullptr) << label;  // cheap re-miss
    EXPECT_EQ(store.Metrics().corrupt_dropped, 1u) << label;
  }

  std::unique_ptr<TempDir> dir_;
  SpillMeta meta_;
  fs::path path_;
  std::string pristine_;
};

TEST_F(DiskStoreCorruptionTest, TruncatedFileIsACleanMiss) {
  ExpectCleanMiss(pristine_.substr(0, pristine_.size() / 2), "truncated");
}

TEST_F(DiskStoreCorruptionTest, ZeroByteFileIsACleanMiss) {
  ExpectCleanMiss(std::string(), "zero-byte");
}

TEST_F(DiskStoreCorruptionTest, BadMagicIsACleanMiss) {
  std::string bytes = pristine_;
  bytes[0] = static_cast<char>(bytes[0] ^ 0x7f);
  ExpectCleanMiss(bytes, "bad magic");
}

TEST_F(DiskStoreCorruptionTest, WrongFormatVersionIsACleanMiss) {
  std::string bytes = pristine_;
  bytes[4] = 99;  // format version field
  ExpectCleanMiss(bytes, "wrong version");
}

TEST_F(DiskStoreCorruptionTest, PayloadBitFlipIsACleanMissNeverAWrongAnswer) {
  // Flip one bit in every region of the payload (a schedule byte, a package
  // byte, ...): the checksum must catch each one.
  for (const std::size_t offset :
       {std::size_t{40}, pristine_.size() / 2, pristine_.size() - 3}) {
    std::string bytes = pristine_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
    ExpectCleanMiss(bytes, ("bit flip at " + std::to_string(offset)).c_str());
  }
}

TEST_F(DiskStoreCorruptionTest, TrailingGarbageIsACleanMiss) {
  ExpectCleanMiss(pristine_ + "extra", "trailing garbage");
}

TEST(DiskStoreTest, RenamedSpillNeverAnswersTheWrongKey) {
  // A spill copied to another key's file name must not be served under the
  // new name: the envelope's embedded key disagrees.
  const TempDir dir("respect-store-renamed");
  const graph::Dag dag = SampleDag(24, 11);
  SpillMeta meta;
  meta.key = graph::HashDag(dag);
  meta.engine_name = "ListScheduling";
  const graph::CanonicalHash other_key{0xfeed, 0xbeef};
  {
    DiskStore writer(DiskStoreOptions{.directory = dir.str()});
    writer.Put(meta, SolveOnce(dag));
    fs::copy_file(writer.PathFor(meta.key), writer.PathFor(other_key));
  }
  DiskStore store(DiskStoreOptions{.directory = dir.str()});
  EXPECT_EQ(store.Metrics().resident, 2u);
  EXPECT_EQ(store.Probe(other_key), nullptr);
  EXPECT_EQ(store.Metrics().corrupt_dropped, 1u);
  EXPECT_NE(store.Probe(meta.key), nullptr);  // the honest copy still serves
}

TEST(DiskStoreTest, Version1SpillsReadBackAsTheDefaultProfile) {
  // Forward migration: a spill written by a pre-profile (v1) build must
  // warm-start a v2 store as the default profile — byte-craft the v1
  // envelope exactly as the old writer laid it out.
  const TempDir dir("respect-store-v1-migration");
  const graph::Dag dag = SampleDag(24, 41);
  const graph::CanonicalHash key = graph::HashDag(dag);
  const ResultPtr result = SolveOnce(dag);

  std::ostringstream payload_os(std::ios::binary);
  deploy::WritePod(payload_os, key.hi);
  deploy::WritePod(payload_os, key.lo);
  deploy::WritePod(payload_os, std::uint8_t{0});  // rl_dependent
  deploy::WritePod(payload_os, std::uint64_t{0});  // rl_version
  const std::string engine = "ListScheduling";
  deploy::WritePod(payload_os, static_cast<std::uint32_t>(engine.size()));
  payload_os.write(engine.data(),
                   static_cast<std::streamsize>(engine.size()));
  // v1 stops here: no profile name, no fingerprint.
  deploy::WritePod(payload_os, std::int64_t{0});  // expires_at: never
  deploy::WritePod(payload_os, result->solve_seconds);
  deploy::WritePod(payload_os, result->peak_stage_param_bytes);
  deploy::WritePod(payload_os, std::uint8_t{result->proved_optimal});
  deploy::WritePod(payload_os, result->schedule.num_stages);
  deploy::WritePod(payload_os,
                   static_cast<std::uint64_t>(result->schedule.stage.size()));
  for (const int stage : result->schedule.stage) {
    deploy::WritePod(payload_os, stage);
  }
  deploy::WritePackage(result->package, payload_os);
  const std::string payload = std::move(payload_os).str();

  graph::CanonicalHasher hasher;
  hasher.Update(std::string_view(payload));
  const graph::CanonicalHash checksum = hasher.Finish();

  DiskStore store(DiskStoreOptions{.directory = dir.str()});
  const fs::path path = store.PathFor(key);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    deploy::WritePod(os, std::uint32_t{0x4c505352});  // "RSPL"
    deploy::WritePod(os, std::uint32_t{1});           // format version 1
    deploy::WritePod(os, static_cast<std::uint64_t>(payload.size()));
    deploy::WritePod(os, checksum.hi);
    deploy::WritePod(os, checksum.lo);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }

  // A fresh store indexes and serves the v1 file as a normal hit.
  DiskStore reader(DiskStoreOptions{.directory = dir.str()});
  EXPECT_EQ(reader.Metrics().resident, 1u);
  const ResultPtr loaded = reader.Probe(key);
  ASSERT_NE(loaded, nullptr);
  ExpectSameResult(*loaded, *result);
  EXPECT_EQ(reader.Metrics().corrupt_dropped, 0u);

  // Compact reads the v1 prefix fine too (nothing to reclaim).
  EXPECT_EQ(reader.Compact(/*live_rl_version=*/0), 0u);
  EXPECT_TRUE(fs::exists(path));

  // Rewriting the entry migrates the file to the current format version.
  SpillMeta meta;
  meta.key = key;
  meta.engine_name = engine;
  reader.Put(meta, loaded);
  std::ifstream is(path, std::ios::binary);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  deploy::ReadPod(is, magic);
  deploy::ReadPod(is, version);
  EXPECT_EQ(magic, 0x4c505352u);
  EXPECT_EQ(version, 2u);
}

TEST(DiskStoreTest, TtlExpiredEntriesAreDroppedOnProbe) {
  const TempDir dir("respect-store-ttl");
  auto fake_now = std::chrono::system_clock::now();
  DiskStoreOptions options;
  options.directory = dir.str();
  options.ttl_seconds = 100.0;
  options.clock = [&fake_now] { return fake_now; };
  DiskStore store(options);

  const graph::Dag dag = SampleDag(24, 13);
  SpillMeta meta;
  meta.key = graph::HashDag(dag);
  meta.engine_name = "ListScheduling";
  store.Put(meta, SolveOnce(dag));

  EXPECT_NE(store.Probe(meta.key), nullptr);  // young: serves
  fake_now += std::chrono::seconds(200);      // past the 100 s TTL
  EXPECT_EQ(store.Probe(meta.key), nullptr);
  const auto metrics = store.Metrics();
  EXPECT_EQ(metrics.expired_dropped, 1u);
  EXPECT_EQ(metrics.resident, 0u);
  EXPECT_FALSE(fs::exists(store.PathFor(meta.key)));
}

TEST(DiskStoreTest, CompactDeletesStaleRlAndExpiredEntries) {
  const TempDir dir("respect-store-compact");
  auto fake_now = std::chrono::system_clock::now();
  DiskStoreOptions options;
  options.directory = dir.str();
  options.ttl_seconds = 1000.0;
  options.clock = [&fake_now] { return fake_now; };
  DiskStore store(options);
  const ResultPtr result = SolveOnce(SampleDag(24, 15));

  SpillMeta stale_rl{.key = {1, 10}, .rl_dependent = true, .rl_version = 0,
                     .engine_name = "RespectRL"};
  SpillMeta live_rl{.key = {2, 20}, .rl_dependent = true, .rl_version = 3,
                    .engine_name = "RespectRL"};
  SpillMeta deterministic{.key = {3, 30}, .engine_name = "ListScheduling"};
  store.Put(stale_rl, result);
  store.Put(live_rl, result);
  store.Put(deterministic, result);
  EXPECT_EQ(store.Metrics().resident, 3u);

  // Live version 3: only the version-0 RL spill is unreachable.
  EXPECT_EQ(store.Compact(/*live_rl_version=*/3), 1u);
  EXPECT_EQ(store.Metrics().compacted, 1u);
  EXPECT_EQ(store.Metrics().resident, 2u);
  EXPECT_EQ(store.Probe(stale_rl.key), nullptr);
  EXPECT_NE(store.Probe(live_rl.key), nullptr);
  EXPECT_NE(store.Probe(deterministic.key), nullptr);

  // Everything ages past the TTL: the next compaction empties the store.
  fake_now += std::chrono::seconds(2000);
  EXPECT_EQ(store.Compact(/*live_rl_version=*/3), 2u);
  EXPECT_EQ(store.Metrics().resident, 0u);
}

// ── CompileService + persistent tier, end to end ─────────────────────────

TEST(CompileServiceStoreTest, RestartWarmStartServesFromDiskWithZeroSolves) {
  EnsureStoreCountingEngine();
  const TempDir dir("respect-service-warmstart");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  const graph::Dag dag = SampleDag(24, 17);

  ResultPtr first_result;
  {
    serve::CompileService service(FastOptions(), service_options);
    const CompileResponse cold = Ask(service, dag, 4, "StoreCounting");
    EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
    EXPECT_EQ(StoreCountingEngine::Solves().load(), 1);
    first_result = cold.result;
    service.FlushStore();
    const auto metrics = service.Metrics();
    EXPECT_EQ(metrics.store.writes, 1u);
    EXPECT_EQ(metrics.store.write_failures, 0u);
  }

  // "Restart": a fresh service over the same directory.  The request must
  // be answered from disk without invoking any engine.
  serve::CompileService restarted(FastOptions(), service_options);
  const CompileResponse warm = Ask(restarted, dag, 4, "StoreCounting");
  EXPECT_EQ(warm.outcome, CacheOutcome::kDiskHit);
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 1);  // zero new solves
  ASSERT_NE(warm.result, nullptr);
  ExpectSameResult(*warm.result, *first_result);

  const auto metrics = restarted.Metrics();
  EXPECT_EQ(metrics.disk_hits, 1u);
  EXPECT_EQ(metrics.misses, 0u);
  EXPECT_EQ(metrics.store.hits, 1u);
  EXPECT_EQ(metrics.cache_size, 1u);  // promoted into memory ...

  const CompileResponse memory_hit = Ask(restarted, dag, 4, "StoreCounting");
  EXPECT_EQ(memory_hit.outcome, CacheOutcome::kHit);  // ... and hit there
  EXPECT_EQ(memory_hit.result, warm.result);
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 1);
}

TEST(CompileServiceStoreTest, ClearCacheFallsBackToTheDiskTier) {
  EnsureStoreCountingEngine();
  const TempDir dir("respect-service-clearcache");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  serve::CompileService service(FastOptions(), service_options);
  const graph::Dag dag = SampleDag(24, 19);

  (void)Ask(service, dag, 4, "StoreCounting");
  service.FlushStore();
  service.ClearCache();  // memory gone, disk intact — the restart shape
  const CompileResponse after = Ask(service, dag, 4, "StoreCounting");
  EXPECT_EQ(after.outcome, CacheOutcome::kDiskHit);
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 1);
}

TEST(CompileServiceStoreTest, CorruptSpillIsACleanMissAtTheServiceLevel) {
  EnsureStoreCountingEngine();
  const TempDir dir("respect-service-corrupt");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  const graph::Dag dag = SampleDag(24, 21);
  {
    serve::CompileService service(FastOptions(), service_options);
    (void)Ask(service, dag, 4, "StoreCounting");
    service.FlushStore();
  }
  // Bit-flip the one spill file in the directory.
  fs::path spill;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".spill") spill = entry.path();
  }
  ASSERT_FALSE(spill.empty());
  {
    std::fstream f(spill, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);  // guaranteed different
    f.seekp(64);
    f.write(&byte, 1);
  }

  serve::CompileService restarted(FastOptions(), service_options);
  const CompileResponse response = Ask(restarted, dag, 4, "StoreCounting");
  EXPECT_EQ(response.outcome, CacheOutcome::kMiss);  // re-solved cleanly
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 2);
  const auto metrics = restarted.Metrics();
  EXPECT_EQ(metrics.store.corrupt_dropped, 1u);
  EXPECT_EQ(metrics.disk_hits, 0u);
  ASSERT_NE(response.result, nullptr);
}

TEST(CompileServiceStoreTest, TtlExpiredEntriesMissAndAreResolved) {
  EnsureStoreCountingEngine();
  serve::ServiceOptions service_options;
  service_options.cache_ttl_seconds = 0.05;  // memory tier only
  serve::CompileService service(FastOptions(), service_options);
  const graph::Dag dag = SampleDag(24, 23);

  EXPECT_EQ(Ask(service, dag, 4, "StoreCounting").outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(Ask(service, dag, 4, "StoreCounting").outcome,
            CacheOutcome::kHit);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(Ask(service, dag, 4, "StoreCounting").outcome,
            CacheOutcome::kMiss);  // expired lazily on probe, re-solved
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 2);
  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.ttl_expired, 1u);
  EXPECT_EQ(metrics.misses, 2u);
}

TEST(CompileServiceStoreTest, PromotedDiskHitKeepsTheOriginalExpiry) {
  // A disk hit promoted into memory must die at the spill's absolute
  // expiry, not get a freshly re-armed TTL (which would stretch the age
  // bound to ~2x cache_ttl_seconds across a restart).
  EnsureStoreCountingEngine();
  const TempDir dir("respect-service-promote-ttl");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  service_options.cache_ttl_seconds = 0.4;
  serve::CompileService service(FastOptions(), service_options);
  const graph::Dag dag = SampleDag(24, 39);

  (void)Ask(service, dag, 4, "StoreCounting");  // T0: solve + spill
  service.FlushStore();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  service.ClearCache();
  // T0+0.25: still within the 0.4 s TTL — promoted from disk with ~0.15 s
  // of life left, not a fresh 0.4 s.
  EXPECT_EQ(Ask(service, dag, 4, "StoreCounting").outcome,
            CacheOutcome::kDiskHit);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  // T0+0.5: past the original expiry.  The promoted memory entry and the
  // disk copy must both be gone — a re-armed TTL would answer kHit here.
  EXPECT_EQ(Ask(service, dag, 4, "StoreCounting").outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 2);
}

TEST(CompileServiceStoreTest, OneHitWonderScanCannotFlushAHotEntry) {
  serve::ServiceOptions service_options;
  service_options.cache_capacity = 2;
  service_options.cache_shards = 1;
  serve::CompileService service(FastOptions(), service_options);

  const graph::Dag hot = SampleDag(20, 25);
  (void)Ask(service, hot, 4, "list");  // cold solve
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Ask(service, hot, 4, "list").outcome, CacheOutcome::kHit);
  }

  // A scan of one-hit wonders: under plain LRU the second scan entry would
  // evict `hot` (the LRU tail once scan-0 is inserted).  TinyLFU bounces
  // the scans off instead: frequency 1 does not displace frequency 5.
  for (std::uint64_t seed = 27; seed < 33; seed += 2) {
    const CompileResponse scan = Ask(service, SampleDag(20, seed), 4, "list");
    EXPECT_EQ(scan.outcome, CacheOutcome::kMiss);
    ASSERT_NE(scan.result, nullptr);  // rejected from cache, still served
  }

  EXPECT_EQ(Ask(service, hot, 4, "list").outcome, CacheOutcome::kHit);
  const auto metrics = service.Metrics();
  EXPECT_EQ(metrics.evictions, 0u);
  EXPECT_EQ(metrics.admission_rejected, 2u);  // scans 2 and 3 bounced
  EXPECT_EQ(metrics.cache_size, 2u);
}

TEST(CompileServiceStoreTest, ReplaceRlStrandsOldSpillsAndCompactReclaims) {
  const TempDir dir("respect-service-compact");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  serve::CompileService service(FastOptions(), service_options);
  const graph::Dag dag = SampleDag(24, 35);

  (void)Ask(service, dag, 4, "RESPECT");       // RL, version 0
  (void)Ask(service, dag, 4, "ListScheduling");  // deterministic
  service.FlushStore();
  EXPECT_EQ(service.Metrics().store.resident, 2u);

  service.ReplaceRl(std::make_shared<rl::RlScheduler>(FastOptions().net));

  // The version-0 spill is unreachable (the new key embeds version 1), so
  // the RL request re-solves; the deterministic entry still disk-hits
  // after a memory wipe.
  const CompileResponse rl_after = Ask(service, dag, 4, "RESPECT");
  EXPECT_EQ(rl_after.outcome, CacheOutcome::kMiss);
  service.FlushStore();
  EXPECT_EQ(service.Metrics().store.resident, 3u);

  EXPECT_EQ(service.CompactStore(), 1u);  // exactly the stranded v0 spill
  EXPECT_EQ(service.Metrics().store.resident, 2u);

  service.ClearCache();
  EXPECT_EQ(Ask(service, dag, 4, "ListScheduling").outcome,
            CacheOutcome::kDiskHit);
  EXPECT_EQ(Ask(service, dag, 4, "RESPECT").outcome,
            CacheOutcome::kDiskHit);  // the v1 spill — still reachable
}

TEST(CompileServiceStoreTest, BypassNeverTouchesTheDiskTier) {
  EnsureStoreCountingEngine();
  const TempDir dir("respect-service-bypass");
  serve::ServiceOptions service_options;
  service_options.cache_dir = dir.str();
  serve::CompileService service(FastOptions(), service_options);
  const graph::Dag dag = SampleDag(24, 37);

  (void)Ask(service, dag, 4, "StoreCounting");
  service.FlushStore();
  const auto probes_before = service.Metrics().store.probes;
  const CompileResponse bypass =
      Ask(service, dag, 4, "StoreCounting", CachePolicy::kBypass);
  EXPECT_EQ(bypass.outcome, CacheOutcome::kBypass);
  EXPECT_EQ(StoreCountingEngine::Solves().load(), 2);  // really solved
  EXPECT_EQ(service.Metrics().store.probes, probes_before);
}

}  // namespace
}  // namespace respect
