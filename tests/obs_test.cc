// Tests for the observability layer: the tracer's per-thread rings and span
// nesting, trace-id propagation, the serving spans of the grouped
// CompileBatch path, the metrics registry (idempotent registration,
// Prometheus rendering, histogram quantiles), and the chrometrace exporter
// (JSON shape, fragment merging, sim timelines).
//
// The tracer is process-global, so every test that arms it first drains any
// leftovers from an earlier test and stops it before returning — the same
// discipline serve_cli uses around a traced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/respect.h"
#include "graph/sampler.h"
#include "obs/chrometrace.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/compile_service.h"
#include "tpu/device.h"
#include "tpu/sim.h"

namespace {

using namespace respect;

/// Arms the tracer on construction (after clearing stale events) and stops +
/// drains on destruction, so tests cannot leak armed state into each other.
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

TEST(ObsTrace, DisarmedEmitsNothing) {
  (void)obs::Tracer::Global().Drain();
  obs::Tracer::Global().Stop();
  {
    OBS_SPAN("test.disarmed");
  }
  obs::RecordInstant("test.disarmed_instant");
  EXPECT_TRUE(obs::Tracer::Global().Drain().empty());
}

// The RAII-span tests need the OBS_SPAN macro compiled in (the default); a
// -DRESPECT_OBS=OFF build drops them — everything else goes through the
// always-compiled RecordSpan/RecordInstant API so ring, registry, and
// exporter coverage survives the compiled-away configuration.
#if defined(RESPECT_OBS) && RESPECT_OBS
TEST(ObsTrace, SpansRecordNameDepthAndNesting) {
  ScopedTracing tracing;
  {
    OBS_SPAN("test.outer");
    {
      OBS_SPAN("test.inner");
    }
  }
  EXPECT_EQ(obs::Tracer::ThreadSpanDepth(), 0u);

  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  // RAII closes inner first, so it drains first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 0u);
  // The outer interval contains the inner one.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
  EXPECT_GE(events[0].dur_us, 0);
}
#endif  // RESPECT_OBS

TEST(ObsTrace, ScopedTraceIdNestsAndRestores) {
  ScopedTracing tracing;
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  {
    obs::ScopedTraceId outer(7);
    EXPECT_EQ(obs::CurrentTraceId(), 7u);
    {
      obs::ScopedTraceId inner(9);
      EXPECT_EQ(obs::CurrentTraceId(), 9u);
      obs::RecordInstant("test.tagged");
    }
    EXPECT_EQ(obs::CurrentTraceId(), 7u);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);

  const auto events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 9u);
}

TEST(ObsTrace, MintTraceIdIsNonzeroAndUnique) {
  auto& tracer = obs::Tracer::Global();
  const std::uint64_t a = tracer.MintTraceId();
  const std::uint64_t b = tracer.MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(ObsTrace, ExplicitSpansAndInstants) {
  ScopedTracing tracing;
  obs::RecordSpan("test.cross_thread", /*start_us=*/100, /*end_us=*/250,
                  /*trace_id=*/42);
  obs::RecordInstant("test.marker");

  const auto events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.cross_thread");
  EXPECT_EQ(events[0].start_us, 100);
  EXPECT_EQ(events[0].dur_us, 150);
  EXPECT_EQ(events[0].trace_id, 42u);
  EXPECT_STREQ(events[1].name, "test.marker");
  EXPECT_LT(events[1].dur_us, 0);  // instant marker
}

TEST(ObsTrace, FullRingDropsNewestAndCounts) {
  ScopedTracing tracing;
  const std::uint64_t dropped_before = obs::Tracer::Global().Dropped();
  const std::size_t emitted = obs::Tracer::kRingCapacity + 100;
  for (std::size_t i = 0; i < emitted; ++i) {
    obs::RecordInstant("test.flood");
  }
  const auto events = obs::Tracer::Global().Drain();
  EXPECT_EQ(events.size(), obs::Tracer::kRingCapacity);
  EXPECT_EQ(obs::Tracer::Global().Dropped() - dropped_before,
            emitted - obs::Tracer::kRingCapacity);
}

/// Many emitters racing one drainer: every ring is SPSC so this must be
/// data-race-free (the TSan CI leg runs this test) and no event may tear —
/// every drained name is one of the emitted literals.
TEST(ObsTrace, ConcurrentEmissionIsCleanUnderDrain) {
  ScopedTracing tracing;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 2000;
  std::atomic<bool> stop{false};
  std::vector<obs::TraceEvent> drained;

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto batch = obs::Tracer::Global().Drain();
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
  });
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::RecordInstant("test.concurrent");
        obs::RecordInstant("test.concurrent_inner");
      }
    });
  }
  for (auto& thread : emitters) thread.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  auto tail = obs::Tracer::Global().Drain();
  drained.insert(drained.end(), tail.begin(), tail.end());
  const std::uint64_t total_seen =
      drained.size() + obs::Tracer::Global().Dropped();
  EXPECT_GE(total_seen,
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread * 2);
  for (const auto& event : drained) {
    const std::string name = event.name;
    EXPECT_TRUE(name == "test.concurrent" || name == "test.concurrent_inner")
        << name;
  }
}

#if defined(RESPECT_OBS) && RESPECT_OBS
/// The grouped CompileBatch path is spanned like the single path: the disk
/// probe, the solve and its engine attempt nest under serve.batch_group.
TEST(ObsTrace, GroupedBatchSpansNestUnderTheGroup) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "respect-obs-group";
  std::filesystem::remove_all(dir);
  CompilerOptions compiler_options;
  compiler_options.net.hidden_dim = 12;
  serve::ServiceOptions options;
  options.cache_dir = dir.string();
  ScopedTracing tracing;
  {
    serve::CompileService service(compiler_options, options);
    std::mt19937_64 rng(17);
    std::vector<serve::CompileRequest> requests;
    for (int i = 0; i < 2; ++i) {
      requests.push_back(
          serve::CompileRequest{.dag = graph::SampleTrainingDag(24, rng),
                                .num_stages = 4,
                                .engine = "respect"});
    }
    const auto responses = service.CompileBatch(requests);
    EXPECT_EQ(responses[0].outcome, serve::CacheOutcome::kMiss);
    EXPECT_EQ(service.Metrics().batch_groups, 1u);
  }  // joins the pool: the group task has closed its span
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  std::filesystem::remove_all(dir);

  const auto find = [&](const std::string& name) {
    return std::find_if(
        events.begin(), events.end(),
        [&](const obs::TraceEvent& e) { return e.name == name; });
  };
  const auto group = find("serve.batch_group");
  ASSERT_NE(group, events.end());
  for (const std::string name :
       {"serve.disk_probe", "serve.solve", "serve.attempt"}) {
    const auto span = find(name);
    ASSERT_NE(span, events.end()) << name;
    EXPECT_EQ(span->tid, group->tid) << name;
    EXPECT_GT(span->depth, group->depth) << name;
    EXPECT_GE(span->start_us, group->start_us) << name;
    EXPECT_LE(span->start_us + span->dur_us, group->start_us + group->dur_us)
        << name;
  }
}
#endif  // RESPECT_OBS

TEST(ObsRegistry, GetCounterIsIdempotent) {
  obs::Registry registry;
  obs::Counter& a = registry.GetCounter("respect_test_total", "first help");
  obs::Counter& b = registry.GetCounter("respect_test_total", "second help");
  EXPECT_EQ(&a, &b);
  a.fetch_add(3);
  ++b;
  EXPECT_EQ(a.load(), 4u);
}

TEST(ObsRegistry, HistogramQuantilesInterpolate) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram(
      "respect_test_seconds", "", std::vector<double>{1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) hist.Observe(0.5);   // first bucket
  for (int i = 0; i < 100; ++i) hist.Observe(3.0);   // (2, 4] bucket
  EXPECT_EQ(hist.Count(), 200u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 100 * 0.5 + 100 * 3.0);
  EXPECT_LE(hist.Quantile(0.25), 1.0);
  const double p75 = hist.Quantile(0.75);
  EXPECT_GT(p75, 2.0);
  EXPECT_LE(p75, 4.0);
  // Overflow observations report the largest finite bound.
  hist.Observe(100.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 4.0);
}

TEST(ObsRegistry, RenderPrometheusExposition) {
  obs::Registry registry;
  registry.GetCounter("respect_test_hits_total", "Test hits").fetch_add(5);
  registry.GetGauge("respect_test_depth", "Test depth").Set(2.5);
  obs::Histogram& hist =
      registry.GetHistogram("respect_test_wait_seconds", "Test waits",
                            std::vector<double>{0.1, 1.0});
  hist.Observe(0.05);
  hist.Observe(0.5);

  std::ostringstream os;
  registry.RenderPrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP respect_test_hits_total Test hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE respect_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("respect_test_hits_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE respect_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE respect_test_wait_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: the le="1" bucket includes the le="0.1" count.
  EXPECT_NE(text.find("respect_test_wait_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("respect_test_wait_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("respect_test_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("respect_test_wait_seconds_count 2"), std::string::npos);
}

TEST(ObsChrometrace, WriteChromeTraceShape) {
  ScopedTracing tracing;
  obs::RecordSpan("test.export", obs::NowMicros(), obs::NowMicros() + 5,
                  /*trace_id=*/11);
  obs::RecordInstant("test.mark");

  std::ostringstream os;
  obs::WriteChromeTrace(os, obs::Tracer::Global().Drain(), /*pid=*/3);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant marker
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":11"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ObsChrometrace, FragmentsMergeIntoOneArray) {
  ScopedTracing tracing;
  obs::RecordInstant("test.shard_a");
  std::string fragment_a;
  obs::AppendChromeTraceEvents(fragment_a, obs::Tracer::Global().Drain(),
                               /*pid=*/1);
  obs::RecordInstant("test.shard_b");
  std::string fragment_b;
  obs::AppendChromeTraceEvents(fragment_b, obs::Tracer::Global().Drain(),
                               /*pid=*/2);
  ASSERT_FALSE(fragment_a.empty());
  ASSERT_FALSE(fragment_b.empty());
  EXPECT_NE(fragment_a.front(), '[');  // fragments carry no brackets

  std::ostringstream os;
  obs::WriteChromeTraceFragments(os, {fragment_a, std::string(), fragment_b});
  const std::string json = os.str();
  EXPECT_NE(json.find("test.shard_a"), std::string::npos);
  EXPECT_NE(json.find("test.shard_b"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // One well-formed object: both fragments inside a single traceEvents array.
  EXPECT_EQ(json.find("traceEvents"), json.rfind("traceEvents"));
}

TEST(ObsChrometrace, SimTimelineExportsStageTracks) {
  std::vector<tpu::SimTimelineEntry> timeline = {
      {.inference = 0, .stage = 0, .start_us = 0.0, .finish_us = 10.0},
      {.inference = 0, .stage = 1, .start_us = 10.0, .finish_us = 30.0},
      {.inference = 1, .stage = 0, .start_us = 10.0, .finish_us = 20.0},
  };
  tpu::StageCost cost0;
  cost0.compute_us = 8.0;
  cost0.input_xfer_us = 1.0;
  cost0.output_xfer_us = 1.0;
  tpu::StageCost cost1;
  cost1.compute_us = 20.0;

  std::ostringstream os;
  obs::WriteSimChromeTrace(os, timeline, {cost0, cost1});
  const std::string json = os.str();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  // One tid track per stage, and cost sub-events visible next to compute.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("compute"), std::string::npos);
}

TEST(ObsChrometrace, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::JsonEscape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

}  // namespace
