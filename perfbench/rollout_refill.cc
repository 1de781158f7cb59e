// rollout-refill: cache and store writes.  One closed-loop caller sends
// CompileBatch batches of seeded Zipf draws from the serving catalog; every
// kRolloutEvery batches it rolls out a scheduler with identical weights
// (ReplaceRl) and compacts the store.  Each rollout turns the RL share
// cold: most of it refills through grouped decode, straggler node counts
// take the single cold path, both spill writebacks, and deterministic-engine
// entries stay warm.  Identical weights keep every reference exact.
#include <cstdio>
#include <random>

#include "common.h"

namespace perfbench {
namespace {

using respect::serve::CompileRequest;
using respect::serve::CompileResponse;

constexpr std::size_t kBatch = 64;
constexpr int kRolloutEvery = 8;

struct RolloutWindow {
  Window window;
  Outcomes outcomes;
  std::vector<double> lag_ms;
  int rollouts = 0;
};

RolloutWindow RunBatches(ServingState& state, double seconds,
                         std::mt19937_64& rng, Report& report) {
  RolloutWindow out;
  const Clock::time_point start = Clock::now();
  Clock::time_point previous_done = start;
  std::vector<std::size_t> drawn(kBatch);
  std::vector<CompileRequest> requests(kBatch);
  for (int batch = 0; SecondsBetween(start, Clock::now()) < seconds; ++batch) {
    if (batch > 0 && batch % kRolloutEvery == 0) {
      state.service->ReplaceRl(std::make_shared<respect::rl::RlScheduler>(
          respect::CompilerOptions{}.net));
      (void)state.service->CompactStore();
      ++out.rollouts;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      drawn[i] = state.catalog.Draw(rng);
      requests[i] = RequestFor(state.catalog.entries[drawn[i]]);
    }
    const Clock::time_point sent = Clock::now();
    out.lag_ms.push_back(MsBetween(previous_done, sent));
    std::vector<CompileResponse> responses;
    std::string error;
    try {
      responses = state.service->CompileBatch(requests);
    } catch (const std::exception& e) {
      error = e.what();
    }
    previous_done = Clock::now();
    out.window.latency_ms.push_back(MsBetween(sent, previous_done));
    ++out.window.ops;
    if (!error.empty()) {
      report.Fail("rollout-refill batch: " + error);
      continue;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Entry& entry = state.catalog.entries[drawn[i]];
      out.outcomes.Add(responses[i]);
      std::string why;
      if (MatchesReference(entry.dag, entry.num_stages,
                           responses[i].result.get(), entry.reference, &why)) {
        report.CountOp(true);
      } else {
        report.Fail("rollout-refill: " + why);
      }
    }
  }
  out.window.wall_s = SecondsBetween(start, Clock::now());
  return out;
}

}  // namespace

void RunRolloutRefill(const Args& args, Report& report) {
  const ScratchDir dir(args.workdir, "rollout-refill");
  const std::unique_ptr<ServingState> state = RepeatSetup<ServingState>(
      kSetupReps, report, [&] {
        return SetUpServing(args.seed, dir.Sub("store"), 2 * kCatalogSize,
                            report);
      });
  std::mt19937_64 rng(args.seed);

  if (!args.trace) {
    RssSampler rss;
    const RolloutWindow run = RunBatches(*state, args.seconds, rng, report);
    rss.Stop(report);
    run.window.ReportEndToEnd(report);
    char line[96];
    std::snprintf(line, sizeof(line), "%d rollouts of %zu-request batches",
                  run.rollouts, kBatch);
    report.Note(line);
    ReportCatalogQuality(state->catalog, report);
    return;
  }

  const RolloutWindow plain = RunBatches(*state, args.seconds / 2, rng, report);
  const respect::serve::ServiceMetrics before = state->service->Metrics();
  SpanCollector spans;
  spans.Start();
  const RolloutWindow traced = RunBatches(*state, args.seconds / 2, rng, report);
  spans.Stop();
  ReportSpanLayers(spans, report);
  ReportServiceDeltas(before, state->service->Metrics(), report);
  traced.outcomes.Report(report);
  report.Set("loadgen.lag_ms_p99", Quantile(traced.lag_ms, 0.99));
  report.Set("obs.trace_overhead_frac",
             Median(traced.window.latency_ms) / Median(plain.window.latency_ms) -
                 1.0);
  ProbeLayers(PopularSample(state->catalog, 6), dir.Sub("probe"), report);
}

}  // namespace perfbench
