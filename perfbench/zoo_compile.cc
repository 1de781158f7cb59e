// zoo-compile: the paper's own path.  The ten Table I models x {4, 5, 6}
// stages compiled cold with RESPECT through PipelineCompiler::Compile, in
// whole seeded-order passes, by one closed-loop caller.  graph, rl, engines,
// sched and deploy do all the work; serve, store and net do none.
#include <algorithm>
#include <cstdio>
#include <random>

#include "common.h"
#include "models/zoo.h"

namespace perfbench {
namespace {

using respect::CompileResult;
using respect::graph::Dag;

struct Cell {
  const Dag* dag = nullptr;
  int num_stages = 0;
  CompileResult reference;
};

struct ZooState {
  respect::PipelineCompiler compiler;
  std::vector<Dag> models;
  std::vector<Cell> cells;
};

std::unique_ptr<ZooState> SetUpZoo(Report& report) {
  auto state = std::make_unique<ZooState>();
  for (const respect::models::ModelName name : respect::models::TableIModels()) {
    state->models.push_back(respect::models::BuildModel(name));
  }
  for (const Dag& model : state->models) {
    for (int k = 4; k <= 6; ++k) {
      state->cells.push_back(
          {&model, k, state->compiler.Compile(model, k, kRlEngine)});
    }
  }
  // The zoo is compiled twice: a second compile must reproduce the first
  // exactly (and be a valid schedule) before it serves as the reference.
  for (const Cell& cell : state->cells) {
    const CompileResult again =
        state->compiler.Compile(*cell.dag, cell.num_stages, kRlEngine);
    std::string why;
    if (MatchesReference(*cell.dag, cell.num_stages, &again, cell.reference,
                         &why)) {
      report.Pass();
    } else {
      report.Fail("zoo " + cell.dag->Name() + ": repeat compile: " + why);
    }
  }
  return state;
}

struct ZooWindow {
  Window window;
  std::vector<double> lag_ms;
  std::vector<double> solve_ms;
  std::vector<std::vector<double>> cell_latency_ms;  // by cell index
};

/// Whole passes over the cells in a fresh seeded order each pass, until the
/// window has run for `seconds`.
ZooWindow RunPasses(const ZooState& state, double seconds, std::mt19937_64& rng,
                    Report& report) {
  ZooWindow out;
  out.cell_latency_ms.resize(state.cells.size());
  std::vector<std::size_t> order(state.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const Clock::time_point start = Clock::now();
  Clock::time_point previous_done = start;
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t index : order) {
      const Cell& cell = state.cells[index];
      const Clock::time_point sent = Clock::now();
      out.lag_ms.push_back(MsBetween(previous_done, sent));
      bool ok = false;
      std::string why;
      try {
        const CompileResult result =
            state.compiler.Compile(*cell.dag, cell.num_stages, kRlEngine);
        const Clock::time_point done = Clock::now();
        const double ms = MsBetween(sent, done);
        out.window.latency_ms.push_back(ms);
        out.cell_latency_ms[index].push_back(ms);
        out.solve_ms.push_back(result.solve_seconds * 1e3);
        ok = MatchesReference(*cell.dag, cell.num_stages, &result,
                              cell.reference, &why);
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (ok) {
        report.CountOp(true);
      } else {
        report.Fail("zoo " + cell.dag->Name() + ": " + why);
      }
      ++out.window.ops;
      previous_done = Clock::now();
    }
  } while (SecondsBetween(start, Clock::now()) < seconds);
  out.window.wall_s = SecondsBetween(start, Clock::now());
  return out;
}

}  // namespace

void RunZooCompile(const Args& args, Report& report) {
  const std::unique_ptr<ZooState> state = RepeatSetup<ZooState>(
      kSetupReps, report, [&] { return SetUpZoo(report); });
  std::mt19937_64 rng(args.seed);

  if (!args.trace) {
    RssSampler rss;
    const ZooWindow run = RunPasses(*state, args.seconds, rng, report);
    rss.Stop(report);
    // The cells' latencies form clusters with wide gaps between models, so
    // the median of all ops sits on a cluster edge; the median of the
    // per-cell medians is the same "typical op" without that edge.
    std::vector<double> cell_medians;
    for (const std::vector<double>& v : run.cell_latency_ms) {
      cell_medians.push_back(Median(v));
    }
    report.Set("latency_p50_ms", Median(cell_medians));
    run.window.ReportEndToEnd(report);
    std::vector<Quality> cells;
    for (const Cell& cell : state->cells) {
      cells.push_back(QualityOf(*cell.dag, cell.num_stages, cell.reference));
    }
    ReportQuality(cells, report);
    return;
  }

  const ZooWindow plain = RunPasses(*state, args.seconds / 2, rng, report);
  SpanCollector spans;
  spans.Start();
  const ZooWindow traced = RunPasses(*state, args.seconds / 2, rng, report);
  spans.Stop();
  ReportSpanLayers(spans, report);
  report.Set("obs.trace_overhead_frac",
             Median(traced.window.latency_ms) / Median(plain.window.latency_ms) -
                 1.0);
  report.Set("loadgen.lag_ms_p99", Quantile(traced.lag_ms, 0.99));

  // The pipeline rebuilt from public layer functions must reproduce every
  // reference schedule, and its layers must add up to the compile time.
  // Each cell alternates Compile and the rebuild twice; the fastest of each
  // is compared, so a preempted call does not skew the ratio.
  LayerSamples layers;
  std::vector<double> sum_frac;
  for (const Cell& cell : state->cells) {
    double best_compile = 1e300;
    double best_sum = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      const Clock::time_point t0 = Clock::now();
      (void)state->compiler.Compile(*cell.dag, cell.num_stages, kRlEngine);
      best_compile = std::min(best_compile, MsBetween(t0, Clock::now()));
      LayerTimes times;
      const respect::sched::Schedule schedule =
          RebuildPipeline(state->compiler, *cell.dag, cell.num_stages, times);
      if (schedule.stage == cell.reference.schedule.stage) {
        report.Pass();
      } else {
        report.Fail("zoo " + cell.dag->Name() + ": rebuilt pipeline differs");
      }
      layers.Add(times);
      best_sum = std::min(best_sum, times.Sum());
    }
    sum_frac.push_back(best_sum / best_compile);
  }
  layers.Report(report, /*fill_only=*/false);
  report.Set("engines.solve_ms_p50", Median(traced.solve_ms));
  const double frac = Median(sum_frac);
  report.Set("engines.layer_sum_frac", frac);
  if (frac < 0.8 || frac > 1.25) {
    report.Fail("rebuilt layer sum does not account for the compile time");
  }

  // serve / store / net are off this path; probe them on two zoo models.
  std::vector<Entry> sample;
  for (std::size_t i = 0; i < 2; ++i) {
    const Cell& cell = state->cells[i * 3];
    sample.push_back({*cell.dag, kRlEngine, cell.num_stages, cell.reference});
  }
  std::vector<const Entry*> pointers;
  for (const Entry& e : sample) pointers.push_back(&e);
  const ScratchDir dir(args.workdir, "zoo-probe");
  ProbeLayers(pointers, dir.Path(), report);
}

}  // namespace perfbench
