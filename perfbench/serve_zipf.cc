// serve-zipf: repeat-compile traffic.  One generator thread submits seeded
// Zipf(1) requests over a catalog four times larger than the memory cache
// at a fixed offered rate (open loop) into a 2-worker CompileService whose
// disk tier was prefilled in set-up.  Key hashing, cache probes, the queue
// and store reads do the work; the engines do almost none.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <random>

#include "common.h"

namespace perfbench {
namespace {

using respect::serve::CompileRequest;
using respect::serve::CompileResponse;
using respect::serve::CompileService;
using respect::serve::Priority;

constexpr double kOfferedRate = 6000.0;  // requests/s of the fixed-rate window
constexpr double kInteractiveShare = 0.1;

// Capacity ladder: offered rates tried in order; the highest one whose p99
// (from due time) stays under the limit, with the generator on time and
// the queue drained within the limit after the last send, is the capacity.
constexpr double kLatencyLimitMs = 5.0;
constexpr double kLadderStart = 6000.0;
constexpr double kLadderStep = 1.25;
constexpr int kLadderRungs = 10;

struct Pending {
  Clock::time_point due;
  double due_s = 0.0;  // since the window opened
  std::size_t entry = 0;
  CompileService::Ticket ticket;
};

struct Completed {
  std::vector<double> latency_ms;
  std::vector<double> due_s;
  Outcomes outcomes;
  Clock::time_point last_done{};
};

/// Waits on its share of the tickets in submission order.  Interactive
/// requests overtake normal ones in the service, so each lane has its own
/// waiters and no lane's completion is dated by another lane's head.
class Waiter {
 public:
  Waiter(const Catalog& catalog, Report& report)
      : catalog_(catalog), report_(report), thread_([this] { Loop(); }) {}
  ~Waiter() { Finish(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  void Push(Pending pending) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

  /// No more pushes: waits for every ticket and joins.
  void Finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] const Completed& Result() const { return completed_; }

 private:
  void Loop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      const Entry& entry = catalog_.entries[pending.entry];
      std::string why;
      bool ok = false;
      try {
        const CompileResponse& response = pending.ticket.WaitResponse();
        const Clock::time_point done = Clock::now();
        completed_.last_done = std::max(completed_.last_done, done);
        completed_.latency_ms.push_back(MsBetween(pending.due, done));
        completed_.due_s.push_back(pending.due_s);
        completed_.outcomes.Add(response);
        ok = MatchesReference(entry.dag, entry.num_stages, response.result.get(),
                              entry.reference, &why);
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (ok) {
        report_.CountOp(true);
      } else {
        report_.Fail("serve-zipf: " + why);
      }
    }
  }

  const Catalog& catalog_;
  Report& report_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool done_ = false;
  Completed completed_;
  std::thread thread_;  // last: starts after every member it reads
};

struct OpenLoopResult {
  Completed completed;  // merged over the waiters
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  double wall_s = 0.0;   // first due time to last completion
  double drain_ms = 0.0; // last due time to last completion
};

OpenLoopResult RunOpenLoop(ServingState& state, double rate, double seconds,
                           std::mt19937_64& rng, Report& report) {
  OpenLoopResult out;
  std::array<std::unique_ptr<Waiter>, 3> waiters;  // interactive, 2 x normal
  for (auto& w : waiters) w = std::make_unique<Waiter>(state.catalog, report);
  std::uint64_t normal = 0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  Clock::time_point last_due = start;
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * i);
    if (SecondsBetween(start, due) >= seconds) break;
    last_due = due;
    // Build the request before it is due, so its graph copy is not
    // charged to the service.
    const std::size_t entry = state.catalog.Draw(rng);
    const Priority priority = Uniform01(rng) < kInteractiveShare
                                  ? Priority::kInteractive
                                  : Priority::kNormal;
    CompileRequest request = RequestFor(state.catalog.entries[entry], priority);
    // Spin rather than sleep: a sleeping thread on this class of shared VM
    // wakes milliseconds late at p99, which would bury the service's own
    // tail under the generator's.
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    out.lag_ms.push_back(MsBetween(due, sent));
    CompileService::Ticket ticket = state.service->Submit(std::move(request));
    out.submit_us.push_back(SecondsBetween(sent, Clock::now()) * 1e6);
    Waiter& waiter = priority == Priority::kInteractive
                         ? *waiters[0]
                         : *waiters[1 + (normal++ % 2)];
    waiter.Push({due, SecondsBetween(start, due), entry, std::move(ticket)});
  }
  for (auto& w : waiters) w->Finish();
  for (const auto& w : waiters) {
    const Completed& c = w->Result();
    Completed& all = out.completed;
    all.latency_ms.insert(all.latency_ms.end(), c.latency_ms.begin(),
                          c.latency_ms.end());
    all.due_s.insert(all.due_s.end(), c.due_s.begin(), c.due_s.end());
    all.outcomes.Merge(c.outcomes);
    all.last_done = std::max(all.last_done, c.last_done);
  }
  out.wall_s = SecondsBetween(start, out.completed.last_done);
  out.drain_ms = MsBetween(last_due, out.completed.last_done);
  return out;
}

Window AsWindow(const OpenLoopResult& r) {
  Window w;
  w.latency_ms = r.completed.latency_ms;
  w.at_s = r.completed.due_s;
  w.wall_s = r.wall_s;
  w.ops = r.completed.latency_ms.size();
  return w;
}

/// Walks the ladder upward until a rung misses the limit.
double CapacityRps(ServingState& state, double budget_s, std::mt19937_64& rng,
                   Report& report) {
  const double rung_s = budget_s / kLadderRungs;
  double capacity = 0.0;
  double rate = kLadderStart;
  for (int rung = 0; rung < kLadderRungs; ++rung, rate *= kLadderStep) {
    const OpenLoopResult r = RunOpenLoop(state, rate, rung_s, rng, report);
    const double p99 = Quantile(r.completed.latency_ms, 0.99);
    const double lag = Quantile(r.lag_ms, 0.99);
    const bool ok = p99 <= kLatencyLimitMs && lag <= kLatencyLimitMs &&
                    r.drain_ms <= kLatencyLimitMs;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "ladder %.0f req/s: p99 %.3f ms, lag p99 %.3f ms, "
                  "drain %.3f ms -> %s",
                  rate, p99, lag, r.drain_ms, ok ? "meets" : "misses");
    report.Note(line);
    if (!ok) break;
    capacity = rate;
  }
  return capacity;
}

}  // namespace

void RunServeZipf(const Args& args, Report& report) {
  const ScratchDir dir(args.workdir, "serve-zipf");
  const std::unique_ptr<ServingState> state = RepeatSetup<ServingState>(
      kSetupReps, report, [&] {
        return SetUpServing(args.seed, dir.Sub("store"), 4 * kCatalogSize,
                            report);
      });
  std::mt19937_64 rng(args.seed);

  if (!args.trace) {
    RssSampler rss;
    const OpenLoopResult main =
        RunOpenLoop(*state, kOfferedRate, 0.7 * args.seconds, rng, report);
    const double capacity = CapacityRps(*state, 0.3 * args.seconds, rng, report);
    rss.Stop(report);
    AsWindow(main).ReportEndToEnd(report);
    report.SetExtra("capacity_rps", capacity, "req/s");
    ReportCatalogQuality(state->catalog, report);
    return;
  }

  const OpenLoopResult plain =
      RunOpenLoop(*state, kOfferedRate, args.seconds / 2, rng, report);
  const respect::serve::ServiceMetrics before = state->service->Metrics();
  SpanCollector spans;
  spans.Start();
  const OpenLoopResult traced =
      RunOpenLoop(*state, kOfferedRate, args.seconds / 2, rng, report);
  spans.Stop();
  ReportSpanLayers(spans, report);
  ReportServiceDeltas(before, state->service->Metrics(), report);
  traced.completed.outcomes.Report(report);
  report.Set("serve.submit_us_p50", Quantile(traced.submit_us, 0.5));
  report.Set("loadgen.lag_ms_p99", Quantile(traced.lag_ms, 0.99));
  report.Set("obs.trace_overhead_frac",
             Quantile(traced.completed.latency_ms, 0.5) /
                     Quantile(plain.completed.latency_ms, 0.5) -
                 1.0);
  ProbeLayers(PopularSample(state->catalog, 6), dir.Sub("probe"), report);
}

}  // namespace perfbench
