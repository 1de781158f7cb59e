// fleet-forward: the net layer.  Three in-process FleetServer shards on
// loopback, each with its own 2-worker service and disk directory.  Three
// closed-loop client threads, one connection per shard, send seeded Zipf
// streams over the serving catalog.  About 2/3 of requests land on a
// non-owner and are forwarded unless already warm there.  Set-up prefills
// shards 0 and 1 (shard 2's keys are solved and spilled by its peers), then
// restarts shard 2 empty on the same port: its owned keys first arrive by
// peer fetch.
#include <cstdio>
#include <random>

#include "common.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using respect::net::FleetClient;
using respect::serve::CompileRequest;
using respect::serve::CompileResponse;

constexpr int kShards = 3;
constexpr int kPingEvery = 16;      // traced runs: one timed Ping per 16 ops
constexpr int kEncodeEvery = 8;     // traced runs: response size sample rate

struct FleetState {
  Catalog catalog;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::string> members;
};

respect::serve::ServiceOptions ShardOptions(const std::string& dir) {
  respect::serve::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = kMemoryEntries;
  options.cache_dir = dir;
  return options;
}

void CheckResponse(const Entry& entry, const CompileResponse& response,
                   Report& report, const char* what) {
  std::string why;
  if (MatchesReference(entry.dag, entry.num_stages, response.result.get(),
                       entry.reference, &why)) {
    report.Pass();
  } else {
    report.Fail(std::string(what) + ": " + why);
  }
}

std::unique_ptr<FleetState> SetUpFleet(std::uint64_t seed, const ScratchDir& dir,
                                       Report& report) {
  auto state = std::make_unique<FleetState>();
  {
    const respect::PipelineCompiler compiler;
    state->catalog = BuildCatalog(seed, compiler, 3);
  }
  for (int i = 0; i < kShards; ++i) {
    state->shards.push_back(StartShard(
        ShardOptions(dir.Sub("shard" + std::to_string(i))), 0, i));
  }
  state->members = JoinFleet(state->shards);

  // Prefill as if shard 2 had been down: every key is solved and spilled
  // on its owner, and shard 2's keys on shards 0 and 1 alternately (where a
  // forward to a dead owner degrades to a local solve).  The prefill runs
  // on the services directly: concurrent cold misses through the wire would
  // make the shards' shared peer links wait on each other's forwards.
  const respect::net::ConsistentHashRing ring(state->members);
  std::vector<std::vector<CompileRequest>> requests(2);
  std::vector<std::vector<const Entry*>> entries(2);
  int orphan = 0;
  for (const Entry& entry : state->catalog.entries) {
    CompileRequest request = RequestFor(entry);
    const std::string& owner =
        ring.OwnerOf(state->shards[0]->service->KeyFor(request).lo);
    int shard = owner == state->members[0] ? 0
                : owner == state->members[1] ? 1
                                             : (orphan++ % 2);
    requests[shard].push_back(std::move(request));
    entries[shard].push_back(&entry);
  }
  std::vector<std::thread> prefill;
  for (int s = 0; s < 2; ++s) {
    prefill.emplace_back([&, s] {
      const std::vector<CompileResponse> responses =
          state->shards[s]->service->CompileBatch(requests[s]);
      for (std::size_t i = 0; i < responses.size(); ++i) {
        CheckResponse(*entries[s][i], responses[i], report, "fleet prefill");
      }
      state->shards[s]->service->FlushStore();
      state->shards[s]->service->ClearCache();
    });
  }
  for (std::thread& t : prefill) t.join();

  // Restart shard 2 empty on its old address.
  const int port2 = state->shards[2]->server->Port();
  state->shards[2]->Stop();
  state->shards[2] = StartShard(ShardOptions(dir.Sub("shard2-restarted")),
                                port2, 2);
  state->shards[2]->server->SetMembers(state->members, state->members[2]);
  return state;
}

struct ClientResult {
  std::vector<double> latency_ms;
  std::vector<double> sent_s;  // since the window opened
  std::vector<double> lag_ms;
  std::vector<double> ping_us;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  Outcomes outcomes;
};

struct FleetWindow {
  Window window;
  ClientResult all;
};

FleetWindow RunClients(FleetState& state, double seconds, std::uint64_t seed,
                       bool traced, Report& report) {
  std::vector<ClientResult> results(kShards);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kShards; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      std::mt19937_64 rng(seed * kShards + c);
      std::unique_ptr<FleetClient> client;
      try {
        client = std::make_unique<FleetClient>(state.members[c]);
      } catch (const std::exception& e) {
        report.Fail(std::string("fleet connect: ") + e.what());
        return;
      }
      Clock::time_point previous_done = Clock::now();
      for (int op = 0; SecondsBetween(start, Clock::now()) < seconds; ++op) {
        const Entry& entry = state.catalog.entries[state.catalog.Draw(rng)];
        const CompileRequest request = RequestFor(entry);
        const Clock::time_point sent = Clock::now();
        out.lag_ms.push_back(MsBetween(previous_done, sent));
        try {
          const CompileResponse response = client->Compile(request);
          out.latency_ms.push_back(MsBetween(sent, Clock::now()));
          out.sent_s.push_back(SecondsBetween(start, sent));
          out.outcomes.Add(response);
          std::string why;
          if (MatchesReference(entry.dag, entry.num_stages,
                               response.result.get(), entry.reference, &why)) {
            report.CountOp(true);
          } else {
            report.Fail("fleet-forward: " + why);
          }
          if (traced && op % kEncodeEvery == 0) {
            out.request_bytes.push_back(static_cast<double>(
                respect::net::EncodeCompileRequest(request, false).size()));
            out.response_bytes.push_back(static_cast<double>(
                respect::net::EncodeCompileResponse(response).size()));
          }
          if (traced && op % kPingEvery == 0) {
            const Clock::time_point t0 = Clock::now();
            client->Ping();
            out.ping_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
          }
        } catch (const std::exception& e) {
          report.Fail(std::string("fleet-forward: ") + e.what());
        }
        previous_done = Clock::now();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  FleetWindow window;
  window.window.wall_s = SecondsBetween(start, Clock::now());
  for (const ClientResult& r : results) {
    ClientResult& all = window.all;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_ms, r.latency_ms);
    append(all.sent_s, r.sent_s);
    append(all.lag_ms, r.lag_ms);
    append(all.ping_us, r.ping_us);
    append(all.request_bytes, r.request_bytes);
    append(all.response_bytes, r.response_bytes);
    all.outcomes.Merge(r.outcomes);
  }
  window.window.latency_ms = window.all.latency_ms;
  window.window.at_s = window.all.sent_s;
  window.window.ops = window.all.latency_ms.size();
  return window;
}

/// Fleet-wide sums of the counters ReportServiceDeltas reads.
respect::serve::ServiceMetrics FleetServiceMetrics(const FleetState& state) {
  respect::serve::ServiceMetrics sum;
  for (const auto& shard : state.shards) {
    const respect::serve::ServiceMetrics m = shard->service->Metrics();
    sum.evictions += m.evictions;
    sum.admission_rejected += m.admission_rejected;
    sum.invalidations += m.invalidations;
    sum.batch_solved += m.batch_solved;
    sum.batch_single += m.batch_single;
    sum.batch_groups += m.batch_groups;
    sum.store.writes += m.store.writes;
    sum.store.write_failures += m.store.write_failures;
    sum.store.corrupt_dropped += m.store.corrupt_dropped;
  }
  return sum;
}

respect::net::FleetServerMetrics FleetServerTotals(const FleetState& state) {
  respect::net::FleetServerMetrics sum;
  for (const auto& shard : state.shards) {
    const respect::net::FleetServerMetrics m = shard->server->Metrics();
    sum.forwarded += m.forwarded;
    sum.forward_failures += m.forward_failures;
    sum.protocol_errors += m.protocol_errors;
  }
  return sum;
}

}  // namespace

void RunFleetForward(const Args& args, Report& report) {
  const ScratchDir dir(args.workdir, "fleet-forward");
  const std::unique_ptr<FleetState> state = RepeatSetup<FleetState>(
      kSetupReps, report, [&] { return SetUpFleet(args.seed, dir, report); });

  if (!args.trace) {
    RssSampler rss;
    const FleetWindow run =
        RunClients(*state, args.seconds, args.seed, false, report);
    rss.Stop(report);
    run.window.ReportEndToEnd(report);
    ReportCatalogQuality(state->catalog, report);
    return;
  }

  const FleetWindow plain =
      RunClients(*state, args.seconds / 2, args.seed, false, report);
  const respect::serve::ServiceMetrics before = FleetServiceMetrics(*state);
  const respect::net::FleetServerMetrics net_before = FleetServerTotals(*state);
  SpanCollector spans;
  spans.Start();
  const FleetWindow traced =
      RunClients(*state, args.seconds / 2, args.seed + 1, true, report);
  spans.Stop();
  const respect::net::FleetServerMetrics net_after = FleetServerTotals(*state);
  ReportSpanLayers(spans, report);
  ReportServiceDeltas(before, FleetServiceMetrics(*state), report);
  traced.all.outcomes.Report(report);
  const double ops = static_cast<double>(traced.window.ops);
  report.Set("net.forward_frac",
             static_cast<double>(net_after.forwarded - net_before.forwarded) / ops);
  report.Set("net.forward_failures",
             static_cast<double>(net_after.forward_failures -
                                 net_before.forward_failures));
  report.Set("net.protocol_errors",
             static_cast<double>(net_after.protocol_errors -
                                 net_before.protocol_errors));
  report.Set("net.ping_us_p50", Median(traced.all.ping_us));
  report.Set("net.request_bytes_mean", Mean(traced.all.request_bytes));
  report.Set("net.response_bytes_mean", Mean(traced.all.response_bytes));
  report.Set("loadgen.lag_ms_p99", Quantile(traced.all.lag_ms, 0.99));
  report.Set("obs.trace_overhead_frac",
             Median(traced.window.latency_ms) / Median(plain.window.latency_ms) -
                 1.0);
  ProbeLayers(PopularSample(state->catalog, 6), dir.Sub("probe"), report);
}

}  // namespace perfbench
