// Layer probe of a traced run: times each layer's public calls on a small
// sample of the workload's own inputs, so every per-layer metric has a
// measured value on every workload.  Values the workload's traced window
// measured itself take precedence (Report::SetIfAbsent).
#include <cstdio>

#include "common.h"
#include "graph/canonical_hash.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "serve/compile_service.h"

namespace perfbench {

using respect::serve::CachePolicy;
using respect::serve::CompileRequest;
using respect::serve::CompileResponse;
using respect::serve::CompileService;

namespace {

constexpr int kReps = 20;

double TimeUs(const std::function<void()>& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  return SecondsBetween(t0, Clock::now()) * 1e6;
}

void CheckServed(const Entry& entry, const respect::serve::ResultPtr& result,
                 Report& report) {
  std::string why;
  if (MatchesReference(entry.dag, entry.num_stages, result.get(),
                       entry.reference, &why)) {
    report.Pass();
  } else {
    report.Fail("layer probe: " + why);
  }
}

void ProbeGraphAndEngines(const std::vector<const Entry*>& sample,
                          Report& report) {
  std::vector<double> hash_us;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Entry* e : sample) {
      hash_us.push_back(TimeUs([&] { (void)respect::graph::HashDag(e->dag); }));
    }
  }
  report.SetIfAbsent("graph.hash_us_p50", Median(hash_us));

  const respect::PipelineCompiler compiler;
  LayerSamples layers;
  std::vector<double> sum_frac, solve_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Entry* e : sample) {
      LayerTimes times;
      const respect::sched::Schedule schedule =
          RebuildPipeline(compiler, e->dag, e->num_stages, times);
      const Clock::time_point t0 = Clock::now();
      const respect::CompileResult result =
          compiler.Compile(e->dag, e->num_stages, kRlEngine);
      const double compile_ms = MsBetween(t0, Clock::now());
      if (schedule.stage != result.schedule.stage) {
        report.Fail("layer probe: rebuilt pipeline differs from Compile");
      }
      layers.Add(times);
      solve_ms.push_back(result.solve_seconds * 1e3);
      sum_frac.push_back(times.Sum() / compile_ms);
    }
  }
  layers.Report(report, /*fill_only=*/true);
  report.SetIfAbsent("engines.solve_ms_p50", Median(solve_ms));
  report.SetIfAbsent("engines.layer_sum_frac", Median(sum_frac));
}

void ProbeServeAndStore(const std::vector<const Entry*>& sample,
                        const std::string& dir, Report& report) {
  respect::serve::ServiceOptions options;
  options.num_threads = 2;
  options.cache_dir = dir;
  CompileService service({}, options);
  std::vector<CompileRequest> requests;
  for (const Entry* e : sample) requests.push_back(RequestFor(*e));
  const auto serve = [&](std::size_t i, const CompileResponse& response,
                         Outcomes& outcomes) {
    outcomes.Add(response);
    CheckServed(*sample[i], response.result, report);
  };

  SpanCollector spans;
  spans.Start();
  // Cold solves that spill (store.write), disk hits after the memory tier
  // is dropped (store.read), memory hits, then queued requests.
  Outcomes solves, queued, ignored;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      CompileRequest r = requests[i];
      r.cache_policy = CachePolicy::kRefresh;
      serve(i, service.Compile(r), solves);
    }
    service.FlushStore();
  }
  for (int rep = 0; rep < kReps / 2; ++rep) {
    service.ClearCache();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      serve(i, service.Compile(requests[i]), ignored);
    }
  }
  // A warm local probe is the key computation plus the cache lookup; the
  // lookup alone is far below the spans' 1 us resolution, so it is timed
  // as the difference of back-to-back TryServeLocal and KeyFor calls.
  std::vector<double> key_us, probe_us, submit_us;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const CompileRequest& r : requests) {
      const double key = TimeUs([&] { (void)service.KeyFor(r); });
      const double local = TimeUs([&] { (void)service.TryServeLocal(r); });
      key_us.push_back(key);
      probe_us.push_back(local - key);
    }
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      CompileService::Ticket ticket;
      submit_us.push_back(
          TimeUs([&] { ticket = service.Submit(requests[i]); }));
      serve(i, ticket.WaitResponse(), queued);
    }
  }
  spans.Stop();
  report.SetIfAbsent("serve.key_us_p50", Median(key_us));
  report.SetIfAbsent("serve.cache_probe_us_p50", Median(probe_us));
  report.SetIfAbsent("serve.submit_us_p50", Median(submit_us));
  report.SetIfAbsent("serve.solve_ms_p50", Quantile(solves.solve_ms, 0.5));
  report.SetIfAbsent("serve.solve_ms_p99", Quantile(solves.solve_ms, 0.99));
  report.SetIfAbsent("serve.queue_wait_ms_p50",
                     Quantile(queued.queue_wait_ms, 0.5));
  report.SetIfAbsent("serve.queue_wait_ms_p99",
                     Quantile(queued.queue_wait_ms, 0.99));
  for (const auto& [metric, span] :
       {std::pair{"store.read_us_p50", "store.read"},
        std::pair{"store.write_us_p50", "store.write"}}) {
    if (const double us = spans.SelfP50Us(span); us >= 0.0) {
      report.SetIfAbsent(metric, us);
    }
  }
}

void ProbeNet(const std::vector<const Entry*>& sample, Report& report) {
  respect::serve::ServiceOptions options;
  options.num_threads = 2;
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::uint32_t id = 0; id < 2; ++id) {
    shards.push_back(StartShard(options, 0, id));
  }
  const std::vector<std::string> members = JoinFleet(shards);
  const respect::net::ConsistentHashRing ring(members);
  std::vector<std::unique_ptr<respect::net::FleetClient>> clients;
  for (const std::string& address : members) {
    clients.push_back(std::make_unique<respect::net::FleetClient>(address));
  }

  SpanCollector spans;
  spans.Start();
  // Send every request to the shard that does not own it, so each one
  // takes the forward hop.
  for (int rep = 0; rep < 3; ++rep) {
    for (const Entry* e : sample) {
      const CompileRequest r = RequestFor(*e);
      const std::string& owner =
          ring.OwnerOf(shards[0]->service->KeyFor(r).lo);
      respect::net::FleetClient& client = *clients[owner == members[0] ? 1 : 0];
      CheckServed(*e, client.Compile(r).result, report);
    }
  }
  std::vector<double> ping_us;
  for (int i = 0; i < 10 * kReps; ++i) {
    ping_us.push_back(TimeUs([&] { clients[0]->Ping(); }));
  }
  spans.Stop();
  clients.clear();
  for (auto& shard : shards) shard->Stop();
  report.SetIfAbsent("net.ping_us_p50", Median(ping_us));
  if (const double us = spans.SelfP50Us("net.forward"); us >= 0.0) {
    report.SetIfAbsent("net.forward_us_p50", us);
  }
}

}  // namespace

void ProbeLayers(const std::vector<const Entry*>& sample, const std::string& dir,
                 Report& report) {
  ProbeGraphAndEngines(sample, report);
  ProbeServeAndStore(sample, dir, report);
  ProbeNet(sample, report);
}

}  // namespace perfbench
