#include "serve/compile_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/cancel.h"
#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "engines/registry.h"
#include "obs/trace.h"
#include "serve/request_queue.h"
#include "serve/store/disk_store.h"
#include "serve/store/spill_codec.h"
#include "serve/store/tinylfu.h"

namespace respect::serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Stable fingerprint of everything in CompilerOptions that can change a
/// CompileResult.  weights_path contributes as a path string: the key covers
/// the compiler's configuration, not the bytes of the file — swap weights
/// under traffic through ReplaceRl, which versions the snapshot.
graph::CanonicalHash FingerprintOptions(const CompilerOptions& options) {
  graph::CanonicalHasher h;
  h.Update("respect-compiler-options-v1");
  h.Update(options.net.hidden_dim);
  h.Update(static_cast<int>(options.net.masking));
  h.Update(options.net.init_seed);
  h.Update(options.net.embedding.include_topology);
  h.Update(options.net.embedding.include_ids);
  h.Update(options.net.embedding.include_memory);
  h.Update(options.weights_path);
  h.Update(options.exact_max_expansions);
  h.Update(std::bit_cast<std::uint64_t>(options.exact_time_limit_seconds));
  h.Update(options.compiler.num_stages);
  h.Update(options.compiler.refinement_rounds);
  h.Update(options.compiler.compile_passes);
  h.Update(options.quantize);
  return h.Finish();
}

std::unique_ptr<core::ThreadPool> MakeServicePool(
    const ServiceOptions& options) {
  const int num_threads = options.num_threads < 1
                              ? core::ThreadPool::DefaultThreadCount()
                              : options.num_threads;
  RequestQueue::Options queue_options;
  queue_options.aging_seconds = options.queue_aging_seconds;
  queue_options.max_batch_inflight = options.max_batch_inflight;
  queue_options.max_lane_depth = options.max_lane_depth;
  queue_options.tenant_weights = options.tenant_weights;
  return std::make_unique<core::ThreadPool>(
      num_threads, std::make_unique<RequestQueue>(queue_options));
}

}  // namespace

CompileService::CompileService(const CompilerOptions& compiler_options,
                               const ServiceOptions& options)
    : compiler_(compiler_options),
      options_fingerprint_(FingerprintOptions(compiler_options)) {
  const int num_shards = std::max(1, options.cache_shards);
  per_shard_capacity_ =
      (options.cache_capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options.cache_capacity > 0) {
    admission_ =
        std::make_unique<store::TinyLfuAdmission>(options.cache_capacity);
  }
  for (const auto& [tenant, weight] : options.tenant_weights) {
    if (tenant == kOverflowTenant) {
      throw std::invalid_argument("reserved tenant id: " + tenant);
    }
    if (!tenant.empty()) named_tenants_.emplace(tenant, BindTenant(tenant));
  }
  default_solve_budget_seconds_ = options.default_solve_budget_seconds;
  breaker_options_.failure_threshold = options.breaker_failure_threshold;
  breaker_options_.open_seconds = options.breaker_open_seconds;
  breaker_options_.clock = options.breaker_clock;
  // Resolve the fallback chain to canonical names now so a typo fails the
  // constructor, not a degraded request under traffic.  Duplicates collapse
  // (an alias and its canonical name are one candidate).
  fallback_chain_.reserve(options.fallback_chain.size());
  for (const std::string& name : options.fallback_chain) {
    const std::string_view canonical =
        engines::EngineRegistry::Global().Resolve(name).name;
    if (std::find(fallback_chain_.begin(), fallback_chain_.end(), canonical) ==
        fallback_chain_.end()) {
      fallback_chain_.push_back(canonical);
    }
  }
  if (!options.cache_dir.empty()) {
    store::DiskStoreOptions store_options;
    store_options.directory = options.cache_dir;
    store_options.registry = &registry_;  // one exposition page per shard
    store_ = std::make_unique<store::DiskStore>(store_options);
    writer_ = std::make_unique<core::ThreadPool>(1);
  }
  pool_ = MakeServicePool(options);
}

CompileService::LaneCounters CompileService::MakeLaneCounters(
    std::size_t lane) {
  const obs::Label label{"lane", PriorityName(static_cast<Priority>(lane))};
  return LaneCounters{
      registry_.GetCounter("respect_serve_lane_enqueued_total",
                           "Submits routed to this lane", label),
      registry_.GetCounter("respect_serve_lane_started_total",
                           "Requests that began their compile on a worker",
                           label),
      registry_.GetCounter("respect_serve_lane_expired_total",
                           "Requests failed fast with DeadlineExceeded",
                           label),
      registry_.GetCounter("respect_serve_lane_shed_total",
                           "Requests refused at admission with Overloaded",
                           label),
      registry_.GetHistogram("respect_serve_lane_wait_seconds",
                             "Queue wait of started requests (seconds)", {},
                             label)};
}

CompileService::TenantCounters CompileService::BindTenant(
    std::string_view tenant) {
  const obs::Label label{"tenant", tenant};
  return TenantCounters{
      &registry_.GetCounter("respect_serve_tenant_enqueued_total",
                            "Submits carrying this tenant id", label),
      &registry_.GetCounter("respect_serve_tenant_started_total",
                            "Requests that began their compile on a worker",
                            label),
      &registry_.GetCounter("respect_serve_tenant_expired_total",
                            "Requests failed fast with DeadlineExceeded",
                            label)};
}

// The pool joins before the members the queued tasks reference are torn
// down; every outstanding Ticket is resolved by then (queued entries run or
// expire, never vanish).  The spill writer drains next — the pool's last
// tasks may still enqueue spills — and the store it writes to goes last.
CompileService::~CompileService() {
  pool_.reset();
  writer_.reset();
}

std::size_t CompileService::LaneIndex(Priority priority) {
  const auto index = static_cast<std::size_t>(static_cast<int>(priority));
  return index < kNumPriorityLanes ? index : kNumPriorityLanes - 1;
}

CompileService::RequestKey CompileService::MakeKey(
    const graph::Dag& dag, int num_stages, std::string_view engine,
    std::string_view profile_name) const {
  const engines::EngineRegistration& registration =
      engines::EngineRegistry::Global().Resolve(engine);
  std::optional<tpu::DeviceProfile> profile = tpu::FindProfile(profile_name);
  if (!profile) {
    throw std::invalid_argument("unknown device profile: \"" +
                                std::string(profile_name) + "\"");
  }
  if (num_stages < 1) {
    throw std::invalid_argument("num_stages must be >= 1, got " +
                                std::to_string(num_stages));
  }
  graph::CanonicalHasher h;
  h.Update("respect-serve-key-v1");
  h.Update(registration.name);  // canonical, so alias and name share a key
  h.Update(num_stages);
  h.Update(options_fingerprint_.hi);
  h.Update(options_fingerprint_.lo);
  std::uint64_t rl_version = 0;
  if (registration.uses_rl) {
    rl_version = compiler_.RlVersion();
    h.Update(rl_version);
  }
  // The profile's fingerprint splits the key space: the same DAG compiled
  // for two fleets is two cache entries.
  const graph::CanonicalHash profile_fp = profile->Fingerprint();
  h.Update("profile");
  h.Update(profile_fp.hi);
  h.Update(profile_fp.lo);
  const graph::CanonicalHash dag_hash = graph::HashDag(dag);
  h.Update(dag_hash.hi);
  h.Update(dag_hash.lo);
  return RequestKey{h.Finish(), registration.uses_rl, rl_version,
                    registration.name, *std::move(profile), profile_fp};
}

CompileService::Shard& CompileService::ShardFor(
    const graph::CanonicalHash& hash) {
  // Shard on hi: the per-shard maps hash on lo (CanonicalHash::Hasher), so
  // sharding on lo too would leave every map with only 1/num_shards of its
  // buckets reachable.
  return *shards_[hash.hi % shards_.size()];
}

void CompileService::InsertLocked(Shard& shard, const RequestKey& key,
                                  ResultPtr result) {
  if (per_shard_capacity_ == 0) return;
  CacheEntry entry{key.hash, std::move(result), key.rl_dependent};
  if (const auto it = shard.entries.find(key.hash);
      it != shard.entries.end()) {
    // Reached by CachePolicy::kRefresh overwriting a resident entry, and
    // defensively if a flight owner ever races an insert.
    *it->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (admission_ != nullptr && shard.entries.size() >= per_shard_capacity_) {
    // TinyLFU admission: the cold key only displaces the LRU victim when
    // it is at least as frequent — a one-hit-wonder scan bounces off a hot
    // entry instead of flushing it.  (Ties admit, so an all-cold cache
    // still behaves like plain LRU.)
    if (!admission_->Admit(key.hash, shard.lru.back().key)) {
      admission_rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  shard.lru.push_front(std::move(entry));
  shard.entries.emplace(key.hash, shard.lru.begin());
  while (shard.entries.size() > per_shard_capacity_) {
    shard.entries.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CompileService::ResultPtr CompileService::LookupLocked(Shard& shard,
                                                       const RequestKey& key) {
  const auto it = shard.entries.find(key.hash);
  if (it == shard.entries.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->result;
}

CompileService::ResultPtr CompileService::TryCached(const RequestKey& key) {
  OBS_SPAN("serve.cache_probe");
  if (admission_ != nullptr) admission_->RecordAccess(key.hash);
  Shard& shard = ShardFor(key.hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return LookupLocked(shard, key);
}

CompileResponse CompileService::ResponseFor(const RequestKey& key) {
  CompileResponse response;
  response.engine_name = key.engine_name;
  response.requested_engine = key.engine_name;
  response.key_hex = key.hash.ToHex();
  return response;
}

CircuitBreaker& CompileService::BreakerFor(std::string_view engine) {
  const std::lock_guard<std::mutex> lock(breaker_mutex_);
  auto it = breakers_.find(engine);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(engine, std::make_unique<CircuitBreaker>(breaker_options_))
             .first;
  }
  return *it->second;
}

std::vector<std::string_view> CompileService::Candidates(
    const RequestKey& key) const {
  std::vector<std::string_view> candidates;
  candidates.reserve(1 + fallback_chain_.size());
  candidates.push_back(key.engine_name);
  for (const std::string_view name : fallback_chain_) {
    if (name != key.engine_name) candidates.push_back(name);
  }
  return candidates;
}

double CompileService::BudgetFor(const CompileRequest& request) const {
  return request.solve_budget_seconds > 0.0 ? request.solve_budget_seconds
                                            : default_solve_budget_seconds_;
}

void CompileService::SolveCold(std::span<ColdSolve> solves) {
  OBS_SPAN("serve.solve");
  std::vector<ColdSolve*> group;
  if (solves.size() >= 2) {
    // Only owners that would reach the preferred engine join the shared
    // attempt: a lapsed deadline or an invalid graph fails alone instead of
    // taking its siblings down with it.
    for (ColdSolve& solve : solves) {
      const CompileRequest& request = *solve.request;
      if (request.deadline && SteadyClock::now() > *request.deadline) continue;
      try {
        request.dag.Validate();
      } catch (...) {
        continue;
      }
      group.push_back(&solve);
    }
  }
  if (group.size() >= 2) SolveGroup(group);
  for (ColdSolve& solve : solves) {
    if (solve.result == nullptr && solve.failure == nullptr) {
      WalkChain(solve, {});
    }
  }
}

template <typename Solve>
bool CompileService::Attempt(std::string_view engine, bool last,
                             double budget, std::size_t members,
                             ChainStart& chain, const Solve& solve) {
  CircuitBreaker* breaker = breaker_options_.failure_threshold > 0
                                ? &BreakerFor(engine)
                                : nullptr;
  if (breaker != nullptr && !breaker->Allow() && !last) {
    // Open breaker: skip the sick engine straight to its fallback.  The
    // last candidate is always attempted — short-circuiting it would turn
    // "sick engine" into "no answer at all".
    obs::RecordInstant("serve.breaker_short_circuit", engine.data(),
                       static_cast<std::uint32_t>(engine.size()));
    return false;
  }
  // Engine names borrow from the registry (process lifetime), so the
  // span's detail pointer stays valid for any later drain.
  OBS_SPAN_DETAIL("serve.attempt", engine.data(), engine.size());
  try {
    solve(budget > 0.0 ? core::CancelToken::WithBudget(budget)
                       : core::CancelToken());
    if (breaker != nullptr) breaker->RecordSuccess();
    return true;
  } catch (const core::CancelledError&) {
    budget_blown_.fetch_add(members, std::memory_order_relaxed);
    if (breaker != nullptr) breaker->RecordFailure();
    if (chain.failure == nullptr) {
      chain.failure = std::current_exception();
      chain.budget_blown = true;
    }
  } catch (...) {
    if (breaker != nullptr) breaker->RecordFailure();
    if (chain.failure == nullptr) chain.failure = std::current_exception();
  }
  return false;
}

void CompileService::SolveGroup(std::span<ColdSolve* const> group) {
  // Every member shares engine, stages and profile (CompileBatch's group
  // key), so the first member's key speaks for the attempt.
  const RequestKey& key = *group.front()->key;
  const std::string_view engine = key.engine_name;
  // One attempt, one token: the tightest member budget bounds the group.
  double budget = 0.0;
  for (const ColdSolve* solve : group) {
    const double own = BudgetFor(*solve->request);
    if (own > 0.0 && (budget == 0.0 || own < budget)) budget = own;
  }
  ChainStart rest{1, nullptr, false};
  const bool solved = Attempt(
      engine, /*last=*/Candidates(key).size() == 1, budget, group.size(),
      rest, [&](const core::CancelToken& cancel) {
        std::vector<const graph::Dag*> dags;
        dags.reserve(group.size());
        for (const ColdSolve* solve : group) {
          dags.push_back(&solve->request->dag);
        }
        engines::SolveStats stats;
        const auto start = SteadyClock::now();
        std::vector<CompileResult> results = compiler_.CompileGroup(
            dags, group.front()->request->num_stages, engine, key.profile,
            cancel, &stats);
        // Decode work is shared, so each member's solve time is amortized.
        const double amortized =
            std::chrono::duration<double>(SteadyClock::now() - start)
                .count() /
            static_cast<double>(group.size());
        batch_solved_.fetch_add(stats.batch_solved, std::memory_order_relaxed);
        batch_single_.fetch_add(stats.single_solved,
                                std::memory_order_relaxed);
        batch_groups_.fetch_add(stats.batch_groups, std::memory_order_relaxed);
        for (std::size_t k = 0; k < group.size(); ++k) {
          ColdSolve& solve = *group[k];
          solve.result =
              std::make_shared<const CompileResult>(std::move(results[k]));
          solve.solve_seconds = amortized;
          solve.engine_used = engine;
          solve.grouped = true;
          solve_hist_.Observe(amortized);
        }
      });
  if (solved) return;
  for (ColdSolve* solve : group) WalkChain(*solve, rest);
}

void CompileService::WalkChain(ColdSolve& solve, ChainStart chain) {
  const RequestKey& key = *solve.key;
  const CompileRequest& request = *solve.request;
  const std::vector<std::string_view> candidates = Candidates(key);
  // Per-attempt budget: every candidate gets a fresh one — a fallback must
  // not inherit the few microseconds the preferred engine left behind.
  const double budget = BudgetFor(request);
  for (std::size_t i = chain.candidate; i < candidates.size(); ++i) {
    const std::string_view engine = candidates[i];
    if (request.deadline && SteadyClock::now() > *request.deadline) {
      // The request's own deadline passed between attempts: stop walking,
      // the caller's waiter is already (or about to be) past caring.
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      failures_.fetch_add(1, std::memory_order_relaxed);
      solve.failure = std::make_exception_ptr(DeadlineExceeded(
          "compile request deadline expired while walking the fallback "
          "chain"));
      return;
    }
    const bool solved = Attempt(
        engine, /*last=*/i + 1 == candidates.size(), budget, 1, chain,
        [&](const core::CancelToken& cancel) {
          const auto begin = SteadyClock::now();
          solve.result = std::make_shared<const CompileResult>(
              compiler_.Compile(request.dag, request.num_stages, engine,
                                key.profile, cancel));
          solve.solve_seconds =
              std::chrono::duration<double>(SteadyClock::now() - begin)
                  .count();
          solve_hist_.Observe(solve.solve_seconds);
        });
    if (solved) {
      solve.engine_used = engine;
      solve.degraded = engine != key.engine_name;
      if (solve.degraded) {
        degraded_served_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }

  fallback_exhausted_.fetch_add(1, std::memory_order_relaxed);
  failures_.fetch_add(1, std::memory_order_relaxed);
  solve.failure = chain.failure;
  if (chain.budget_blown) {
    // The chain died on budgets: surface the typed error the serving
    // contract promises, not the internal cancellation type.
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    solve.failure = std::make_exception_ptr(DeadlineExceeded(
        "solve budget exhausted across the engine chain (preferred \"" +
        std::string(key.engine_name) + "\" plus " +
        std::to_string(candidates.size() - 1) + " fallback(s))"));
  }
}

void CompileService::ResolveFlight(const RequestKey& key, Flight& flight,
                                   ResultPtr result,
                                   std::exception_ptr failure) {
  {
    Shard& shard = ShardFor(key.hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.flights.erase(key.hash);
  }
  if (result != nullptr) {
    flight.promise.set_value(std::move(result));
  } else {
    flight.promise.set_exception(std::move(failure));
  }
}

void CompileService::Publish(const ColdSolve& solve,
                             const std::shared_ptr<Flight>& flight,
                             CompileResponse& response, bool cache) {
  const RequestKey& key = *solve.key;
  if (solve.failure != nullptr) {
    if (flight != nullptr) ResolveFlight(key, *flight, nullptr, solve.failure);
    std::rethrow_exception(solve.failure);
  }
  // A fallback's result is cached (and spilled) under the fallback engine's
  // OWN key — the preferred engine's key must never serve a degraded result
  // once the engine recovers.  The flight under the preferred key still
  // resolves so collapsed waiters share this answer, tagged degraded via
  // the flight's provenance fields.
  std::optional<RequestKey> fallback_key;
  if (cache && solve.degraded) {
    fallback_key = MakeKey(solve.request->dag, solve.request->num_stages,
                           solve.engine_used, key.profile.name);
  }
  const RequestKey& cache_key = fallback_key ? *fallback_key : key;
  if (cache) {
    Shard& shard = ShardFor(cache_key.hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    InsertLocked(shard, cache_key, solve.result);
  }
  if (flight != nullptr) {
    flight->degraded = solve.degraded;  // written before set_value
    flight->served_by = solve.engine_used;
    ResolveFlight(key, *flight, solve.result);
  }
  if (cache) EnqueueWriteback(cache_key, solve.result);
  response.result = solve.result;
  response.solve_seconds = solve.solve_seconds;
  if (solve.degraded) {
    response.degraded = true;
    response.engine_name = solve.engine_used;
  }
}

CompileService::Claim CompileService::ClaimFlight(
    const RequestKey& key, std::shared_ptr<Flight>& flight,
    CompileResponse& response) {
  Shard& shard = ShardFor(key.hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (ResultPtr hit = LookupLocked(shard, key)) {
    response.result = std::move(hit);
    response.outcome = CacheOutcome::kHit;
    return Claim::kHit;
  }
  if (const auto it = shard.flights.find(key.hash);
      it != shard.flights.end()) {
    flight = it->second;
    single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
    return Claim::kJoined;
  }
  flight = std::make_shared<Flight>();
  flight->future = flight->promise.get_future().share();
  shard.flights.emplace(key.hash, flight);
  return Claim::kOwner;
}

void CompileService::JoinFlight(const Flight& flight,
                                CompileResponse& response) {
  response.result = flight.future.get();  // rethrows the owner's failure
  response.outcome = CacheOutcome::kCollapsed;
  if (flight.degraded) {  // written before set_value; get() ordered it
    response.degraded = true;
    response.engine_name = flight.served_by;
  }
}

bool CompileService::WarmOwner(const RequestKey& key,
                               const std::shared_ptr<Flight>& flight,
                               CompileResponse& response) {
  if (ResultPtr from_disk = ProbeDisk(key, flight.get())) {
    response.result = std::move(from_disk);
    response.outcome = CacheOutcome::kDiskHit;
    return true;
  }
  // Both local tiers missed: in fleet mode, ask peers for their spill
  // envelope before paying an engine solve; any failure falls through to
  // the solve.
  if (ResultPtr from_peer = TryPeerWarm(key, flight.get())) {
    response.result = std::move(from_peer);
    response.outcome = CacheOutcome::kPeerHit;
    return true;
  }
  return false;
}

void CompileService::ExecuteCached(const CompileRequest& request,
                                   const RequestKey& key, bool record_access,
                                   CompileResponse& response) {
  if (record_access && admission_ != nullptr) {
    admission_->RecordAccess(key.hash);
  }
  std::shared_ptr<Flight> flight;
  switch (ClaimFlight(key, flight, response)) {
    case Claim::kHit:
      return;
    case Claim::kJoined:
      JoinFlight(*flight, response);
      return;
    case Claim::kOwner:
      break;
  }
  if (WarmOwner(key, flight, response)) return;
  misses_.fetch_add(1, std::memory_order_relaxed);
  ColdSolve solve(request, key);
  SolveCold({&solve, 1});
  Publish(solve, flight, response);
  response.outcome = CacheOutcome::kMiss;
}

CompileResponse CompileService::Execute(
    const CompileRequest& request,
    const std::optional<RequestKey>& precomputed) {
  const RequestKey key =
      precomputed ? *precomputed
                  : MakeKey(request.dag, request.num_stages, request.engine,
                            request.profile);
  CompileResponse response = ResponseFor(key);
  if (request.cache_policy == CachePolicy::kUse) {
    ExecuteCached(request, key, /*record_access=*/!precomputed.has_value(),
                  response);
    return response;
  }
  // kBypass: a forced fresh solve, cache untouched; not counted as a miss
  // (misses are cache-lookup outcomes, and this never looked).  kRefresh:
  // a fresh solve that overwrites the entry and renews its disk copy.
  const bool refresh = request.cache_policy == CachePolicy::kRefresh;
  (refresh ? refreshes_ : bypasses_).fetch_add(1, std::memory_order_relaxed);
  ColdSolve solve(request, key);
  SolveCold({&solve, 1});
  Publish(solve, nullptr, response, /*cache=*/refresh);
  response.outcome = refresh ? CacheOutcome::kRefresh : CacheOutcome::kBypass;
  return response;
}

void CompileService::EnqueueWriteback(const RequestKey& key,
                                      ResultPtr result) {
  if (store_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(writeback_mutex_);
    ++pending_writebacks_;
  }
  store::SpillMeta meta;
  meta.key = key.hash;
  meta.rl_dependent = key.rl_dependent;
  meta.rl_version = key.rl_version;
  meta.engine_name = std::string(key.engine_name);
  meta.profile_name = key.profile.name;
  meta.profile_fingerprint = key.profile_fingerprint;
  // The one writer thread, FIFO: a spill never holds a serving worker, so
  // it cannot delay a waiting request's solve.  A spill whose RL snapshot
  // was replaced while it waited is dropped: no future request can reach
  // its key, and CompactStore would only delete it again.  Put counts its
  // own I/O failures; anything that still throws (an injected fault, an
  // unexpected error) is counted service-side — the spill is lost but
  // never silently, and the decrement always runs so FlushStore cannot
  // hang on a failed write.
  const std::uint64_t trace_id = obs::CurrentTraceId();  // the request's flow
  writer_->Submit(
      [this, meta = std::move(meta), result = std::move(result), trace_id] {
        const obs::ScopedTraceId trace_scope(trace_id);
        OBS_SPAN("serve.writeback");
        try {
          RESPECT_FAILPOINT("serve.writeback");
          if (!meta.rl_dependent ||
              meta.rl_version == compiler_.RlVersion()) {
            store_->Put(meta, result);
          }
        } catch (...) {
          writeback_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        {
          const std::lock_guard<std::mutex> lock(writeback_mutex_);
          --pending_writebacks_;
        }
        writeback_cv_.notify_all();
      });
}

void CompileService::FlushStore() {
  std::unique_lock<std::mutex> lock(writeback_mutex_);
  writeback_cv_.wait(lock, [this] { return pending_writebacks_ == 0; });
}

std::size_t CompileService::CompactStore() {
  return store_ != nullptr ? store_->Compact(compiler_.RlVersion()) : 0;
}

void CompileService::Promote(const RequestKey& key, const ResultPtr& result,
                             Flight* flight) {
  {
    Shard& shard = ShardFor(key.hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    InsertLocked(shard, key, result);  // subject to admission
  }
  if (flight != nullptr) ResolveFlight(key, *flight, result);
}

CompileService::ResultPtr CompileService::ProbeDisk(const RequestKey& key,
                                                    Flight* flight) {
  if (store_ == nullptr) return nullptr;
  OBS_SPAN("serve.disk_probe");
  ResultPtr from_disk = store_->Probe(key.hash);
  if (from_disk == nullptr) return nullptr;
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  Promote(key, from_disk, flight);
  return from_disk;
}

std::shared_ptr<const CompileService::PeerFetchFn>
CompileService::PeerFetchSnapshot() const {
  const std::lock_guard<std::mutex> lock(peer_fetch_mutex_);
  return peer_fetch_;
}

void CompileService::SetPeerFetch(PeerFetchFn fetch) {
  std::shared_ptr<const PeerFetchFn> installed;
  if (fetch) {
    installed = std::make_shared<const PeerFetchFn>(std::move(fetch));
  }
  const std::lock_guard<std::mutex> lock(peer_fetch_mutex_);
  peer_fetch_ = std::move(installed);
}

std::optional<std::string> CompileService::ExportSpill(
    const graph::CanonicalHash& key) {
  return store_ != nullptr ? store_->ExportRaw(key) : std::nullopt;
}

CompileService::ResultPtr CompileService::TryPeerWarm(const RequestKey& key,
                                                      Flight* flight) {
  const std::shared_ptr<const PeerFetchFn> fetch = PeerFetchSnapshot();
  if (fetch == nullptr) return nullptr;
  OBS_SPAN("serve.peer_fetch");
  peer_fetches_.fetch_add(1, std::memory_order_relaxed);
  std::string bytes;
  try {
    bytes = (*fetch)(key.hash);
  } catch (...) {
    // A dead or slow peer degrades to a local solve — never a request
    // failure.
    peer_fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (bytes.empty()) return nullptr;  // clean peer miss
  // One decode: the store's import verifies; with no store, verify here.
  const std::optional<store::SpillEnvelope> envelope =
      store_ != nullptr ? store_->ImportRaw(key.hash, bytes)
                        : store::TryDecodeSpillEnvelope(bytes);
  if (!envelope || envelope->meta.key != key.hash) {
    // Corrupt, mismatched, or other-format peer bytes: counted, discarded,
    // and the request pays its own solve — a lying peer cannot poison a
    // cache.
    peer_fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  peer_hits_.fetch_add(1, std::memory_order_relaxed);
  Promote(key, envelope->result, flight);
  return envelope->result;
}

graph::CanonicalHash CompileService::KeyFor(
    const CompileRequest& request) const {
  return MakeKey(request.dag, request.num_stages, request.engine,
                 request.profile)
      .hash;
}

std::optional<CompileResponse> CompileService::TryServeLocal(
    const CompileRequest& request) {
  if (request.cache_policy != CachePolicy::kUse) return std::nullopt;
  const RequestKey key = MakeKey(request.dag, request.num_stages,
                                 request.engine, request.profile);
  CompileResponse response = ResponseFor(key);
  // Note: a miss here followed by a full Submit records the admission
  // access twice — a one-sample skew the frequency sketch tolerates.
  response.result = TryCached(key);
  response.outcome = CacheOutcome::kHit;
  if (response.result == nullptr) {
    response.result = ProbeDisk(key, nullptr);
    response.outcome = CacheOutcome::kDiskHit;
  }
  if (response.result == nullptr) return std::nullopt;
  return response;
}

CompileResponse CompileService::Compile(const CompileRequest& request) {
  // Admission is where a request's trace id is minted (when tracing is
  // armed and the caller didn't bring one, e.g. from a fleet forward).
  std::uint64_t trace_id = request.trace_id;
  if (trace_id == 0 && obs::Armed()) {
    trace_id = obs::Tracer::Global().MintTraceId();
  }
  const obs::ScopedTraceId trace_scope(trace_id);
  OBS_SPAN("serve.compile");
  if (request.deadline && SteadyClock::now() > *request.deadline) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceeded(
        "compile request deadline expired before the solve started");
  }
  return Execute(request, std::nullopt);
}

CompileService::Ticket CompileService::Submit(CompileRequest request) {
  return SubmitInternal(std::move(request), std::nullopt);
}

CompileService::QueueCounters CompileService::CountEnqueued(
    const CompileRequest& request) {
  QueueCounters counters{&lane_counters_[LaneIndex(request.priority)],
                         default_tenant_};
  if (!request.tenant.empty()) {
    const auto named = named_tenants_.find(request.tenant);
    counters.tenant =
        named != named_tenants_.end() ? named->second : overflow_tenant_;
  }
  counters.lane->enqueued.fetch_add(1, std::memory_order_relaxed);
  counters.tenant.enqueued->fetch_add(1, std::memory_order_relaxed);
  return counters;
}

void CompileService::StartQueued(const QueueCounters& counters,
                                 double wait_seconds) {
  counters.lane->started.fetch_add(1, std::memory_order_relaxed);
  counters.tenant.started->fetch_add(1, std::memory_order_relaxed);
  counters.lane->wait.Observe(wait_seconds);
}

void CompileService::ExpireQueued(const QueueCounters& counters,
                                  std::promise<CompileResponse>& promise,
                                  const std::string& what) {
  counters.lane->expired.fetch_add(1, std::memory_order_relaxed);
  counters.tenant.expired->fetch_add(1, std::memory_order_relaxed);
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  promise.set_exception(std::make_exception_ptr(DeadlineExceeded(what)));
}

CompileService::Ticket CompileService::SubmitInternal(
    CompileRequest request, std::optional<RequestKey> key) {
  // Everything a queued request needs, shared between the run task and the
  // expiry callback — whichever the queue hands to a worker resolves the
  // promise exactly once (an entry is popped exactly once).
  struct Pending {
    std::promise<CompileResponse> promise;
    CompileRequest request;
    std::optional<RequestKey> key;
    SteadyClock::time_point enqueue_time;
    QueueCounters counters;
  };
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->key = std::move(key);
  pending->enqueue_time = SteadyClock::now();
  if (pending->request.trace_id == 0 && obs::Armed()) {
    pending->request.trace_id = obs::Tracer::Global().MintTraceId();
  }

  const std::size_t lane = LaneIndex(pending->request.priority);
  pending->counters = CountEnqueued(pending->request);

  Ticket ticket(pending->promise.get_future().share());

  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(lane);
  attrs.flow = pending->request.tenant;  // weighted-fair queueing
  attrs.sheddable = true;  // a full lane refuses us with Overloaded
  attrs.trace_id = pending->request.trace_id;
  if (pending->request.deadline) {
    attrs.has_deadline = true;
    attrs.deadline = *pending->request.deadline;
  }
  attrs.on_expired = [this, pending] {
    ExpireQueued(pending->counters, pending->promise,
                 "compile request deadline expired while queued (lane " +
                     std::string(PriorityName(pending->request.priority)) +
                     ")");
  };

  try {
    pool_->Submit(
        [this, pending] {
          const obs::ScopedTraceId trace_scope(pending->request.trace_id);
          OBS_SPAN("serve.request");
          const double wait = std::chrono::duration<double>(
                                  SteadyClock::now() - pending->enqueue_time)
                                  .count();
          // The lane queue fails entries already expired at pop time, but a
          // deadline can still pass between the pop and this first
          // instruction.
          if (pending->request.deadline &&
              SteadyClock::now() > *pending->request.deadline) {
            ExpireQueued(pending->counters, pending->promise,
                         "compile request deadline expired after " +
                             std::to_string(wait) + "s in queue");
            return;
          }
          StartQueued(pending->counters, wait);
          try {
            CompileResponse response =
                Execute(pending->request, pending->key);
            response.queue_wait_seconds = wait;
            pending->promise.set_value(std::move(response));
          } catch (...) {
            pending->promise.set_exception(std::current_exception());
          }
        },
        std::move(attrs));
  } catch (const Overloaded&) {
    // The lane refused the entry at its depth bound (nothing enqueued).
    // The typed rejection reaches the caller through the ticket, same as
    // every other async failure.
    pending->counters.lane->shed.fetch_add(1, std::memory_order_relaxed);
    pending->promise.set_exception(std::current_exception());
  }
  return ticket;
}

std::vector<CompileResponse> CompileService::CompileBatch(
    std::span<const CompileRequest> requests) {
  // Warm kUse entries answer in place — no Dag copy, no pool round-trip;
  // each cold group of >= 2 becomes ONE pool task (RunBatchGroup).  Waiters
  // never deadlock the pool: a flight owner finishes without needing any
  // other queued task (flights only ever belong to running code, so a
  // queued duplicate that runs later hits the cache or the resolved flight).
  std::vector<CompileResponse> responses(requests.size());
  std::vector<std::pair<std::size_t, Ticket>> pending;

  // std::map keeps group order (and thus solve order) deterministic for a
  // given input.
  std::map<std::tuple<std::string_view, int, int, std::uint64_t,
                      std::uint64_t>,
           std::vector<GroupMember>>
      groups;
  std::map<std::string_view, bool> supports_batch;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CompileRequest& request = requests[i];
    if (request.cache_policy != CachePolicy::kUse) {
      pending.emplace_back(i, SubmitInternal(request, std::nullopt));
      continue;
    }
    RequestKey key = MakeKey(request.dag, request.num_stages, request.engine,
                             request.profile);
    if (ResultPtr cached = TryCached(key)) {
      responses[i] = ResponseFor(key);
      responses[i].result = std::move(cached);
      responses[i].outcome = CacheOutcome::kHit;
      continue;
    }
    // One probe per distinct engine in the batch: does it override
    // ScheduleBatch with a real lock-stepped path?
    auto [probe, inserted] = supports_batch.try_emplace(key.engine_name);
    if (inserted) {
      probe->second =
          engines::EngineRegistry::Global()
              .Create(key.engine_name, compiler_.MakeEngineContext())
              ->SupportsBatch();
    }
    if (!probe->second) {
      pending.emplace_back(i, SubmitInternal(request, std::move(key)));
      continue;
    }
    const auto group_key = std::make_tuple(
        key.engine_name, request.num_stages, request.dag.NodeCount(),
        key.profile_fingerprint.hi, key.profile_fingerprint.lo);
    GroupMember& member = groups[group_key].emplace_back();
    member.index = i;
    member.key = std::move(key);
    member.enqueue_time = SteadyClock::now();
  }

  for (auto& [group_key, members] : groups) {
    if (members.size() < 2) {
      // Lone candidate: no batch to form — the ordinary async path.
      for (GroupMember& m : members) {
        pending.emplace_back(m.index,
                             SubmitInternal(requests[m.index], std::move(m.key)));
      }
      continue;
    }
    // The group task runs on the most urgent member's lane so a grouped
    // interactive miss is not demoted behind batch-lane floods; per-member
    // lane counters still record each request under its own lane.
    std::size_t task_lane = kNumPriorityLanes - 1;
    for (GroupMember& m : members) {
      m.counters = CountEnqueued(requests[m.index]);
      task_lane = std::min(task_lane, LaneIndex(requests[m.index].priority));
      pending.emplace_back(m.index, Ticket(m.promise.get_future().share()));
    }
    // `requests` is captured by view: CompileBatch blocks on every ticket
    // below before returning, so the span outlives the task.  The group
    // task queues under the first member's tenant flow — one grouped solve
    // is one unit of service however many members share it.
    core::ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(task_lane);
    attrs.flow = requests[members.front().index].tenant;
    attrs.sheddable = true;  // a full lane refuses the whole group
    auto shared_members =
        std::make_shared<std::vector<GroupMember>>(std::move(members));
    try {
      pool_->Submit(
          [this, requests, shared_members] {
            RunBatchGroup(requests, *shared_members);
          },
          std::move(attrs));
    } catch (const Overloaded&) {
      // Shed as a unit, counted per member on its own lane.
      for (GroupMember& m : *shared_members) {
        m.counters.lane->shed.fetch_add(1, std::memory_order_relaxed);
        m.promise.set_exception(std::current_exception());
      }
    }
  }

  std::exception_ptr first_failure;
  for (const auto& [i, ticket] : pending) {
    try {
      responses[i] = ticket.WaitResponse();
    } catch (...) {
      if (first_failure == nullptr) first_failure = std::current_exception();
    }
  }
  if (first_failure != nullptr) std::rethrow_exception(first_failure);
  return responses;
}

void CompileService::RunBatchGroup(std::span<const CompileRequest> requests,
                                   std::vector<GroupMember>& members) {
  OBS_SPAN("serve.batch_group");
  struct Slot {
    GroupMember* member = nullptr;
    std::shared_ptr<Flight> flight;
    CompileResponse response;
  };
  std::vector<Slot> owners;
  std::vector<Slot> joined;
  owners.reserve(members.size());

  // Per member: the queued-request accounting of SubmitInternal, then the
  // single path's claim and warm-up.  Claims never block, so a duplicate
  // inside this group joins a flight this very task resolves below.
  for (GroupMember& m : members) {
    const CompileRequest& request = requests[m.index];
    const double wait = std::chrono::duration<double>(SteadyClock::now() -
                                                      m.enqueue_time)
                            .count();
    if (request.deadline && SteadyClock::now() > *request.deadline) {
      ExpireQueued(m.counters, m.promise,
                   "compile request deadline expired after " +
                       std::to_string(wait) + "s in queue (batched group)");
      continue;
    }
    StartQueued(m.counters, wait);
    Slot slot{&m, nullptr, ResponseFor(m.key)};
    slot.response.queue_wait_seconds = wait;
    switch (ClaimFlight(m.key, slot.flight, slot.response)) {
      case Claim::kHit:
        m.promise.set_value(std::move(slot.response));
        continue;
      case Claim::kJoined:
        joined.push_back(std::move(slot));
        continue;
      case Claim::kOwner:
        break;
    }
    if (WarmOwner(m.key, slot.flight, slot.response)) {
      m.promise.set_value(std::move(slot.response));
      continue;
    }
    owners.push_back(std::move(slot));
  }

  misses_.fetch_add(owners.size(), std::memory_order_relaxed);
  std::vector<ColdSolve> solves;
  solves.reserve(owners.size());
  for (const Slot& slot : owners) {
    solves.emplace_back(requests[slot.member->index], slot.member->key);
  }
  if (!solves.empty()) SolveCold(solves);

  const auto settle = [](Slot& slot, const auto& step) {
    try {
      step();
      slot.member->promise.set_value(std::move(slot.response));
    } catch (...) {
      slot.member->promise.set_exception(std::current_exception());
    }
  };
  for (std::size_t k = 0; k < owners.size(); ++k) {
    if (solves[k].result != nullptr && !solves[k].grouped) {
      batch_single_.fetch_add(1, std::memory_order_relaxed);
    }
    settle(owners[k], [&] {
      Publish(solves[k], owners[k].flight, owners[k].response);
      owners[k].response.outcome = CacheOutcome::kMiss;
    });
  }
  for (Slot& slot : joined) {
    settle(slot, [&] { JoinFlight(*slot.flight, slot.response); });
  }
}

void CompileService::ReplaceRl(std::shared_ptr<rl::RlScheduler> rl) {
  // Bump the version first: every key computed from here on addresses the
  // new snapshot.  Old-version keys — an in-flight solve inserting after
  // the sweep, spill files on disk — are unreachable (no future request
  // recomputes them): they occupy capacity or disk (CompactStore reclaims
  // it), never serve.
  compiler_.ReplaceRl(std::move(rl));
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->rl_dependent) {
        shard->entries.erase(it->key);
        it = shard->lru.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

ServiceMetrics CompileService::Metrics() const {
  ServiceMetrics metrics;
  metrics.evictions = evictions_.load(std::memory_order_relaxed);
  metrics.admission_rejected =
      admission_rejected_.load(std::memory_order_relaxed);
  metrics.invalidations = invalidations_.load(std::memory_order_relaxed);
  metrics.batch_solved = batch_solved_.load(std::memory_order_relaxed);
  metrics.batch_single = batch_single_.load(std::memory_order_relaxed);
  metrics.batch_groups = batch_groups_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    metrics.cache_size += shard->entries.size();
  }
  if (store_ != nullptr) metrics.store = store_->Metrics();
  return metrics;
}

std::optional<CircuitBreaker::Snapshot> CompileService::BreakerSnapshot(
    std::string_view engine) const {
  const std::lock_guard<std::mutex> lock(breaker_mutex_);
  const auto it = breakers_.find(engine);
  if (it == breakers_.end()) return std::nullopt;
  return it->second->GetSnapshot();
}

void CompileService::ClearCache() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace respect::serve
