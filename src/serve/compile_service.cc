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
  if (options.fifo_queue) {
    return std::make_unique<core::ThreadPool>(num_threads);
  }
  RequestQueue::Options queue_options;
  queue_options.aging_seconds = options.queue_aging_seconds;
  queue_options.max_batch_inflight = options.max_batch_inflight;
  queue_options.max_lane_depth = options.max_lane_depth;
  queue_options.tenant_weights = options.tenant_weights;
  queue_options.tenant_quotas = options.tenant_quotas;
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
  if (options.cache_ttl_seconds > 0.0) {
    has_ttl_ = true;
    memory_ttl_ = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(options.cache_ttl_seconds));
  }
  if (options.cache_capacity > 0) {
    admission_ =
        std::make_unique<store::TinyLfuAdmission>(options.cache_capacity);
  }
  default_solve_budget_seconds_ = options.default_solve_budget_seconds;
  deadline_admission_ = options.deadline_admission;
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
    store_options.ttl_seconds = options.cache_ttl_seconds;
    store_options.registry = &registry_;  // one exposition page per shard
    store_ = std::make_unique<store::DiskStore>(store_options);
  }
  pool_ = MakeServicePool(options);
}

CompileService::LaneCounters CompileService::MakeLaneCounters(
    std::size_t lane) {
  const std::string stem =
      "respect_serve_lane_" +
      std::string(PriorityName(static_cast<Priority>(lane))) + "_";
  return LaneCounters{
      registry_.GetCounter(stem + "enqueued_total",
                           "Submits routed to this lane"),
      registry_.GetCounter(stem + "started_total",
                           "Requests that began their compile on a worker"),
      registry_.GetCounter(stem + "expired_total",
                           "Requests failed fast with DeadlineExceeded"),
      registry_.GetCounter(stem + "shed_total",
                           "Requests refused at admission with Overloaded"),
      registry_.GetHistogram(stem + "wait_seconds",
                             "Queue wait of started requests (seconds)")};
}

// The pool joins before the members the queued tasks reference are torn
// down; every outstanding Ticket is resolved by then (queued entries run or
// expire, never vanish).
CompileService::~CompileService() { pool_.reset(); }

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
  // The default profile folds NOTHING in — keys (and thus spill files)
  // from before profiles existed stay reachable.  Any other profile's
  // fingerprint splits the key space: the same DAG compiled for two fleets
  // is two cache entries.
  const graph::CanonicalHash profile_fp = profile->Fingerprint();
  if (!profile->IsDefault()) {
    h.Update("profile");
    h.Update(profile_fp.hi);
    h.Update(profile_fp.lo);
  }
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

void CompileService::InsertLocked(
    Shard& shard, const RequestKey& key, ResultPtr result,
    std::optional<std::chrono::steady_clock::time_point> expires_at) {
  if (per_shard_capacity_ == 0) return;
  CacheEntry entry{key.hash, std::move(result), key.rl_dependent};
  if (has_ttl_) {
    entry.has_ttl = true;
    entry.expires_at = SteadyClock::now() + memory_ttl_;
    if (expires_at && *expires_at < entry.expires_at) {
      entry.expires_at = *expires_at;
    }
  } else if (expires_at) {
    // No service-wide TTL, but the entry itself carries one (a spill from
    // a TTL-configured producer sharing the cache dir): honor it.
    entry.has_ttl = true;
    entry.expires_at = *expires_at;
  }
  if (const auto it = shard.entries.find(key.hash);
      it != shard.entries.end()) {
    // Reached by CachePolicy::kRefresh overwriting a resident entry, and
    // defensively if a flight owner ever races an insert.  The TTL clock
    // restarts: a refresh is a brand-new result.
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

bool CompileService::DropIfExpiredLocked(Shard& shard,
                                         std::list<CacheEntry>::iterator it) {
  if (!it->has_ttl || SteadyClock::now() <= it->expires_at) return false;
  shard.entries.erase(it->key);
  shard.lru.erase(it);
  ttl_expired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CompileService::ResultPtr CompileService::LookupLocked(Shard& shard,
                                                       const RequestKey& key) {
  const auto it = shard.entries.find(key.hash);
  if (it == shard.entries.end()) return nullptr;
  // Expired: a miss (the disk copy, if any, carries the same TTL and will
  // be dropped by the store's own check).
  if (DropIfExpiredLocked(shard, it->second)) return nullptr;
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

void CompileService::RecordSolve(double seconds) {
  solve_hist_.Observe(seconds);
  // Load-compute-store EWMA: a lost race skews the admission estimate by
  // one sample, which it tolerates by construction.
  const double prev = ewma_solve_seconds_.load(std::memory_order_relaxed);
  ewma_solve_seconds_.store(
      prev == 0.0 ? seconds : 0.8 * prev + 0.2 * seconds,
      std::memory_order_relaxed);
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
          RecordSolve(amortized);
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
          RecordSolve(solve.solve_seconds);
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
                             CompileResponse& response) {
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
  if (solve.degraded) {
    fallback_key = MakeKey(solve.request->dag, solve.request->num_stages,
                           solve.engine_used, key.profile.name);
  }
  const RequestKey& cache_key = fallback_key ? *fallback_key : key;
  {
    Shard& shard = ShardFor(cache_key.hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    InsertLocked(shard, cache_key, solve.result);
  }
  if (flight != nullptr) {
    flight->degraded = solve.degraded;  // written before set_value
    flight->served_by = solve.engine_used;
    ResolveFlight(key, *flight, solve.result);
  }
  EnqueueWriteback(cache_key, solve.result);
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
  if (refresh) {
    Publish(solve, nullptr, response);
    response.outcome = CacheOutcome::kRefresh;
    return response;
  }
  if (solve.failure != nullptr) std::rethrow_exception(solve.failure);
  response.result = solve.result;
  response.solve_seconds = solve.solve_seconds;
  response.outcome = CacheOutcome::kBypass;
  if (solve.degraded) {
    response.degraded = true;
    response.engine_name = solve.engine_used;
  }
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
  // Normal lane: writeback must not wait out a capped batch flood, and
  // must not delay interactive solves either.  Put reports I/O failures
  // through the store's own counters; anything that still throws (an
  // injected fault, an unexpected error) is counted service-side — the
  // spill is lost but never silently, and the decrement always runs so
  // FlushStore cannot hang on a failed write.
  const std::uint64_t trace_id = obs::CurrentTraceId();  // the request's flow
  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(LaneIndex(Priority::kNormal));
  attrs.trace_id = trace_id;
  pool_->Submit(
      [this, meta = std::move(meta), result = std::move(result), trace_id] {
        const obs::ScopedTraceId trace_scope(trace_id);
        OBS_SPAN("serve.writeback");
        try {
          RESPECT_FAILPOINT("serve.writeback");
          store_->Put(meta, result);
        } catch (...) {
          writeback_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        {
          const std::lock_guard<std::mutex> lock(writeback_mutex_);
          --pending_writebacks_;
        }
        writeback_cv_.notify_all();
      },
      std::move(attrs));
}

void CompileService::FlushStore() {
  std::unique_lock<std::mutex> lock(writeback_mutex_);
  writeback_cv_.wait(lock, [this] { return pending_writebacks_ == 0; });
}

std::size_t CompileService::CompactStore() {
  return store_ != nullptr ? store_->Compact(compiler_.RlVersion()) : 0;
}

std::optional<std::chrono::steady_clock::time_point>
CompileService::PromoteExpiry(std::int64_t expires_at_unix_ms) {
  if (expires_at_unix_ms == 0) return std::nullopt;
  const auto remaining = std::chrono::system_clock::time_point(
                             std::chrono::milliseconds(expires_at_unix_ms)) -
                         std::chrono::system_clock::now();
  return SteadyClock::now() +
         std::chrono::duration_cast<SteadyClock::duration>(remaining);
}

void CompileService::Promote(const RequestKey& key, const ResultPtr& result,
                             std::int64_t expires_at_unix_ms, Flight* flight) {
  {
    Shard& shard = ShardFor(key.hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    InsertLocked(shard, key, result,
                 PromoteExpiry(expires_at_unix_ms));  // subject to admission
  }
  if (flight != nullptr) ResolveFlight(key, *flight, result);
}

CompileService::ResultPtr CompileService::ProbeDisk(const RequestKey& key,
                                                    Flight* flight) {
  if (store_ == nullptr) return nullptr;
  OBS_SPAN("serve.disk_probe");
  std::int64_t expiry_ms = 0;
  ResultPtr from_disk = store_->Probe(key.hash, &expiry_ms);
  if (from_disk == nullptr) return nullptr;
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  Promote(key, from_disk, expiry_ms, flight);
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

bool CompileService::ImportSpill(const graph::CanonicalHash& key,
                                 std::string_view bytes) {
  return store_ != nullptr && store_->ImportRaw(key, bytes);
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
  const std::optional<store::SpillEnvelope> envelope =
      store::TryDecodeSpillEnvelope(bytes);
  const bool usable =
      envelope && envelope->meta.key == key.hash &&
      (envelope->expires_at_unix_ms == 0 ||
       std::chrono::system_clock::now() <
           std::chrono::system_clock::time_point(
               std::chrono::milliseconds(envelope->expires_at_unix_ms)));
  if (!usable) {
    // Corrupt, mismatched, or expired peer bytes: counted, discarded, and
    // the request pays its own solve — a lying peer cannot poison a cache.
    peer_fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (store_ != nullptr) {
    store_->ImportRaw(key.hash, bytes);  // durable warmth; refusal is fine
  }
  peer_hits_.fetch_add(1, std::memory_order_relaxed);
  Promote(key, envelope->result, envelope->expires_at_unix_ms, flight);
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
  // Note: a miss here followed by a full Compile records the admission
  // access twice — a one-sample skew the frequency sketch tolerates.
  if (ResultPtr cached = TryCached(key)) {
    response.result = std::move(cached);
    response.outcome = CacheOutcome::kHit;
    return response;
  }
  if (ResultPtr from_disk = ProbeDisk(key, nullptr)) {
    response.result = std::move(from_disk);
    response.outcome = CacheOutcome::kDiskHit;
    return response;
  }
  return std::nullopt;
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

void CompileService::StartQueued(const CompileRequest& request,
                                 double wait_seconds) {
  const std::size_t lane = LaneIndex(request.priority);
  lane_counters_[lane].started.fetch_add(1, std::memory_order_relaxed);
  BumpTenant(request.tenant, &TenantMetrics::started);
  lane_counters_[lane].wait.Observe(wait_seconds);
}

void CompileService::ExpireQueued(const CompileRequest& request,
                                  std::promise<CompileResponse>& promise,
                                  const std::string& what) {
  lane_counters_[LaneIndex(request.priority)].expired.fetch_add(
      1, std::memory_order_relaxed);
  BumpTenant(request.tenant, &TenantMetrics::expired);
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
  };
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->key = std::move(key);
  pending->enqueue_time = SteadyClock::now();
  if (pending->request.trace_id == 0 && obs::Armed()) {
    pending->request.trace_id = obs::Tracer::Global().MintTraceId();
  }

  const std::size_t lane = LaneIndex(pending->request.priority);
  lane_counters_[lane].enqueued.fetch_add(1, std::memory_order_relaxed);
  BumpTenant(pending->request.tenant, &TenantMetrics::enqueued);

  Ticket ticket(pending->promise.get_future().share());

  // Deadline-aware admission (opt-in): when the lane's backlog times the
  // recent average solve cost already exceeds the request's deadline, the
  // queue wait alone would expire it — shed now (Overloaded) instead of
  // letting a doomed entry deepen the backlog for everyone behind it.
  if (deadline_admission_ && pending->request.deadline) {
    const double ewma = ewma_solve_seconds_.load(std::memory_order_relaxed);
    const LaneCounters& counters = lane_counters_[lane];
    const std::uint64_t enqueued =
        counters.enqueued.load(std::memory_order_relaxed);
    const std::uint64_t settled =
        counters.started.load(std::memory_order_relaxed) +
        counters.expired.load(std::memory_order_relaxed) +
        counters.shed.load(std::memory_order_relaxed);
    const double backlog =
        enqueued > settled ? static_cast<double>(enqueued - settled) : 0.0;
    const double est_wait =
        backlog * ewma / std::max(1, pool_->NumThreads());
    if (ewma > 0.0 &&
        pending->enqueue_time +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(est_wait)) >
            *pending->request.deadline) {
      lane_counters_[lane].shed.fetch_add(1, std::memory_order_relaxed);
      pending->promise.set_exception(std::make_exception_ptr(Overloaded(
          "deadline-aware admission: estimated queue wait " +
          std::to_string(est_wait) + "s on lane " +
          std::string(PriorityName(pending->request.priority)) +
          " exceeds the request deadline")));
      return ticket;
    }
  }

  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(lane);
  attrs.flow = pending->request.tenant;  // weighted-fair queueing + quotas
  attrs.sheddable = true;  // a full lane refuses us with Overloaded
  attrs.trace_id = pending->request.trace_id;
  if (pending->request.deadline) {
    attrs.has_deadline = true;
    attrs.deadline = *pending->request.deadline;
  }
  attrs.on_expired = [this, pending] {
    ExpireQueued(pending->request, pending->promise,
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
          // Belt and braces: the lane queue fails expired entries at pop
          // time, but the FIFO baseline doesn't, and a deadline can pass
          // between the pop decision and this first instruction.
          if (pending->request.deadline &&
              SteadyClock::now() > *pending->request.deadline) {
            ExpireQueued(pending->request, pending->promise,
                         "compile request deadline expired after " +
                             std::to_string(wait) + "s in queue");
            return;
          }
          StartQueued(pending->request, wait);
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
    lane_counters_[lane].shed.fetch_add(1, std::memory_order_relaxed);
    pending->promise.set_exception(std::current_exception());
  }
  return ticket;
}

bool CompileService::EngineSupportsBatch(std::string_view engine_name) const {
  return engines::EngineRegistry::Global()
      .Create(engine_name, compiler_.MakeEngineContext())
      ->SupportsBatch();
}

std::vector<CompileResponse> CompileService::CompileBatch(
    std::span<const CompileRequest> requests) {
  // Warm kUse entries answer in place — no Dag copy, no pool round-trip (an
  // all-warm batch costs one key hash + shard lookup per request, like the
  // sync path).  Cold kUse misses on a batch-capable engine group by
  // (engine, num_stages, node count, profile): each group of >= 2 becomes
  // ONE pool task (RunBatchGroup) whose cold owners share a lock-stepped
  // attempt, so a post-ReplaceRl miss storm refills at batch-decode speed.
  // Everything else fans out as ordinary async requests on its own lane;
  // results gather in input order.  Waiters never deadlock the pool: a
  // flight owner finishes without needing any other queued task (flights
  // only ever belong to running code, so a queued duplicate that runs
  // later simply hits the cache or the resolved flight).
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
    // One SupportsBatch probe per distinct engine in the batch.
    auto [probe, inserted] = supports_batch.try_emplace(key.engine_name);
    if (inserted) probe->second = EngineSupportsBatch(key.engine_name);
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
      const std::size_t lane = LaneIndex(requests[m.index].priority);
      lane_counters_[lane].enqueued.fetch_add(1, std::memory_order_relaxed);
      BumpTenant(requests[m.index].tenant, &TenantMetrics::enqueued);
      task_lane = std::min(task_lane, lane);
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
        lane_counters_[LaneIndex(requests[m.index].priority)].shed.fetch_add(
            1, std::memory_order_relaxed);
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
      ExpireQueued(request, m.promise,
                   "compile request deadline expired after " +
                       std::to_string(wait) + "s in queue (batched group)");
      continue;
    }
    StartQueued(request, wait);
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
  // new snapshot.  An in-flight solve keyed against the old version may
  // still insert after the sweep, but its key is unreachable (no future
  // request recomputes it), so it can only occupy capacity, never serve.
  // The same reasoning invalidates the persistent tier for free: old-
  // version spill files answer keys no future request recomputes.  They
  // only occupy disk — CompactStore() reclaims them.
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

void CompileService::BumpTenant(const std::string& tenant,
                                std::uint64_t TenantMetrics::*field) {
  const std::lock_guard<std::mutex> lock(tenant_mutex_);
  tenant_counters_[tenant].*field += 1;
}

ServiceMetrics CompileService::Metrics() const {
  ServiceMetrics metrics;
  metrics.hits = hits_.load(std::memory_order_relaxed);
  metrics.misses = misses_.load(std::memory_order_relaxed);
  metrics.evictions = evictions_.load(std::memory_order_relaxed);
  metrics.invalidations = invalidations_.load(std::memory_order_relaxed);
  metrics.single_flight_waits =
      single_flight_waits_.load(std::memory_order_relaxed);
  metrics.failures = failures_.load(std::memory_order_relaxed);
  metrics.bypasses = bypasses_.load(std::memory_order_relaxed);
  metrics.refreshes = refreshes_.load(std::memory_order_relaxed);
  metrics.deadline_expired =
      deadline_expired_.load(std::memory_order_relaxed);
  metrics.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  metrics.ttl_expired = ttl_expired_.load(std::memory_order_relaxed);
  metrics.admission_rejected =
      admission_rejected_.load(std::memory_order_relaxed);
  metrics.batch_solved = batch_solved_.load(std::memory_order_relaxed);
  metrics.batch_single = batch_single_.load(std::memory_order_relaxed);
  metrics.batch_groups = batch_groups_.load(std::memory_order_relaxed);
  metrics.budget_blown = budget_blown_.load(std::memory_order_relaxed);
  metrics.degraded_served = degraded_served_.load(std::memory_order_relaxed);
  metrics.fallback_exhausted =
      fallback_exhausted_.load(std::memory_order_relaxed);
  metrics.writeback_errors =
      writeback_errors_.load(std::memory_order_relaxed);
  metrics.peer_fetches = peer_fetches_.load(std::memory_order_relaxed);
  metrics.peer_hits = peer_hits_.load(std::memory_order_relaxed);
  metrics.peer_fetch_failures =
      peer_fetch_failures_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(breaker_mutex_);
    for (const auto& [name, breaker] : breakers_) {
      const CircuitBreaker::Snapshot snapshot = breaker->GetSnapshot();
      BreakerMetrics& out = metrics.breakers[std::string(name)];
      out.state = std::string(ToString(snapshot.state));
      out.consecutive_failures = snapshot.consecutive_failures;
      out.opened = snapshot.opened;
      out.short_circuits = snapshot.short_circuits;
    }
  }
  if (store_ != nullptr) metrics.store = store_->Metrics();
  {
    const std::lock_guard<std::mutex> lock(tenant_mutex_);
    metrics.tenants = tenant_counters_;
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    metrics.cache_size += shard->entries.size();
  }
  metrics.solve_p50_seconds = solve_hist_.Quantile(0.50);
  metrics.solve_p99_seconds = solve_hist_.Quantile(0.99);
  for (std::size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    LaneMetrics& out = metrics.lanes[lane];
    out.enqueued = lane_counters_[lane].enqueued.load(std::memory_order_relaxed);
    out.started = lane_counters_[lane].started.load(std::memory_order_relaxed);
    out.expired = lane_counters_[lane].expired.load(std::memory_order_relaxed);
    out.shed = lane_counters_[lane].shed.load(std::memory_order_relaxed);
    metrics.shed += out.shed;
    // Monotone counters loaded independently; saturate rather than wrap on
    // a transiently inconsistent snapshot.  Shed requests counted enqueued
    // but never start or expire, so they settle here too.
    const std::uint64_t settled = out.started + out.expired + out.shed;
    out.depth = out.enqueued > settled
                    ? static_cast<std::size_t>(out.enqueued - settled)
                    : 0;
    out.wait_p50_seconds = lane_counters_[lane].wait.Quantile(0.50);
    out.wait_p99_seconds = lane_counters_[lane].wait.Quantile(0.99);
  }
  return metrics;
}

void CompileService::ClearCache() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace respect::serve
