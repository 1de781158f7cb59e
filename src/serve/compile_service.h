// CompileService — the serving front end over PipelineCompiler.
//
// The API is built around two first-class types (serve/request.h):
// CompileRequest — dag, num_stages, engine (any spelling via EngineRef),
// priority lane, optional absolute deadline, cache policy — and
// CompileResponse — the shared result plus provenance (cache outcome,
// queue-wait and solve seconds, canonical engine name, key hex).
//
//   respect::serve::CompileService service(compiler_options);
//   auto r1 = service.Compile({.dag = dag, .num_stages = 4,
//                              .engine = "respect"});        // cold solve
//   auto r2 = service.Compile({.dag = dag, .num_stages = 4,
//                              .engine = "RESPECT"});        // cache hit
//   assert(r1.result == r2.result);   // alias and name share one key
//
// Every request is content-addressed: the key is a graph::CanonicalHash
// folding the graph's serialized form, the engine's canonical name,
// num_stages, the compiler options fingerprint, and (for RL-dependent
// engines only) the RL weight snapshot version.  Repeat requests are
// answered from a sharded LRU cache of shared immutable CompileResults, and
// concurrent identical requests are collapsed by single-flight
// deduplication: one caller solves, everyone else waits on that solve.
//
// Async path: Submit enqueues the request on a deadline-aware three-lane
// queue (serve::RequestQueue) feeding the service's core::ThreadPool and
// returns a Ticket.  Interactive requests overtake queued batch work
// (batch ages so it cannot starve; ServiceOptions::max_batch_inflight
// additionally caps how many batch solves may run at once); a request
// whose deadline passes in the queue fails fast with DeadlineExceeded
// instead of occupying a worker.  ReplaceRl swaps the RL weights under
// live traffic and invalidates exactly the RL-dependent cache entries.
// Failed solves are never cached.
//
// Persistent tier: ServiceOptions::cache_dir plugs a store::DiskStore
// behind the memory cache.  A memory miss probes the store before solving
// (the only synchronous disk read on the request path); a hit is surfaced
// as CacheOutcome::kDiskHit and promoted into memory subject to admission.
// Successful solves spill to disk as background writeback tasks on the
// service's pool, so a restart against the same directory warm-starts
// without re-running a single engine solve.  TinyLFU admission (on by
// default) keeps one-hit-wonder scans from flushing hot memory entries;
// cache_ttl_seconds bounds the age of both tiers, enforced lazily on
// probe.
//
// Every cold miss, whatever its entry point, takes one path: claim (or
// join) the single-flight slot, probe disk then peers, solve through the
// engine chain (SolveCold: budgets, breakers, fallbacks), and publish.
// CompileBatch only adds grouping: same-shape misses on a batch-capable
// engine share one lock-stepped attempt at the preferred engine.
//
// Thread safety: every public method is safe to call concurrently.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/respect.h"
#include "graph/canonical_hash.h"
#include "graph/dag.h"
#include "obs/registry.h"
#include "serve/circuit_breaker.h"
#include "serve/request.h"
#include "serve/store/cache_store.h"
#include "tpu/device_profile.h"

namespace respect::core {
class ThreadPool;
}  // namespace respect::core

namespace respect::serve::store {
class TinyLfuAdmission;
}  // namespace respect::serve::store

namespace respect::serve {

struct ServiceOptions {
  /// Total cached results across all shards (0 disables caching; single-
  /// flight deduplication still applies).  Rounded up to a multiple of
  /// cache_shards.
  std::size_t cache_capacity = 1024;

  /// Lock shards; more shards = less contention.  Clamped to >= 1.
  int cache_shards = 8;

  /// Workers behind Submit; values < 1 select
  /// core::ThreadPool::DefaultThreadCount().
  int num_threads = 0;

  /// Anti-starvation aging quantum of the priority queue (see
  /// serve::RequestQueue); <= 0 means pure strict priority.
  double queue_aging_seconds = 2.0;

  /// Baseline/escape hatch: hand Submit tasks to the pool in plain FIFO
  /// order — priority and aging are ignored, deadlines only fail fast when
  /// a worker picks the task up (not while it queues), and
  /// max_batch_inflight is ignored.
  bool fifo_queue = false;

  /// Max batch-lane solves running concurrently (<= 0 = unlimited).  With
  /// a cap of N, an interactive request never waits behind more than N
  /// batch solves even when a batch flood fills the queue — the remaining
  /// workers stay available to the other lanes.
  int max_batch_inflight = 0;

  /// Directory for the persistent spill tier (store::DiskStore); empty
  /// disables it.  On construction the directory is scanned, and a request
  /// already solved by a previous process is answered from disk
  /// (CacheOutcome::kDiskHit) instead of re-solving.
  std::string cache_dir;

  /// Time-to-live for cached entries in both tiers, enforced lazily on
  /// probe; <= 0 means entries never expire.  Memory entries age on the
  /// steady clock from insert; disk entries carry an absolute wall-clock
  /// expiry so the TTL survives restarts.
  double cache_ttl_seconds = 0.0;

  /// Frequency-aware admission (store::TinyLfuAdmission): when the memory
  /// cache is full, a cold insert only evicts the LRU victim if the new
  /// key's estimated access frequency is at least the victim's, so scan
  /// traffic cannot flush hot entries.  Disable for pure-LRU behavior.
  bool lfu_admission = true;

  /// Fair-queueing weight of tenants absent from tenant_weights (see
  /// serve::RequestQueue): inside each priority lane, backlogged tenants
  /// receive service proportional to their weight, so one tenant's flood
  /// deepens its own sub-queue instead of starving the others.  Ignored by
  /// the fifo_queue baseline.
  double default_tenant_weight = 1.0;

  /// Per-tenant fair-queueing weights ("" is the shared default tenant).
  std::map<std::string, double> tenant_weights;

  /// Concurrency quota of tenants absent from tenant_quotas: how many of
  /// one tenant's requests may *run* at once across all lanes; <= 0 means
  /// unlimited.  Ignored by the fifo_queue baseline.
  int default_tenant_quota = 0;

  /// Per-tenant concurrency quotas (<= 0 entries mean unlimited).
  std::map<std::string, int> tenant_quotas;

  /// Ordered engines tried after the preferred engine blows its solve
  /// budget, throws, or sits behind an open circuit breaker.  Any EngineRef
  /// spelling; resolved to canonical names at construction (unknown names
  /// throw std::invalid_argument there, not under traffic).  Empty = no
  /// fallback: a blown budget surfaces as DeadlineExceeded.  A response
  /// served by a fallback is tagged degraded and cached under the fallback
  /// engine's own key, never the preferred engine's.
  std::vector<std::string> fallback_chain;

  /// Per-engine-attempt solve budget (seconds) for requests that leave
  /// CompileRequest::solve_budget_seconds at 0; 0 here too = unlimited.
  /// Each attempt down the fallback chain gets a fresh budget.
  double default_solve_budget_seconds = 0.0;

  /// Consecutive solve failures (budget blows included) that open an
  /// engine's circuit breaker; <= 0 disables breakers entirely.  While
  /// open, requests skip the sick engine straight to its fallback —
  /// except when it is the last candidate, which is always attempted.
  int breaker_failure_threshold = 3;

  /// Seconds an open breaker short-circuits its engine before half-opening
  /// to admit a single probe solve.
  double breaker_open_seconds = 5.0;

  /// Test seam: breaker time source (null = steady_clock).
  std::function<std::chrono::steady_clock::time_point()> breaker_clock;

  /// Bound on queued entries per priority lane (serve::RequestQueue);
  /// <= 0 = unbounded.  A request submitted into a full lane is shed —
  /// Ticket::Wait throws Overloaded — instead of deepening the backlog; a
  /// grouped CompileBatch task is one entry, shed with all its members.
  /// Ignored by the fifo_queue baseline.
  int max_lane_depth = 0;

  /// Deadline-aware admission: shed a request at Submit time (Overloaded)
  /// when its lane's backlog times the recent average solve cost already
  /// exceeds the request's deadline — the queue wait alone would expire it.
  /// Off by default: expiry then still fails the request fast, but only
  /// once it surfaces in the queue.
  bool deadline_admission = false;
};

/// Per-tenant async-path counters ("" is the shared default tenant).
struct TenantMetrics {
  std::uint64_t enqueued = 0;  // Submits carrying this tenant id
  std::uint64_t started = 0;   // began their compile on a worker
  std::uint64_t expired = 0;   // failed fast with DeadlineExceeded
};

/// Per-lane queue statistics (async path only; synchronous Compile calls
/// never enter a lane).
struct LaneMetrics {
  std::uint64_t enqueued = 0;  // Submits routed to this lane
  std::uint64_t started = 0;   // began their compile on a worker
  std::uint64_t expired = 0;   // failed fast with DeadlineExceeded
  std::uint64_t shed = 0;      // refused at admission with Overloaded
  std::size_t depth = 0;       // waiting in queue right now (approximate)
  // Queue wait of started requests, interpolated from the lane's
  // respect_serve_lane_<lane>_wait_seconds histogram buckets over every
  // start since construction.
  double wait_p50_seconds = 0.0;
  double wait_p99_seconds = 0.0;
};

/// Point-in-time view of one engine's circuit breaker.
struct BreakerMetrics {
  std::string state;  // "closed" / "open" / "half-open"
  int consecutive_failures = 0;
  std::uint64_t opened = 0;          // transitions into open
  std::uint64_t short_circuits = 0;  // attempts skipped while open
};

/// Point-in-time counters; Metrics() assembles a consistent-enough snapshot
/// without stopping traffic.
struct ServiceMetrics {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // cold solves started (cacheable or not)
  std::uint64_t evictions = 0;        // LRU capacity evictions
  std::uint64_t invalidations = 0;    // entries dropped by ReplaceRl
  std::uint64_t single_flight_waits = 0;  // requests collapsed onto a solve
  std::uint64_t failures = 0;         // solves that threw
  std::uint64_t bypasses = 0;         // CachePolicy::kBypass solves
  std::uint64_t refreshes = 0;        // CachePolicy::kRefresh solves
  std::uint64_t deadline_expired = 0;  // DeadlineExceeded failures, all paths
  std::uint64_t disk_hits = 0;        // memory misses answered by the store
  std::uint64_t ttl_expired = 0;      // memory entries lazily expired
  std::uint64_t admission_rejected = 0;  // inserts refused by TinyLFU
  std::uint64_t batch_solved = 0;     // cold solves done by lock-stepped groups
  std::uint64_t batch_single = 0;     // grouped-path solves that fell back to
                                      // the per-graph decode (stragglers)
  std::uint64_t batch_groups = 0;     // lock-stepped group decodes executed
  std::uint64_t budget_blown = 0;     // engine attempts cancelled on budget
  std::uint64_t degraded_served = 0;  // responses produced by a fallback
  std::uint64_t fallback_exhausted = 0;  // requests whose whole chain failed
  std::uint64_t shed = 0;             // requests refused at admission
                                      // (Overloaded), summed over lanes
  std::uint64_t writeback_errors = 0;  // background spills that failed
  std::uint64_t peer_fetches = 0;     // peer warm attempts on cold misses
  std::uint64_t peer_hits = 0;        // requests answered by peer envelopes
  std::uint64_t peer_fetch_failures = 0;  // fetches that threw or returned
                                          // corrupt/mismatched bytes
  // Cold-solve latency, interpolated from the respect_serve_solve_seconds
  // histogram buckets over every cold solve since construction.
  double solve_p50_seconds = 0.0;
  double solve_p99_seconds = 0.0;
  std::size_t cache_size = 0;         // resident entries right now
  std::array<LaneMetrics, kNumPriorityLanes> lanes{};

  /// Async-path counters by tenant id; empty until a Submit carries a
  /// non-empty tenant (the "" default tenant is tracked once it appears).
  std::map<std::string, TenantMetrics> tenants;

  /// Persistent-tier counters; all zero when no cache_dir is configured.
  store::StoreMetrics store{};

  /// Circuit-breaker state by canonical engine name; an engine appears
  /// once it has served (or skipped) at least one solve attempt.
  std::map<std::string, BreakerMetrics> breakers;
};

class CompileService {
 public:
  using ResultPtr = serve::ResultPtr;

  explicit CompileService(const CompilerOptions& compiler_options = {},
                          const ServiceOptions& options = {});
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Synchronous compile on the caller's thread: answers per the request's
  /// cache policy (cache hit, collapsed onto an in-flight identical solve,
  /// or cold solve — see CacheOutcome).  An unknown or empty engine throws
  /// std::invalid_argument before touching the cache; an already-expired
  /// deadline throws DeadlineExceeded before solving; solve exceptions
  /// propagate to every caller collapsed onto the failing flight.  The
  /// request's priority is ignored (nothing queues).
  [[nodiscard]] CompileResponse Compile(const CompileRequest& request);

  /// Handle to an async request; shareable (copies wait on the same solve).
  class Ticket {
   public:
    Ticket() = default;

    /// Blocks until the request completes and returns the shared result;
    /// rethrows its failure (DeadlineExceeded when it expired in queue).
    /// May be called repeatedly and from multiple threads.  A default-
    /// constructed (or moved-from) Ticket throws future_error (no_state)
    /// instead of hitting shared_future::get()'s UB.
    [[nodiscard]] ResultPtr Wait() const { return WaitResponse().result; }

    /// Same, returning the full response with provenance.  The reference
    /// stays valid while any copy of this Ticket is alive.
    [[nodiscard]] const CompileResponse& WaitResponse() const {
      if (!future_.valid()) {
        throw std::future_error(std::future_errc::no_state);
      }
      return future_.get();
    }

    [[nodiscard]] bool Valid() const { return future_.valid(); }

   private:
    friend class CompileService;
    explicit Ticket(std::shared_future<CompileResponse> future)
        : future_(std::move(future)) {}

    std::shared_future<CompileResponse> future_;
  };

  /// Enqueues the request on its priority lane.  The request is taken by
  /// value so the caller's copy may die before the solve runs (move it in
  /// when done with it).  Engine resolution happens on the worker: an
  /// unknown engine surfaces through Ticket::Wait, not here.
  [[nodiscard]] Ticket Submit(CompileRequest request);

  /// Compiles every request of the batch through the shared cache: warm
  /// kUse entries answer in place without a solve, and results come back in
  /// input order.  Cold kUse requests on a batch-capable engine
  /// (SchedulerEngine::SupportsBatch) are grouped by (engine, num_stages,
  /// node count, profile); each group of >= 2 becomes one sheddable task
  /// on its most urgent member's lane whose cold owners share one
  /// lock-stepped attempt at the preferred engine — a miss storm after
  /// ReplaceRl refills at batch-decode throughput.  Budgets, breakers,
  /// fallbacks, disk and peer warm-up and spans are those of Compile.
  /// Everything else fans out as ordinary async requests on its own
  /// priority lane (duplicates collapse via single-flight).  The first
  /// failure rethrows after every flight finishes.
  [[nodiscard]] std::vector<CompileResponse> CompileBatch(
      std::span<const CompileRequest> requests);

  /// Swaps the RL weight snapshot (null resets to the configured state),
  /// bumps the snapshot version, and drops every RL-dependent cache entry.
  /// Deterministic-engine entries are untouched.  In-flight RL solves finish
  /// on the snapshot they started with; their results land under the old
  /// version's keys, which no future request recomputes, so stale weights
  /// can never answer a post-swap request.  This is the only supported way
  /// to change compiler state under live traffic.
  void ReplaceRl(std::shared_ptr<rl::RlScheduler> rl);

  [[nodiscard]] ServiceMetrics Metrics() const;

  /// Drops every cached *memory* entry (counters are preserved; the
  /// persistent tier is untouched, so subsequent requests may come back as
  /// disk hits — which is exactly how the restart path behaves).
  void ClearCache();

  /// Blocks until every queued background spill write has landed in the
  /// store.  No-op without a cache_dir.  Call before dropping the process
  /// (or handing the directory to another service) when the very last
  /// solves must be on disk; the destructor drains the pool anyway.
  void FlushStore();

  /// Deletes unreachable store entries — RL-dependent spills from
  /// superseded weight snapshots (their keys embed the old version, so no
  /// future request recomputes them) and TTL-expired files.  Returns the
  /// number of entries removed; 0 without a cache_dir.  Synchronous and
  /// safe under live traffic.
  std::size_t CompactStore();

  /// Read-only view of the underlying compiler (e.g. RlVersion checks).
  /// Deliberately const-only: mutating the compiler behind the cache's back
  /// would desynchronize keys from results — weight swaps go through
  /// ReplaceRl.
  [[nodiscard]] const PipelineCompiler& Compiler() const { return compiler_; }

  // ── Fleet hooks (net::FleetServer) ─────────────────────────────────────

  /// The content-addressed key this request resolves to — what the fleet
  /// router hashes to pick an owner shard.  Same validation as Compile: an
  /// unknown engine or profile throws std::invalid_argument.  Pure (no
  /// cache side effects).
  [[nodiscard]] graph::CanonicalHash KeyFor(
      const CompileRequest& request) const;

  /// Local-tiers-only probe: answers a CachePolicy::kUse request from the
  /// memory cache (kHit) or the persistent store (kDiskHit, promoted), and
  /// returns nullopt otherwise — never joins a flight, never solves, never
  /// peer-fetches.  The fleet server uses this to decide whether a request
  /// it does not own can be answered in place or must forward.  Non-kUse
  /// policies always return nullopt (they never probe caches).
  [[nodiscard]] std::optional<CompileResponse> TryServeLocal(
      const CompileRequest& request);

  /// Peer warm hook: called on a cold miss (after both local tiers missed,
  /// before the engine solve) with the request key; returns raw spill
  /// envelope bytes or "" for a peer miss.  The bytes are fully verified
  /// here — checksum, embedded key, expiry — before anything is served;
  /// corrupt bytes and thrown exceptions count as peer_fetch_failures and
  /// the request falls through to a normal local solve.  A verified fetch
  /// is imported into the local store (durable warmth), promoted into
  /// memory, and surfaced as CacheOutcome::kPeerHit.  Pass nullptr to
  /// uninstall.  The function must stay callable until it is uninstalled
  /// and every in-flight request has settled (net::FleetServer::Stop does
  /// both).
  using PeerFetchFn = std::function<std::string(const graph::CanonicalHash&)>;
  void SetPeerFetch(PeerFetchFn fetch);

  /// Verified raw spill envelope bytes for `key` from the persistent tier,
  /// or nullopt (no store, absent, corrupt, expired) — the serving side of
  /// a peer's fetch-by-hex.
  [[nodiscard]] std::optional<std::string> ExportSpill(
      const graph::CanonicalHash& key);

  /// Verifies and persists raw envelope bytes under `key` (see
  /// store::CacheStore::ImportRaw).  False without a store or when the
  /// bytes are refused.
  bool ImportSpill(const graph::CanonicalHash& key, std::string_view bytes);

  // ── Observability ──────────────────────────────────────────────────────

  /// The unified metrics registry behind Metrics()'s counters.  Instance-
  /// scoped (tests assert exact per-service values); the disk store and the
  /// fleet server register their metrics here too, so one
  /// RenderPrometheus(os) call emits the whole shard's exposition page.
  [[nodiscard]] obs::Registry& MetricsRegistry() { return registry_; }

 private:
  struct CacheEntry {
    graph::CanonicalHash key;
    ResultPtr result;
    bool rl_dependent = false;
    bool has_ttl = false;
    std::chrono::steady_clock::time_point expires_at{};
  };

  /// One single-flight slot: the owner solves and resolves the future; every
  /// concurrent identical request waits on it.  The provenance fields are
  /// written by the owner before set_value — promise/future ordering makes
  /// them visible to every waiter that returned from future.get().
  struct Flight {
    std::promise<ResultPtr> promise;
    std::shared_future<ResultPtr> future;
    bool degraded = false;
    std::string_view served_by{};  // canonical engine that actually solved
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<CacheEntry> lru;  // front = most recently used
    std::unordered_map<graph::CanonicalHash, std::list<CacheEntry>::iterator,
                       graph::CanonicalHash::Hasher>
        entries;
    std::unordered_map<graph::CanonicalHash, std::shared_ptr<Flight>,
                       graph::CanonicalHash::Hasher>
        flights;
  };

  struct RequestKey {
    graph::CanonicalHash hash;
    bool rl_dependent = false;
    std::uint64_t rl_version = 0;  // snapshot folded into hash (RL only)
    std::string_view engine_name;  // canonical; borrowed from the registry

    /// Resolved device profile the solve targets.  The default profile
    /// folds nothing into the hash (pre-profile keys and spill files stay
    /// reachable); any other profile folds its fingerprint in.
    tpu::DeviceProfile profile;
    graph::CanonicalHash profile_fingerprint{};
  };

  /// Resolves the engine and the named device profile and builds the
  /// content-addressed key.  An unknown profile name or num_stages < 1
  /// throws std::invalid_argument (same contract as an unknown engine), so
  /// such a request never reaches a flight or a breaker.
  [[nodiscard]] RequestKey MakeKey(const graph::Dag& dag, int num_stages,
                                   const EngineRef& engine,
                                   std::string_view profile_name) const;
  [[nodiscard]] Shard& ShardFor(const graph::CanonicalHash& hash);

  /// Cache-only probe: returns the resident entry (counted as a hit, LRU
  /// refreshed) or null without joining flights or solving.
  [[nodiscard]] ResultPtr TryCached(const RequestKey& key);

  /// The resident, unexpired entry for `key` (a hit: counted, LRU
  /// refreshed) or null.  Call under the shard mutex.
  [[nodiscard]] ResultPtr LookupLocked(Shard& shard, const RequestKey& key);

  /// A response carrying only `key`'s header: engine, requested engine and
  /// key hex.  Every entry point starts its response here.
  [[nodiscard]] static CompileResponse ResponseFor(const RequestKey& key);

  /// Dispatch on cache policy; fills result/outcome/solve_seconds.  A
  /// precomputed key means the caller already recorded the admission
  /// access in its TryCached probe.
  [[nodiscard]] CompileResponse Execute(
      const CompileRequest& request,
      const std::optional<RequestKey>& precomputed);

  /// The CachePolicy::kUse path: claim → warm tiers → SolveCold → Publish.
  /// `record_access` feeds the admission sketch (one access per logical
  /// request, whatever the entry point).
  void ExecuteCached(const CompileRequest& request, const RequestKey& key,
                     bool record_access, CompileResponse& response);

  /// How a request meets the single-flight table.
  enum class Claim { kHit, kJoined, kOwner };

  /// Answers from memory (kHit, response filled), joins an in-flight
  /// identical solve (kJoined), or becomes the flight's owner (kOwner).
  /// Never blocks on a solve: JoinFlight waits separately.
  [[nodiscard]] Claim ClaimFlight(const RequestKey& key,
                                  std::shared_ptr<Flight>& flight,
                                  CompileResponse& response);

  /// Waits for a joined flight (rethrowing its failure) and fills the
  /// response as kCollapsed with the owner's provenance.
  static void JoinFlight(const Flight& flight, CompileResponse& response);

  /// Flight-owner warm-up before paying a solve: the persistent tier, then
  /// peers.  True when either answered (flight resolved, response filled).
  [[nodiscard]] bool WarmOwner(const RequestKey& key,
                               const std::shared_ptr<Flight>& flight,
                               CompileResponse& response);

  /// One flight owner's cold solve: request and key in; the result (with
  /// the engine that produced it), or the failure that exhausted the
  /// engine chain, out.
  struct ColdSolve {
    ColdSolve(const CompileRequest& r, const RequestKey& k)
        : request(&r), key(&k) {}
    const CompileRequest* request = nullptr;
    const RequestKey* key = nullptr;
    ResultPtr result;
    std::exception_ptr failure;
    double solve_seconds = 0.0;
    std::string_view engine_used{};  // canonical; borrowed from the registry
    bool degraded = false;           // engine_used is a fallback
    bool grouped = false;  // answered by the lock-stepped group attempt
  };

  /// Where an owner's engine-chain walk starts, and what already failed.
  struct ChainStart {
    std::size_t candidate = 0;
    std::exception_ptr failure;
    bool budget_blown = false;
  };

  /// The cold solve of N flight owners through the engine chain — the
  /// preferred engine (unless its breaker is open and a fallback exists),
  /// then each configured fallback, every attempt under a fresh solve
  /// budget.  Two or more owners (same engine, stages and profile, on a
  /// batch-capable engine) first share ONE PipelineCompiler::CompileGroup
  /// attempt at the preferred engine; when that attempt throws or blows
  /// its budget, each owner walks the rest of the chain alone.  Owners
  /// whose graph is invalid or whose deadline lapsed stay out of the group
  /// attempt, so they fail alone.  One owner is the single-request path.
  /// Never throws: each owner ends with a result or a failure (a chain
  /// that died purely on budgets fails with DeadlineExceeded).
  void SolveCold(std::span<ColdSolve> solves);

  /// The lock-stepped attempt at the preferred engine shared by `group`
  /// (one breaker check, one token under the tightest member budget); on
  /// a short circuit or a failed attempt every member walks the rest of
  /// the chain alone.
  void SolveGroup(std::span<ColdSolve* const> group);

  /// One owner's walk down the engine chain from `chain`.
  void WalkChain(ColdSolve& solve, ChainStart chain);

  /// One engine attempt on behalf of `members` owners: skipped (false)
  /// behind an open breaker unless `last`; otherwise `solve(cancel)` runs
  /// under a fresh `budget` token (0 = none) and the breaker records the
  /// outcome.  A failure lands in `chain` (the first one is kept) and
  /// returns false; a blown budget counts once per member.
  template <typename Solve>
  [[nodiscard]] bool Attempt(std::string_view engine, bool last,
                             double budget, std::size_t members,
                             ChainStart& chain, const Solve& solve);

  /// The preferred engine, then each configured fallback other than it.
  [[nodiscard]] std::vector<std::string_view> Candidates(
      const RequestKey& key) const;

  /// Per-attempt solve budget in seconds (0 = unlimited).
  [[nodiscard]] double BudgetFor(const CompileRequest& request) const;

  /// Feeds one cold solve's latency to the window and the admission EWMA.
  void RecordSolve(double seconds);

  /// Settles a cold solve.  On success: inserts under the serving engine's
  /// key (the fallback's own key when degraded, never the preferred one's),
  /// spills, resolves `flight` (may be null) and fills the response.  On
  /// failure: resolves `flight` with the failure and rethrows it.
  void Publish(const ColdSolve& solve, const std::shared_ptr<Flight>& flight,
               CompileResponse& response);

  /// Removes `key`'s flight from its shard, then resolves it with `result`
  /// or, when `result` is null, with `failure`.
  void ResolveFlight(const RequestKey& key, Flight& flight, ResultPtr result,
                     std::exception_ptr failure = nullptr);

  /// The breaker guarding `engine` (created closed on first use).
  [[nodiscard]] CircuitBreaker& BreakerFor(std::string_view engine);

  /// Submit with an optionally precomputed key (the batch path probes the
  /// cache with the key first, then reuses it — one DAG serialization+hash
  /// per graph, not two).
  [[nodiscard]] Ticket SubmitInternal(CompileRequest request,
                                      std::optional<RequestKey> key);

  /// Lane and tenant accounting for a queued request a worker starts.
  void StartQueued(const CompileRequest& request, double wait_seconds);

  /// Fails a queued request whose deadline lapsed (counted per lane and
  /// tenant) with DeadlineExceeded carrying `what`.
  void ExpireQueued(const CompileRequest& request,
                    std::promise<CompileResponse>& promise,
                    const std::string& what);

  /// One member of a grouped cold-miss solve: index into the caller's
  /// request span, the precomputed key, and the promise behind the
  /// member's ticket.
  struct GroupMember {
    std::size_t index = 0;
    RequestKey key;
    std::promise<CompileResponse> promise;
    std::chrono::steady_clock::time_point enqueue_time{};
  };

  /// True when the engine behind `engine_name` overrides ScheduleBatch
  /// with a real lock-stepped path (SchedulerEngine::SupportsBatch).
  [[nodiscard]] bool EngineSupportsBatch(std::string_view engine_name) const;

  /// Body of one grouped task (runs on a worker): per member, deadline
  /// and lane accounting, then the single path's steps — claim, warm
  /// tiers, one SolveCold over every cold owner, publish, join.  Never a
  /// nested pool submission, so a full queue cannot deadlock the group.
  /// Resolves every member's promise on all paths.
  void RunBatchGroup(std::span<const CompileRequest> requests,
                     std::vector<GroupMember>& members);

  /// Inserts (or refreshes) an entry.  `expires_at` caps the entry's
  /// lifetime below the default TTL — set on disk-hit promotion so a
  /// promoted entry dies at the spill's absolute expiry instead of getting
  /// a freshly re-armed TTL.
  void InsertLocked(
      Shard& shard, const RequestKey& key, ResultPtr result,
      std::optional<std::chrono::steady_clock::time_point> expires_at =
          std::nullopt);

  /// Lazily drops `it` when its TTL lapsed; true means the entry is gone
  /// and the lookup must proceed as a miss.  Call under the shard mutex.
  [[nodiscard]] bool DropIfExpiredLocked(Shard& shard,
                                         std::list<CacheEntry>::iterator it);

  /// Memory-promotion cap for an entry carrying an absolute wall-clock
  /// expiry (disk hit, peer-fetched envelope): promote at the *remaining*
  /// lifetime — re-arming a full TTL would let the entry outlive its age
  /// bound by up to 2x.  Nullopt when the entry never expires.
  [[nodiscard]] static std::optional<std::chrono::steady_clock::time_point>
  PromoteExpiry(std::int64_t expires_at_unix_ms);

  /// Promotes a result found outside memory (subject to admission, at its
  /// remaining lifetime) and resolves `flight` with it when non-null.
  void Promote(const RequestKey& key, const ResultPtr& result,
               std::int64_t expires_at_unix_ms, Flight* flight);

  /// Persistent-tier probe — the one synchronous disk read on the request
  /// path.  A hit is counted and promoted (see Promote); null on a miss or
  /// without a store.
  [[nodiscard]] ResultPtr ProbeDisk(const RequestKey& key, Flight* flight);

  /// Snapshot of the installed peer-fetch hook (null when none).
  [[nodiscard]] std::shared_ptr<const PeerFetchFn> PeerFetchSnapshot() const;

  /// Peer warm attempt: fetch → verify → import → promote.  The verified
  /// result, or null (no hook, peer miss, or bad bytes).
  [[nodiscard]] ResultPtr TryPeerWarm(const RequestKey& key, Flight* flight);

  /// Enqueues a background spill of `result` on the pool (no-op without a
  /// store).  Never blocks on I/O; FlushStore waits for all of these.
  void EnqueueWriteback(const RequestKey& key, ResultPtr result);

  [[nodiscard]] static std::size_t LaneIndex(Priority priority);

  PipelineCompiler compiler_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// TTL for memory entries; zero duration = no expiry.
  std::chrono::steady_clock::duration memory_ttl_{};
  bool has_ttl_ = false;

  /// Frequency sketch consulted on insert/promote; null = always admit.
  std::unique_ptr<store::TinyLfuAdmission> admission_;

  /// Persistent tier; null when no cache_dir is configured.  Declared
  /// before pool_ so queued writeback tasks (which reference it) are
  /// drained by the pool's destructor first.
  std::unique_ptr<store::CacheStore> store_;

  std::unique_ptr<core::ThreadPool> pool_;

  /// Constant-per-service fingerprint of CompilerOptions, folded into every
  /// key so results are only shared between identically configured services.
  graph::CanonicalHash options_fingerprint_;

  /// Unified metrics registry (obs::Registry).  Declared before every
  /// counter reference below — members bind into it at construction.  The
  /// references have the std::atomic fetch_add/load surface, so increment
  /// sites are byte-for-byte the pre-registry code.
  obs::Registry registry_;

  obs::Counter& hits_ =
      registry_.GetCounter("respect_serve_hits_total",
                           "Requests answered from a resident memory entry");
  obs::Counter& misses_ =
      registry_.GetCounter("respect_serve_misses_total",
                           "Cold solves started (cacheable or not)");
  obs::Counter& evictions_ = registry_.GetCounter(
      "respect_serve_evictions_total", "LRU capacity evictions");
  obs::Counter& invalidations_ = registry_.GetCounter(
      "respect_serve_invalidations_total", "Entries dropped by ReplaceRl");
  obs::Counter& single_flight_waits_ = registry_.GetCounter(
      "respect_serve_single_flight_waits_total",
      "Requests collapsed onto another caller's in-flight solve");
  obs::Counter& failures_ = registry_.GetCounter(
      "respect_serve_failures_total", "Solves that threw");
  obs::Counter& bypasses_ = registry_.GetCounter(
      "respect_serve_bypasses_total", "CachePolicy::kBypass solves");
  obs::Counter& refreshes_ = registry_.GetCounter(
      "respect_serve_refreshes_total", "CachePolicy::kRefresh solves");
  obs::Counter& deadline_expired_ = registry_.GetCounter(
      "respect_serve_deadline_expired_total",
      "DeadlineExceeded failures, all paths");
  obs::Counter& disk_hits_ = registry_.GetCounter(
      "respect_serve_disk_hits_total",
      "Memory misses answered by the persistent store");
  obs::Counter& ttl_expired_ = registry_.GetCounter(
      "respect_serve_ttl_expired_total", "Memory entries lazily expired");
  obs::Counter& admission_rejected_ = registry_.GetCounter(
      "respect_serve_admission_rejected_total",
      "Inserts refused by TinyLFU admission");
  obs::Counter& batch_solved_ = registry_.GetCounter(
      "respect_serve_batch_solved_total",
      "Cold solves done by lock-stepped groups");
  obs::Counter& batch_single_ = registry_.GetCounter(
      "respect_serve_batch_single_total",
      "Grouped-path solves that fell back to the per-graph decode");
  obs::Counter& batch_groups_ = registry_.GetCounter(
      "respect_serve_batch_groups_total",
      "Lock-stepped group decodes executed");
  obs::Counter& budget_blown_ = registry_.GetCounter(
      "respect_serve_budget_blown_total",
      "Engine attempts cancelled on solve budget");
  obs::Counter& degraded_served_ = registry_.GetCounter(
      "respect_serve_degraded_served_total",
      "Responses produced by a fallback engine");
  obs::Counter& fallback_exhausted_ = registry_.GetCounter(
      "respect_serve_fallback_exhausted_total",
      "Requests whose whole engine chain failed");
  obs::Counter& writeback_errors_ = registry_.GetCounter(
      "respect_serve_writeback_errors_total",
      "Background spill writes that failed");
  obs::Counter& peer_fetches_ = registry_.GetCounter(
      "respect_serve_peer_fetches_total",
      "Peer warm attempts on cold misses");
  obs::Counter& peer_hits_ = registry_.GetCounter(
      "respect_serve_peer_hits_total",
      "Requests answered by peer spill envelopes");
  obs::Counter& peer_fetch_failures_ = registry_.GetCounter(
      "respect_serve_peer_fetch_failures_total",
      "Peer fetches that threw or returned corrupt/mismatched bytes");

  /// Cold-solve latency distribution (seconds) with Prometheus buckets;
  /// also the source of ServiceMetrics::solve_p50/p99_seconds.
  obs::Histogram& solve_hist_ = registry_.GetHistogram(
      "respect_serve_solve_seconds", "Cold engine solve latency (seconds)");

  /// Peer warm hook (SetPeerFetch); swapped atomically under its mutex,
  /// read as a shared_ptr snapshot so an uninstall never races a call.
  mutable std::mutex peer_fetch_mutex_;
  std::shared_ptr<const PeerFetchFn> peer_fetch_;

  /// Fallback chain resolved to canonical registry names at construction.
  std::vector<std::string_view> fallback_chain_;
  double default_solve_budget_seconds_ = 0.0;

  /// Deadline-aware admission (ServiceOptions::deadline_admission) and the
  /// smoothed cold-solve cost its wait estimate uses.  The EWMA update is
  /// load-compute-store (not CAS): a lost race skews the estimate by one
  /// sample, which admission can tolerate.
  bool deadline_admission_ = false;
  std::atomic<double> ewma_solve_seconds_{0.0};

  /// One breaker per canonical engine name, created closed on first use.
  /// string_view keys borrow from the registry (process lifetime).
  CircuitBreaker::Options breaker_options_;
  mutable std::mutex breaker_mutex_;
  std::map<std::string_view, std::unique_ptr<CircuitBreaker>> breakers_;

  /// Spill writes queued on the pool but not yet landed (FlushStore waits
  /// on this reaching zero).
  std::mutex writeback_mutex_;
  std::condition_variable writeback_cv_;
  std::size_t pending_writebacks_ = 0;

  struct LaneCounters {
    obs::Counter& enqueued;
    obs::Counter& started;
    obs::Counter& expired;
    obs::Counter& shed;
    obs::Histogram& wait;  // queue wait of started requests (seconds)
  };
  /// Binds one lane's counters and wait histogram into the registry under
  /// respect_serve_lane_<lane>_* names.
  [[nodiscard]] LaneCounters MakeLaneCounters(std::size_t lane);
  static_assert(kNumPriorityLanes == 3, "extend lane_counters_ init");
  std::array<LaneCounters, kNumPriorityLanes> lane_counters_ = {
      MakeLaneCounters(0), MakeLaneCounters(1), MakeLaneCounters(2)};

  /// Per-tenant async-path counters, keyed by tenant id.  A small map under
  /// its own mutex (not atomics): tenant cardinality is low and the updates
  /// are off the solve's critical path.
  void BumpTenant(const std::string& tenant,
                  std::uint64_t TenantMetrics::*field);
  mutable std::mutex tenant_mutex_;
  std::map<std::string, TenantMetrics> tenant_counters_;
};

}  // namespace respect::serve
