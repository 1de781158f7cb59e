// CompileService — the serving front end over PipelineCompiler.
//
// The API is built around two first-class types (serve/request.h):
// CompileRequest — dag, num_stages, engine (registry name or alias),
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
// num_stages, the compiler options fingerprint, the device profile's
// fingerprint, and (for RL-dependent engines only) the RL weight snapshot
// version.  Repeat requests are answered from a sharded LRU cache of shared
// immutable CompileResults, and concurrent identical requests are
// collapsed by single-flight deduplication: one caller solves, everyone
// else waits on that solve.
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
// service's one spill-writer thread (FIFO, beside the num_threads serving
// workers, so a spill never holds a worker or delays a waiting request's
// solve; a spill made unreachable by ReplaceRl before it ran is dropped),
// so a restart against the same directory warm-starts without re-running
// a single engine solve.  TinyLFU admission (always on with a non-zero
// capacity) keeps one-hit-wonder scans from flushing hot memory entries.  A schedule is deterministic in its key, so a cached
// entry has no age limit: it stays until LRU/TinyLFU evicts it, ReplaceRl
// invalidates it, or CompactStore reclaims its spill.
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
#include "serve/store/disk_store.h"
#include "tpu/device_profile.h"

namespace respect::core {
class ThreadPool;
}  // namespace respect::core

namespace respect::serve::store {
class TinyLfuAdmission;
}  // namespace respect::serve::store

namespace respect::serve {

/// The tenant label value that counts every tenant not named in
/// ServiceOptions::tenant_weights.
inline constexpr std::string_view kOverflowTenant = "__other__";

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

  /// Max batch solves running concurrently (<= 0 = unlimited); spill
  /// writebacks run on their own writer thread and do not count.  With a
  /// cap of N, an interactive request never waits behind more than N batch
  /// solves even when a batch flood fills the queue — the remaining workers
  /// stay available to the other lanes.
  int max_batch_inflight = 0;

  /// Directory for the persistent spill tier (store::DiskStore); empty
  /// disables it.  On construction the directory is scanned, and a request
  /// already solved by a previous process is answered from disk
  /// (CacheOutcome::kDiskHit) instead of re-solving.  A service with a
  /// cache_dir runs one spill-writer thread besides its num_threads
  /// workers.
  std::string cache_dir;

  /// Per-tenant fair-queueing weights ("" is the shared default tenant; see
  /// serve::RequestQueue): inside each priority lane, backlogged tenants
  /// receive service proportional to their weight, so one tenant's flood
  /// deepens its own sub-queue instead of starving the others.  Tenants
  /// absent from the map weigh 1.  Only "" and the named tenants get their
  /// own respect_serve_tenant_* series; every other id (remote input on a
  /// fleet shard) counts under kOverflowTenant, which no key may equal
  /// (std::invalid_argument), so the metrics page stays bounded.
  std::map<std::string, double> tenant_weights;

  /// Ordered engines tried after the preferred engine blows its solve
  /// budget, throws, or sits behind an open circuit breaker.  Canonical
  /// names or aliases, resolved to canonical names at construction (unknown
  /// names throw std::invalid_argument there, not under traffic).  Empty = no
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
  int max_lane_depth = 0;
};

/// What the registry cannot hold, plus the fields perfbench/ reads; every
/// other service counter (hits, misses, lanes, tenants, the solve
/// histogram...) is read from MetricsRegistry() by series name.
struct ServiceMetrics {
  std::uint64_t evictions = 0;           // respect_serve_evictions_total
  std::uint64_t admission_rejected = 0;  // ..._admission_rejected_total
  std::uint64_t invalidations = 0;       // respect_serve_invalidations_total
  std::uint64_t batch_solved = 0;        // respect_serve_batch_solved_total
  std::uint64_t batch_single = 0;        // respect_serve_batch_single_total
  std::uint64_t batch_groups = 0;        // respect_serve_batch_groups_total
  std::size_t cache_size = 0;            // resident memory entries right now

  /// Persistent-tier snapshot; all zero when no cache_dir is configured.
  store::StoreMetrics store{};
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

  /// The circuit breaker of canonical engine `engine`, or nullopt until
  /// that engine has served (or skipped) its first solve attempt.
  [[nodiscard]] std::optional<CircuitBreaker::Snapshot> BreakerSnapshot(
      std::string_view engine) const;

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
  /// future request recomputes them) and malformed files.  Returns the
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
  /// envelope bytes or "" for a peer miss.  The bytes are verified once —
  /// format version, checksum, embedded key — by the store's import (or
  /// here, without a store) before anything is served; corrupt bytes and
  /// thrown exceptions count as peer_fetch_failures and the request falls
  /// through to a local solve.  A verified fetch is imported into the
  /// local store, promoted into memory, and surfaced as kPeerHit.  Pass
  /// nullptr to uninstall.  The function must stay callable until it is
  /// uninstalled and every in-flight request has settled
  /// (net::FleetServer::Stop does both).
  using PeerFetchFn = std::function<std::string(const graph::CanonicalHash&)>;
  void SetPeerFetch(PeerFetchFn fetch);

  /// Verified raw spill envelope bytes for `key` from the persistent tier,
  /// or nullopt (no store, absent, corrupt) — the serving side of a peer's
  /// fetch-by-hex.
  [[nodiscard]] std::optional<std::string> ExportSpill(
      const graph::CanonicalHash& key);

  // ── Observability ──────────────────────────────────────────────────────

  /// The unified metrics registry: every service counter and histogram,
  /// including the lane- and tenant-labelled series.  Instance-scoped
  /// (tests assert exact per-service values); the disk store and the fleet
  /// server register their metrics here too, so one RenderPrometheus(os)
  /// call emits the whole shard's exposition page.
  [[nodiscard]] obs::Registry& MetricsRegistry() { return registry_; }
  [[nodiscard]] const obs::Registry& MetricsRegistry() const {
    return registry_;
  }

 private:
  struct CacheEntry {
    graph::CanonicalHash key;
    ResultPtr result;
    bool rl_dependent = false;
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

    /// Resolved device profile the solve targets; its fingerprint is
    /// folded into the hash.
    tpu::DeviceProfile profile;
    graph::CanonicalHash profile_fingerprint{};
  };

  /// Resolves the engine and the named device profile and builds the
  /// content-addressed key.  An unknown profile name or num_stages < 1
  /// throws std::invalid_argument (same contract as an unknown engine), so
  /// such a request never reaches a flight or a breaker.
  [[nodiscard]] RequestKey MakeKey(const graph::Dag& dag, int num_stages,
                                   std::string_view engine,
                                   std::string_view profile_name) const;
  [[nodiscard]] Shard& ShardFor(const graph::CanonicalHash& hash);

  /// Cache-only probe: returns the resident entry (counted as a hit, LRU
  /// refreshed) or null without joining flights or solving.
  [[nodiscard]] ResultPtr TryCached(const RequestKey& key);

  /// The resident entry for `key` (a hit: counted, LRU refreshed) or
  /// null.  Call under the shard mutex.
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

  /// Settles a cold solve.  On success: when `cache` (false for kBypass),
  /// inserts under the serving engine's key (the fallback's own key when
  /// degraded, never the preferred one's) and spills; then resolves
  /// `flight` (may be null) and fills the response.  On failure: resolves
  /// `flight` with the failure and rethrows it.
  void Publish(const ColdSolve& solve, const std::shared_ptr<Flight>& flight,
               CompileResponse& response, bool cache = true);

  /// Removes `key`'s flight from its shard, then resolves it with `result`
  /// or, when `result` is null, with `failure`.
  void ResolveFlight(const RequestKey& key, Flight& flight, ResultPtr result,
                     std::exception_ptr failure = nullptr);

  /// The breaker guarding `engine` (created closed on first use).
  [[nodiscard]] CircuitBreaker& BreakerFor(std::string_view engine);

  /// Submit with an optionally precomputed key (the batch path's cache
  /// probe already hashed the DAG; this reuses that key).
  [[nodiscard]] Ticket SubmitInternal(CompileRequest request,
                                      std::optional<RequestKey> key);

  /// One lane's lane-labelled async-path series.
  struct LaneCounters {
    obs::Counter& enqueued;
    obs::Counter& started;
    obs::Counter& expired;
    obs::Counter& shed;
    obs::Histogram& wait;  // queue wait of started requests (seconds)
  };

  /// One tenant's tenant-labelled async-path series.
  struct TenantCounters {
    obs::Counter* enqueued = nullptr;
    obs::Counter* started = nullptr;
    obs::Counter* expired = nullptr;
  };

  /// The series a queued request is counted under — its lane's and its
  /// tenant's — resolved once at enqueue and carried with the request.
  struct QueueCounters {
    LaneCounters* lane = nullptr;
    TenantCounters tenant;
  };

  /// Registers `tenant`'s series; construction-time only.
  [[nodiscard]] TenantCounters BindTenant(std::string_view tenant);

  /// Resolves `request`'s series and counts it enqueued.
  [[nodiscard]] QueueCounters CountEnqueued(const CompileRequest& request);

  /// Lane and tenant accounting for a queued request a worker starts.
  static void StartQueued(const QueueCounters& counters, double wait_seconds);

  /// Fails a queued request whose deadline lapsed (counted per lane and
  /// tenant) with DeadlineExceeded carrying `what`.
  void ExpireQueued(const QueueCounters& counters,
                    std::promise<CompileResponse>& promise,
                    const std::string& what);

  /// One member of a grouped cold-miss solve: index into the caller's
  /// request span, the precomputed key, the promise behind the member's
  /// ticket, and the member's series.
  struct GroupMember {
    std::size_t index = 0;
    RequestKey key;
    std::promise<CompileResponse> promise;
    std::chrono::steady_clock::time_point enqueue_time{};
    QueueCounters counters;
  };

  /// Body of one grouped task (runs on a worker): per member, deadline
  /// and lane accounting, then the single path's steps — claim, warm
  /// tiers, one SolveCold over every cold owner, publish, join.  Never a
  /// nested pool submission, so a full queue cannot deadlock the group.
  /// Resolves every member's promise on all paths.
  void RunBatchGroup(std::span<const CompileRequest> requests,
                     std::vector<GroupMember>& members);

  /// Inserts (or refreshes) an entry, subject to admission.
  void InsertLocked(Shard& shard, const RequestKey& key, ResultPtr result);

  /// Promotes a result found outside memory (subject to admission) and
  /// resolves `flight` with it when non-null.
  void Promote(const RequestKey& key, const ResultPtr& result,
               Flight* flight);

  /// Persistent-tier probe — the one synchronous disk read on the request
  /// path.  A hit is counted and promoted (see Promote); null on a miss or
  /// without a store.
  [[nodiscard]] ResultPtr ProbeDisk(const RequestKey& key, Flight* flight);

  /// Snapshot of the installed peer-fetch hook (null when none).
  [[nodiscard]] std::shared_ptr<const PeerFetchFn> PeerFetchSnapshot() const;

  /// Peer warm attempt: fetch → verify → import → promote.  The verified
  /// result, or null (no hook, peer miss, or bad bytes).
  [[nodiscard]] ResultPtr TryPeerWarm(const RequestKey& key, Flight* flight);

  /// Enqueues a background spill of `result` on the spill writer (no-op
  /// without a store).  Never blocks on I/O; FlushStore waits for all of
  /// these.
  void EnqueueWriteback(const RequestKey& key, ResultPtr result);

  [[nodiscard]] static std::size_t LaneIndex(Priority priority);

  PipelineCompiler compiler_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Frequency sketch consulted on insert/promote; null = always admit.
  std::unique_ptr<store::TinyLfuAdmission> admission_;

  /// Persistent tier; null when no cache_dir is configured.  Declared
  /// before writer_ so queued writeback tasks (which reference it) are
  /// drained by the writer's destructor first.
  std::unique_ptr<store::DiskStore> store_;

  /// The one spill-writer thread (FIFO), present with store_: writebacks
  /// run here, never on pool_.  One writer publishes spills as fast as two
  /// would on one directory, and the serving workers stay free.
  std::unique_ptr<core::ThreadPool> writer_;

  std::unique_ptr<core::ThreadPool> pool_;

  /// Constant-per-service fingerprint of CompilerOptions, folded into every
  /// key so results are only shared between identically configured services.
  graph::CanonicalHash options_fingerprint_;

  /// Unified metrics registry (obs::Registry).  Declared before every
  /// counter reference below — members bind into it at construction.
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

  /// Cold-solve latency distribution (seconds) with Prometheus buckets.
  obs::Histogram& solve_hist_ = registry_.GetHistogram(
      "respect_serve_solve_seconds", "Cold engine solve latency (seconds)");

  /// Peer warm hook (SetPeerFetch); swapped atomically under its mutex,
  /// read as a shared_ptr snapshot so an uninstall never races a call.
  mutable std::mutex peer_fetch_mutex_;
  std::shared_ptr<const PeerFetchFn> peer_fetch_;

  /// Fallback chain resolved to canonical registry names at construction.
  std::vector<std::string_view> fallback_chain_;
  double default_solve_budget_seconds_ = 0.0;

  /// One breaker per canonical engine name, created closed on first use.
  /// string_view keys borrow from the registry (process lifetime).
  CircuitBreaker::Options breaker_options_;
  mutable std::mutex breaker_mutex_;
  std::map<std::string_view, std::unique_ptr<CircuitBreaker>> breakers_;

  /// Spill writes queued on the writer but not yet landed (FlushStore waits
  /// on this reaching zero).
  std::mutex writeback_mutex_;
  std::condition_variable writeback_cv_;
  std::size_t pending_writebacks_ = 0;

  /// Binds one lane's lane-labelled respect_serve_lane_* series.
  [[nodiscard]] LaneCounters MakeLaneCounters(std::size_t lane);
  static_assert(kNumPriorityLanes == 3, "extend lane_counters_ init");
  std::array<LaneCounters, kNumPriorityLanes> lane_counters_ = {
      MakeLaneCounters(0), MakeLaneCounters(1), MakeLaneCounters(2)};

  /// Tenant series, all bound at construction: "" (no lookup), the
  /// overflow label, and each tenant named in tenant_weights.
  const TenantCounters default_tenant_ = BindTenant("");
  const TenantCounters overflow_tenant_ = BindTenant(kOverflowTenant);
  std::map<std::string, TenantCounters, std::less<>> named_tenants_;
};

}  // namespace respect::serve
