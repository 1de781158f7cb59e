// First-class serving request/response types for CompileService.
//
// A CompileRequest carries everything one compile needs — the graph, the
// stage count, the engine (any spelling, via engines::EngineRef) — plus the
// per-request serving attributes the old overload matrix could not express:
// a Priority lane, an optional absolute deadline, and a cache policy.  A
// CompileResponse pairs the shared result with its provenance: how the
// cache answered, how long the request queued and solved, the canonical
// engine name, and the content-addressed key.
//
//   serve::CompileRequest request{.dag = dag, .num_stages = 4,
//                                 .engine = "respect",
//                                 .priority = serve::Priority::kInteractive,
//                                 .deadline = serve::DeadlineIn(0.050)};
//   serve::CompileResponse response = service.Compile(request);
//
// A request whose deadline passes before a worker picks it up fails with
// DeadlineExceeded instead of occupying a worker (see RequestQueue).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine_ref.h"
#include "graph/dag.h"

namespace respect {
struct CompileResult;
}  // namespace respect

namespace respect::serve {

/// Cached results are shared and immutable; holders may outlive the cache
/// entry (eviction and invalidation only drop the cache's reference).
using ResultPtr = std::shared_ptr<const CompileResult>;

using EngineRef = engines::EngineRef;

/// Scheduling lane of a request.  Values are the queue's lane indices:
/// smaller = more urgent (see serve::RequestQueue for the exact ordering
/// and anti-starvation aging rule).
enum class Priority : int {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr std::size_t kNumPriorityLanes = 3;

[[nodiscard]] constexpr std::string_view PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

/// Inverse of PriorityName; nullopt for unknown spellings.
[[nodiscard]] inline std::optional<Priority> ParsePriority(
    std::string_view name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "normal") return Priority::kNormal;
  if (name == "batch") return Priority::kBatch;
  return std::nullopt;
}

/// Per-request cache behavior.
enum class CachePolicy {
  /// Normal serving path: answer from cache, join an in-flight identical
  /// solve, or solve cold and populate the cache.
  kUse,
  /// Force a fresh solve and leave the cache untouched (no probe, no
  /// insert, no single-flight join) — for A/B-ing engines or measuring
  /// solve cost under live traffic.
  kBypass,
  /// Force a fresh solve and overwrite the cached entry — warms or repairs
  /// an entry in place.  Concurrent identical refreshes each solve.
  kRefresh,
};

/// How the cache answered a request (CompileResponse provenance).
enum class CacheOutcome {
  kHit,        // answered from a resident entry, no solve
  kMiss,       // this request ran the cold solve and populated the cache
  kCollapsed,  // waited on another request's identical in-flight solve
  kBypass,     // CachePolicy::kBypass solve, cache untouched
  kRefresh,    // CachePolicy::kRefresh solve, entry overwritten
  kDiskHit,    // answered from the persistent store, no solve (promoted
               // into memory subject to the admission policy)
  kPeerHit,    // answered by a peer-fetched spill envelope (fleet mode) —
               // verified, imported into the local store, and promoted
               // into memory; no local engine solve
};

[[nodiscard]] constexpr std::string_view CacheOutcomeName(
    CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kCollapsed: return "collapsed";
    case CacheOutcome::kBypass: return "bypass";
    case CacheOutcome::kRefresh: return "refresh";
    case CacheOutcome::kDiskHit: return "disk-hit";
    case CacheOutcome::kPeerHit: return "peer-hit";
  }
  return "unknown";
}

/// Nearest-rank percentile over an already-sorted ascending sample; 0.0
/// when empty.  The one rank rule for percentiles over raw samples (the CLI
/// and bench reports) — use this, not a local reimplementation.
/// ServiceMetrics reads its percentiles off registry histograms instead.
[[nodiscard]] inline double PercentileSorted(
    const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(sorted.size() - 1,
                         static_cast<std::size_t>(q * sorted.size()))];
}

/// Same over an unsorted sample (sorts a copy).
[[nodiscard]] inline double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

/// Absolute deadline `seconds` from now — the convenience most call sites
/// want when filling CompileRequest::deadline.
[[nodiscard]] inline std::chrono::steady_clock::time_point DeadlineIn(
    double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Thrown (synchronously, or through Ticket::Wait) when a request's
/// deadline passes before its solve starts.  The request never runs an
/// engine solve; retry with a fresh deadline if the result still matters.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown (synchronously from Submit-side admission, or through
/// Ticket::Wait) when the service sheds the request instead of queueing it:
/// the request's lane is at its configured depth bound, or deadline-aware
/// admission estimates the queue wait alone already exceeds the deadline.
/// The request never occupies a worker; back off and retry, or retry
/// against a less loaded lane.
class Overloaded : public std::runtime_error {
 public:
  explicit Overloaded(const std::string& what) : std::runtime_error(what) {}
};

struct CompileRequest {
  graph::Dag dag;
  int num_stages = 0;

  /// Canonical name, CLI alias, or Method value; an unset ref fails with
  /// std::invalid_argument.
  EngineRef engine;

  Priority priority = Priority::kNormal;

  /// Absolute expiry (steady clock); unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  CachePolicy cache_policy = CachePolicy::kUse;

  /// Named device profile to schedule for (tpu::FindProfile).  Empty means
  /// the default profile (the paper's uniform Corals), which folds nothing
  /// into the cache key — old cache entries and spill files stay valid.
  /// Any non-default profile's fingerprint becomes part of the key, so the
  /// same DAG compiled for two fleets yields two cache entries.  Unknown
  /// names fail with std::invalid_argument.
  std::string profile;

  /// Tenant id for weighted-fair queueing and per-tenant quotas ("" = the
  /// shared default tenant).  The tenant never enters the cache key —
  /// identical work is shared across tenants; fairness applies to queueing,
  /// not to cached answers.
  std::string tenant;

  /// Per-engine-attempt solve budget in seconds; 0 inherits
  /// ServiceOptions::default_solve_budget_seconds (0 there too = no budget).
  /// When the preferred engine blows the budget its solve is cancelled
  /// (core::CancelToken) and the service walks the configured fallback
  /// chain; each fallback attempt gets a fresh budget.  With no fallback
  /// configured (or every engine blown), the request fails with
  /// DeadlineExceeded.
  double solve_budget_seconds = 0.0;

  /// Observability trace id tagging every span this request produces
  /// (obs::Tracer).  0 = unassigned: the service mints one at admission
  /// while tracing is armed.  Carried across the fleet wire so a forwarded
  /// request yields one coherent cross-shard trace; never part of the cache
  /// key.
  std::uint64_t trace_id = 0;
};

struct CompileResponse {
  ResultPtr result;

  CacheOutcome outcome = CacheOutcome::kMiss;

  /// Submit-to-start wait; 0.0 for synchronous Compile calls.
  double queue_wait_seconds = 0.0;

  /// This request's own cold solve (0.0 for hits and collapsed waits).
  double solve_seconds = 0.0;

  /// Canonical engine name that actually produced the result; borrowed
  /// from the registry, valid for the process lifetime.  Differs from the
  /// requested engine exactly when `degraded` is set.
  std::string_view engine_name;

  /// Hex of the content-addressed request key (graph::CanonicalHash).
  std::string key_hex;

  /// True when the preferred engine blew its solve budget / failed / had an
  /// open circuit breaker and a fallback engine produced this (still fully
  /// valid and repaired) schedule.  Degraded results are cached under the
  /// fallback engine's own key, never under the preferred engine's.
  bool degraded = false;

  /// Canonical name of the engine the request asked for.  Equal to
  /// engine_name unless `degraded` is set.
  std::string_view requested_engine;
};

}  // namespace respect::serve
