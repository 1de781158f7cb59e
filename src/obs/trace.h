// Tracing: per-request spans on lock-free per-thread rings, zero-cost when
// disarmed.
//
// Production code wraps its interesting intervals in OBS_SPAN("site") — an
// RAII ScopedSpan stamped from the monotonic clock — and tags whole request
// flows with a trace id (ScopedTraceId) minted at admission.  Tests and the
// CLI arm the tracer at runtime:
//
//   obs::Tracer::Global().Start();
//   ... traffic ...
//   std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
//   obs::WriteChromeTrace(os, events, getpid());   // obs/chrometrace.h
//
// Cost model (the core::failpoint discipline): when the tracer is stopped,
// OBS_SPAN is one relaxed atomic load in the constructor and one branch in
// the destructor.
//
// Threading: each thread owns one single-producer ring; the emitting thread
// is the only writer, and Drain() is the only consumer (release/acquire on
// the ring cursors — safe under TSan by construction).  A full ring drops
// the newest event and counts it (Dropped()) instead of blocking or tearing;
// tracing never backpressures the serving path.
//
// Span semantics: spans close in LIFO order per thread (RAII), so every
// drained event already carries its nesting depth and a well-formed tree is
// structural — an unclosed span is a span that never drained, visible as a
// non-zero ThreadSpanDepth().  Events record wall intervals on the steady
// clock in microseconds since the process-shared CLOCK_MONOTONIC epoch, so
// fleet shards on one host merge onto a single timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace respect::obs {

/// One closed span (dur_us >= 0) or instant marker (dur_us < 0), POD.
/// `name` (and optional `detail`, e.g. an engine name) point at process-
/// lifetime storage: string literals, or registry-canonical names.
struct TraceEvent {
  const char* name = nullptr;
  const char* detail = nullptr;     // may be null
  std::uint32_t detail_len = 0;
  std::uint32_t tid = 0;            // small per-process thread index
  std::uint64_t trace_id = 0;       // 0 = not part of a request flow
  std::int64_t start_us = 0;        // steady-clock micros (see file comment)
  std::int64_t dur_us = 0;          // < 0 marks an instant event
  std::uint32_t depth = 0;          // span-stack depth at open (root = 0)
};

namespace internal {
// The macro's fast-path gate; nonzero while the tracer runs.
extern std::atomic<int> g_armed;
}  // namespace internal

/// True while tracing is armed (fast path for OBS_SPAN).
inline bool Armed() noexcept {
  return internal::g_armed.load(std::memory_order_relaxed) != 0;
}

class Tracer {
 public:
  /// Events each thread's ring holds before dropping the newest.
  static constexpr std::size_t kRingCapacity = 1 << 13;

  [[nodiscard]] static Tracer& Global();

  /// Arms span recording (idempotent).  Events emitted while stopped are
  /// not recorded.
  void Start();

  /// Disarms recording; already-recorded events stay drainable.
  void Stop();

  /// Moves every recorded event out of every thread's ring, oldest-first
  /// per thread.  Safe concurrently with emitting threads (each ring is
  /// SPSC: its owner writes, Drain reads) but not with another Drain.
  [[nodiscard]] std::vector<TraceEvent> Drain();

  /// Events dropped on full rings since construction.
  [[nodiscard]] std::uint64_t Dropped() const;

  /// Fresh nonzero request trace id (process-local mint; fleet-unique
  /// enough because one admission point mints per flow).
  [[nodiscard]] std::uint64_t MintTraceId();

  /// The calling thread's open-span count — 0 once every RAII span closed
  /// (the well-formed-tree assertion hook for tests).
  [[nodiscard]] static std::uint32_t ThreadSpanDepth();

  // Internal: called by ScopedSpan / RecordSpan.
  void Record(const TraceEvent& event);

 private:
  Tracer() = default;
};

/// The calling thread's current request trace id (0 outside any flow).
[[nodiscard]] std::uint64_t CurrentTraceId();

/// RAII trace-id context: spans opened inside carry `id`; the previous id
/// is restored on destruction (nesting-safe).
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::uint64_t id);
  ~ScopedTraceId();
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  std::uint64_t previous_;
};

/// RAII span.  Use through OBS_SPAN / OBS_SPAN_DETAIL, which name the
/// scoped object.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept
      : ScopedSpan(name, nullptr, 0) {}
  ScopedSpan(const char* name, const char* detail,
             std::uint32_t detail_len) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;    // null when the tracer was disarmed at open
  const char* detail_;
  std::uint32_t detail_len_;
  std::uint32_t depth_;
  std::int64_t start_us_;
};

/// Records an explicitly-timed span (for intervals that cross threads, e.g.
/// enqueue -> pop: the popping thread records the whole wait).  Timestamps
/// are steady-clock micros (obs::NowMicros); `trace_id` tags the flow.
/// No-op while disarmed.
void RecordSpan(const char* name, std::int64_t start_us, std::int64_t end_us,
                std::uint64_t trace_id, const char* detail = nullptr,
                std::uint32_t detail_len = 0);

/// Records an instant marker at now, on the current thread and trace id
/// (e.g. a breaker short-circuit).  No-op while disarmed.
void RecordInstant(const char* name, const char* detail = nullptr,
                   std::uint32_t detail_len = 0);

/// Steady-clock microseconds (the event timebase).
[[nodiscard]] std::int64_t NowMicros();

}  // namespace respect::obs

#define RESPECT_OBS_CONCAT_INNER(a, b) a##b
#define RESPECT_OBS_CONCAT(a, b) RESPECT_OBS_CONCAT_INNER(a, b)
/// Opens a span named `site` (a string literal) for the enclosing scope.
#define OBS_SPAN(site) \
  ::respect::obs::ScopedSpan RESPECT_OBS_CONCAT(obs_span_, __LINE__) { (site) }
/// Same, with a process-lifetime detail string (e.g. an engine name).
#define OBS_SPAN_DETAIL(site, detail_ptr, detail_len)                     \
  ::respect::obs::ScopedSpan RESPECT_OBS_CONCAT(obs_span_, __LINE__) {    \
    (site), (detail_ptr), static_cast<std::uint32_t>(detail_len)          \
  }
