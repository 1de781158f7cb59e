// Unified metrics registry: counters and fixed-bucket latency histograms
// with Prometheus text exposition — the one place a serving counter is
// declared, stored and read.
//
// Design constraints, in order:
//  1. Zero call-site churn.  obs::Counter exposes the
//     `std::atomic<std::uint64_t>` fetch_add/load surface, so a counter is a
//     member reference bound once (`obs::Counter& hits_ =
//     registry_.GetCounter("respect_serve_hits_total", "...");`) and every
//     increment site reads like plain atomic code.
//  2. Instance-scoped, not global.  Tests assert exact counter values per
//     service instance, so each CompileService owns a Registry and its disk
//     store and fleet server register into it: one exposition page per
//     shard.
//  3. Stable addresses.  Series live in node-based maps, so references
//     handed out never move; GetCounter on an existing series returns the
//     same object (idempotent registration).
//  4. Labelled families.  A series may carry one `key="value"` label
//     (lane, tenant): one family, one HELP/TYPE header, one series per
//     label value.  A (name, label) lookup is two ordered-map finds, never a
//     scan of every series.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace respect::obs {

/// Monotonic counter with the std::atomic<uint64_t> surface the serving
/// layers already use.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::uint64_t fetch_add(
      std::uint64_t n,
      std::memory_order order = std::memory_order_relaxed) noexcept {
    return value_.fetch_add(n, order);
  }
  std::uint64_t load(
      std::memory_order order = std::memory_order_relaxed) const noexcept {
    return value_.load(order);
  }
  void store(std::uint64_t v,
             std::memory_order order = std::memory_order_relaxed) noexcept {
    value_.store(v, order);
  }
  std::uint64_t operator++() noexcept { return fetch_add(1) + 1; }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-upper-bound latency histogram (cumulative buckets, Prometheus
/// style) with interpolated quantile extraction.  Observe is lock-free;
/// Quantile/Count/Sum read relaxed snapshots (monitoring-grade accuracy).
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds in ascending order; an implicit
  /// +inf bucket catches the rest.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) noexcept;

  std::uint64_t Count() const noexcept;
  double Sum() const noexcept;

  /// Interpolated quantile (q in [0,1]) from bucket counts; returns 0 when
  /// empty.  Values in the overflow bucket report the largest finite bound.
  double Quantile(double q) const noexcept;

  const std::vector<double>& Bounds() const noexcept { return bounds_; }
  std::uint64_t BucketCount(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Default bounds for request/solve latencies in seconds: 50us .. 30s.
  static std::vector<double> LatencyBoundsSeconds();

 private:
  std::vector<double> bounds_;
  std::deque<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The one optional `key="value"` label of a series; an empty key means
/// the series is unlabelled.  Values may hold any bytes (tenant ids arrive
/// from wire clients); the exposition escapes them.
struct Label {
  std::string_view key;
  std::string_view value;
};

/// Named metric registry.  GetCounter/GetHistogram are idempotent: the
/// first call registers a series, later calls return the same instance
/// (help text and label key from the family's first registration win; a
/// series whose label key disagrees with its family's throws
/// std::invalid_argument).  Find* only reads: an unknown series throws
/// std::out_of_range, so a misspelt name fails instead of reading 0.  All
/// returned references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(std::string_view name, std::string_view help = "",
                      Label label = {});
  /// Empty `bounds` selects Histogram::LatencyBoundsSeconds().
  Histogram& GetHistogram(std::string_view name, std::string_view help = "",
                          std::vector<double> bounds = {}, Label label = {});

  [[nodiscard]] const Counter& FindCounter(std::string_view name,
                                           Label label = {}) const;
  [[nodiscard]] const Histogram& FindHistogram(std::string_view name,
                                               Label label = {}) const;

  /// Renders Prometheus text exposition format: one HELP/TYPE header per
  /// family, then its series (label values escaped); histograms emit
  /// cumulative `_bucket{...,le=...}` plus `_sum`/`_count`.  Doubles render
  /// at round-trip precision.
  void RenderPrometheus(std::ostream& os) const;

 private:
  template <typename T>
  struct Family {
    std::string help;
    std::string label_key;
    std::map<std::string, T, std::less<>> series;  // by label value
  };
  template <typename T>
  using Families = std::map<std::string, Family<T>, std::less<>>;

  template <typename T, typename... Args>
  static T& GetSeries(Families<T>& families, std::string_view name,
                      std::string_view help, Label label, Args&&... args);
  template <typename T>
  static const T& FindSeries(const Families<T>& families,
                             std::string_view name, Label label);

  mutable std::mutex mu_;
  Families<Counter> counters_;
  Families<Histogram> histograms_;
};

}  // namespace respect::obs
