// Unified metrics registry: counters and fixed-bucket latency histograms
// with Prometheus text exposition.
//
// Design constraints, in order:
//  1. Zero call-site churn.  The serve/store/net layers already increment
//     `std::atomic<std::uint64_t>` counters with fetch_add/load; obs::Counter
//     exposes that exact API so a member declaration swap
//     (`std::atomic<std::uint64_t> hits_{0};` ->
//      `obs::Counter& hits_ = registry_.GetCounter("respect_serve_hits_total",
//      "...");`) recompiles every existing increment unchanged.
//  2. Instance-scoped, not global.  Tests assert exact counter values per
//     service instance, so each CompileService/DiskStore owns (or borrows)
//     a Registry; fleet shards get one unified exposition page by sharing
//     the service's registry across layers.
//  3. Stable addresses.  Metrics live in std::deque so references handed to
//     members never move; GetCounter on an existing name returns the same
//     object (idempotent registration).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
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

/// Named metric registry.  GetCounter/GetHistogram are idempotent:
/// the first call registers, later calls return the same instance (help text
/// from the first registration wins).  All returned references stay valid
/// for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(std::string name, std::string help = "");
  /// Empty `bounds` selects Histogram::LatencyBoundsSeconds().
  Histogram& GetHistogram(std::string name, std::string help = "",
                          std::vector<double> bounds = {});

  /// Renders Prometheus text exposition format (HELP/TYPE + samples);
  /// histograms emit cumulative `_bucket{le=...}` plus `_sum`/`_count`.
  void RenderPrometheus(std::ostream& os) const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::string help;
    T metric;
    template <typename... Args>
    Entry(std::string n, std::string h, Args&&... args)
        : name(std::move(n)), help(std::move(h)),
          metric(std::forward<Args>(args)...) {}
  };

  mutable std::mutex mu_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace respect::obs
