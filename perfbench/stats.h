// Statistics the benchmark reports with: nearest-rank percentiles with the
// "at least ten samples beyond" tail rule, geometric means, Zipf draws that
// depend only on the seed, and span self-time aggregation over drained
// obs::TraceEvents.  Header-only so stats_test.cc can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least q*n samples at or below it.  0.0 when empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

/// A tail percentile together with the rank it was taken at.
struct Tail {
  double q = 0.0;          // percentile actually reported (e.g. 0.99)
  double value = 0.0;
  std::size_t beyond = 0;  // samples strictly above the reported rank
  std::size_t count = 0;   // sample size
};

/// `q` when at least `min_beyond` samples lie beyond its nearest rank;
/// otherwise the highest percentile that still leaves `min_beyond` samples
/// beyond it.  Samples too small for such a rank above the median report
/// the median.
inline Tail TailPercentile(const std::vector<double>& sorted, double q,
                           std::size_t min_beyond = 10) {
  Tail tail;
  tail.count = sorted.size();
  if (sorted.empty()) return tail;
  const std::size_t n = sorted.size();
  const auto rank_of = [n](double p) {
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  };
  std::size_t rank = rank_of(q);
  tail.q = q;
  if (n - rank < min_beyond) {
    rank = n > min_beyond ? std::max(n - min_beyond, rank_of(0.5))
                          : rank_of(0.5);
    tail.q = static_cast<double>(rank) / static_cast<double>(n);
  }
  tail.value = sorted[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

/// Over an unsorted sample: the nearest-rank median for q = 0.5, otherwise
/// TailPercentile's value.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return q == 0.5 ? NearestRank(values, q) : TailPercentile(values, q).value;
}

/// Geometric mean of positive values; throws on an empty or non-positive
/// input, since a zero would silently collapse the mean.
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("GeoMean: empty sample");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("GeoMean: non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Uniform double in [0, 1) from the top 53 bits of one engine draw — the
/// same sequence on every standard library, unlike
/// std::uniform_real_distribution.
inline double Uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Zipf(s) over ranks [0, n): rank r is drawn with probability proportional
/// to 1 / (r + 1)^s.  Draws depend only on the engine's state.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("Zipf: empty support");
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t Draw(std::mt19937_64& rng) const {
    const double u = Uniform01(rng);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Per-span-name self time, fed with drained trace events in drain order.
///
/// Events of one thread arrive in close order, so every child (depth d+1)
/// of a span at depth d closes between that span's previous sibling and the
/// span itself: the span's self time is its duration minus the children
/// accumulated since.  Spans recorded explicitly across threads (the
/// queue-wait interval, stamped by the popping worker) are not nested in the
/// popping thread's stack and neither subtract from nor count as a child of
/// anything.  State carries across Add calls, so a parent drained after its
/// children still gets their durations subtracted.
class SpanAggregator {
 public:
  explicit SpanAggregator(std::set<std::string> cross_thread = {
                              "serve.queue_wait"})
      : cross_thread_(std::move(cross_thread)) {}

  struct Stats {
    std::vector<double> self_us;    // one entry per closed span
    double self_total_us = 0.0;
    std::set<std::uint32_t> tids;   // threads that emitted the span
  };

  void Add(const std::vector<respect::obs::TraceEvent>& events) {
    for (const respect::obs::TraceEvent& e : events) {
      if (e.dur_us < 0 || e.name == nullptr) continue;  // instant marker
      const std::string name(e.name);
      Stats& stats = spans_[name];
      stats.tids.insert(e.tid);
      if (cross_thread_.count(name) != 0) {
        stats.self_us.push_back(static_cast<double>(e.dur_us));
        stats.self_total_us += static_cast<double>(e.dur_us);
        continue;
      }
      std::vector<double>& child = children_[e.tid];
      if (child.size() < e.depth + 2) child.resize(e.depth + 2, 0.0);
      const double dur = static_cast<double>(e.dur_us);
      const double self = std::max(0.0, dur - child[e.depth + 1]);
      child[e.depth + 1] = 0.0;
      child[e.depth] += dur;
      stats.self_us.push_back(self);
      stats.self_total_us += self;
    }
  }

  [[nodiscard]] const Stats* Find(const std::string& name) const {
    const auto it = spans_.find(name);
    return it == spans_.end() ? nullptr : &it->second;
  }

 private:
  std::set<std::string> cross_thread_;
  std::map<std::string, Stats> spans_;
  std::map<std::uint32_t, std::vector<double>> children_;  // by tid, depth
};

}  // namespace perfbench
