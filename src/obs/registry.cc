#include "obs/registry.h"

#include <algorithm>
#include <cmath>

namespace respect::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_.resize(bounds_.size() + 1);  // + overflow
}

void Histogram::Observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS loop: monitoring-grade sum, no fences on the hot path.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::Count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const noexcept {
  q = std::min(1.0, std::max(0.0, q));
  std::uint64_t total = 0;
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      if (i >= bounds_.size()) {
        // Overflow bucket: the largest finite bound is the best statement
        // we can make.
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double upper = bounds_[i];
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const std::uint64_t below = cumulative - counts[i];
      const double fraction =
          counts[i] == 0
              ? 1.0
              : (rank - static_cast<double>(below)) /
                    static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> Histogram::LatencyBoundsSeconds() {
  return {50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3,
          25e-3, 50e-3,  100e-3, 250e-3, 0.5,  1.0,    2.5,  5.0,
          10.0,  30.0};
}

Counter& Registry::GetCounter(std::string name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) {
    if (entry.name == name) return entry.metric;
  }
  counters_.emplace_back(std::move(name), std::move(help));
  return counters_.back().metric;
}

Histogram& Registry::GetHistogram(std::string name, std::string help,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : histograms_) {
    if (entry.name == name) return entry.metric;
  }
  if (bounds.empty()) bounds = Histogram::LatencyBoundsSeconds();
  histograms_.emplace_back(std::move(name), std::move(help),
                           std::move(bounds));
  return histograms_.back().metric;
}

namespace {

void WriteHeader(std::ostream& os, const std::string& name,
                 const std::string& help, const char* type) {
  if (!help.empty()) os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

void Registry::RenderPrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : counters_) {
    WriteHeader(os, entry.name, entry.help, "counter");
    os << entry.name << ' ' << entry.metric.load() << '\n';
  }
  for (const auto& entry : histograms_) {
    WriteHeader(os, entry.name, entry.help, "histogram");
    const auto& bounds = entry.metric.Bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += entry.metric.BucketCount(i);
      os << entry.name << "_bucket{le=\"" << bounds[i] << "\"} " << cumulative
         << '\n';
    }
    cumulative += entry.metric.BucketCount(bounds.size());
    os << entry.name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    os << entry.name << "_sum " << entry.metric.Sum() << '\n';
    os << entry.name << "_count " << entry.metric.Count() << '\n';
  }
}

}  // namespace respect::obs
