#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

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

template <typename T, typename... Args>
T& Registry::GetSeries(Families<T>& families, std::string_view name,
                       std::string_view help, Label label, Args&&... args) {
  auto family = families.find(name);
  if (family == families.end()) {
    family = families
                 .emplace(std::string(name),
                          Family<T>{std::string(help),
                                    std::string(label.key),
                                    {}})
                 .first;
  } else if (family->second.label_key != label.key) {
    throw std::invalid_argument("obs::Registry: family " + std::string(name) +
                                " is labelled by \"" +
                                family->second.label_key + "\", not \"" +
                                std::string(label.key) + "\"");
  }
  auto& series = family->second.series;
  auto it = series.find(label.value);
  if (it == series.end()) {
    it = series
             .try_emplace(std::string(label.value),
                          std::forward<Args>(args)...)
             .first;
  }
  return it->second;
}

template <typename T>
const T& Registry::FindSeries(const Families<T>& families,
                              std::string_view name, Label label) {
  if (const auto family = families.find(name);
      family != families.end() && family->second.label_key == label.key) {
    if (const auto it = family->second.series.find(label.value);
        it != family->second.series.end()) {
      return it->second;
    }
  }
  std::string series(name);
  if (!label.key.empty()) {
    series += "{" + std::string(label.key) + "=\"" +
              std::string(label.value) + "\"}";
  }
  throw std::out_of_range("obs::Registry: no series " + series);
}

Counter& Registry::GetCounter(std::string_view name, std::string_view help,
                              Label label) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSeries(counters_, name, help, label);
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view help,
                                  std::vector<double> bounds, Label label) {
  if (bounds.empty()) bounds = Histogram::LatencyBoundsSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  return GetSeries(histograms_, name, help, label, std::move(bounds));
}

const Counter& Registry::FindCounter(std::string_view name,
                                     Label label) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindSeries(counters_, name, label);
}

const Histogram& Registry::FindHistogram(std::string_view name,
                                         Label label) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindSeries(histograms_, name, label);
}

namespace {

void WriteHeader(std::ostream& os, const std::string& name,
                 const std::string& help, const char* type) {
  if (!help.empty()) os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

/// `value` at the fewest significant digits (6 or more) that parse back to
/// exactly `value`: a 6-digit value keeps the stream default's spelling
/// (le="0.0001"), while a large sum or a fine bound gets every digit it
/// needs instead of being quantised (1234567.25, not 1.23457e+06).
void WriteDouble(std::ostream& os, double value) {
  char buf[32];
  for (int digits = 6;; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    if (digits >= 17 || std::strtod(buf, nullptr) == value) break;
  }
  os << buf;
}

/// `key="value"` with the value escaped per the text format (backslash,
/// double quote, newline); empty for an unlabelled series.
std::string LabelPair(std::string_view key, std::string_view value) {
  if (key.empty()) return {};
  std::string pair(key);
  pair += "=\"";
  for (const char c : value) {
    if (c == '\n') {
      pair += "\\n";
      continue;
    }
    if (c == '\\' || c == '"') pair += '\\';
    pair += c;
  }
  pair += '"';
  return pair;
}

}  // namespace

void Registry::RenderPrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : counters_) {
    WriteHeader(os, name, family.help, "counter");
    for (const auto& [value, counter] : family.series) {
      const std::string pair = LabelPair(family.label_key, value);
      os << name << (pair.empty() ? "" : "{" + pair + "}") << ' '
         << counter.load() << '\n';
    }
  }
  for (const auto& [name, family] : histograms_) {
    WriteHeader(os, name, family.help, "histogram");
    for (const auto& [value, hist] : family.series) {
      // Bucket samples merge the series label with `le`.
      const std::string pair = LabelPair(family.label_key, value);
      const std::string bucket =
          name + "_bucket{" + (pair.empty() ? "" : pair + ",") + "le=\"";
      const auto& bounds = hist.Bounds();
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        cumulative += hist.BucketCount(i);
        os << bucket;
        WriteDouble(os, bounds[i]);
        os << "\"} " << cumulative << '\n';
      }
      cumulative += hist.BucketCount(bounds.size());
      os << bucket << "+Inf\"} " << cumulative << '\n';
      const std::string braced = pair.empty() ? "" : "{" + pair + "}";
      os << name << "_sum" << braced << ' ';
      WriteDouble(os, hist.Sum());
      os << '\n' << name << "_count" << braced << ' ' << hist.Count() << '\n';
    }
  }
}

}  // namespace respect::obs
