// Small helpers shared by the example CLIs.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "serve/compile_service.h"

namespace respect::examples {

/// Deepest pipeline the example CLIs accept (the paper's hardware tops out
/// well below this; it also keeps every sampled/zoo graph packable).
inline constexpr int kMaxStages = 16;

/// Strict integer parse: the whole argument must be a base-10 integer in
/// [lo, hi].  std::atoi would silently yield 0 for "foo" (and accept
/// trailing junk like "4x"), turning typos into nonsense pipelines.
inline bool ParseIntInRange(const char* text, int lo, int hi, int& out) {
  const auto [ptr, ec] =
      std::from_chars(text, text + std::strlen(text), out);
  return ec == std::errc{} && *ptr == '\0' && out >= lo && out <= hi;
}

/// A service counter by series name, e.g. "respect_serve_misses_total"
/// (a misspelt name throws std::out_of_range instead of reading 0).
inline std::uint64_t CounterValue(const serve::CompileService& service,
                                  std::string_view name) {
  return service.MetricsRegistry().FindCounter(name).load();
}

/// A counter series read off a Prometheus page by name — the page a fleet
/// shard returns from net::FleetClient::MetricsPage, read the way
/// CounterValue reads an in-process registry.  `series` is the sample name
/// as printed, labels included (e.g. respect_serve_lane_started_total{lane=
/// "batch"}); a series absent from the page throws std::out_of_range.
inline std::uint64_t PageCounter(std::string_view page,
                                 std::string_view series) {
  while (!page.empty()) {
    const std::string_view line = page.substr(0, page.find('\n'));
    page.remove_prefix(std::min(page.size(), line.size() + 1));
    if (line.size() <= series.size() || !line.starts_with(series) ||
        line[series.size()] != ' ') {
      continue;
    }
    std::uint64_t value = 0;
    const char* first = line.data() + series.size() + 1;
    const auto [ptr, ec] =
        std::from_chars(first, line.data() + line.size(), value);
    if (ec == std::errc{} && ptr == line.data() + line.size()) return value;
  }
  throw std::out_of_range("metrics page has no counter series " +
                          std::string(series));
}

/// The shared end-of-run metrics dump, derived from the registry: every
/// non-zero series of the Prometheus page (histograms as _sum/_count), then
/// the point-in-time sizes the registry does not hold.  Every serve_cli
/// mode prints the same shape, so runs are comparable across modes.
inline void PrintServiceMetrics(const serve::CompileService& service) {
  std::ostringstream text;
  service.MetricsRegistry().RenderPrometheus(text);
  std::istringstream lines(std::move(text).str());
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with('#') || line.ends_with(" 0") ||
        line.find("_bucket{") != std::string::npos) {
      continue;
    }
    std::printf("  %s\n", line.c_str());
  }
  const serve::ServiceMetrics m = service.Metrics();
  std::printf("  resident: %zu memory entries, %zu store entries\n",
              m.cache_size, m.store.resident);
}

/// Writes the service's whole metrics registry (service + store + fleet
/// counters, histograms with cumulative buckets) as Prometheus exposition
/// text.  "-" writes to stdout.  Returns false (with a message on stderr)
/// when the file cannot be written.
inline bool WritePrometheusMetrics(serve::CompileService& service,
                                   const std::string& path) {
  std::ostringstream text;
  service.MetricsRegistry().RenderPrometheus(text);
  if (path == "-") {
    const std::string rendered = std::move(text).str();
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << text.str();
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace respect::examples
