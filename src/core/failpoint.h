// Failpoints: named fault-injection sites, zero-cost when disabled.
//
// Production code marks failure-prone spots with RESPECT_FAILPOINT("site");
// tests and the CLI arm sites at runtime to inject typed errors, delays, or
// a hard crash:
//
//   core::failpoint::Configure("store.write", "error(ENOSPC)", /*count=*/2);
//   core::failpoint::Configure("engine.solve.RESPECT", "delay(50)");
//   ...
//   core::failpoint::ClearAll();
//
// or from a CLI spec string: "store.write=error;queue.pop=delay(5)".
//
// Cost model: when no site is configured anywhere, a failpoint is one
// relaxed atomic load.
//
// Actions:
//   off         — count the visit, inject nothing (for assertions).
//   error       — throw FailpointError ("error(msg)" customizes the text).
//   delay(ms)   — sleep the calling thread for ms milliseconds.
//   crash       — std::abort() (chaos/crash-recovery tests only).
// A positive `count` limits how many times the action fires; after that the
// site keeps counting visits but injects nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace respect::core::failpoint {

/// Thrown by sites armed with the "error" action.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& what) : std::runtime_error(what) {}
};

namespace internal {
// Number of configured sites; the macro's fast-path gate.
extern std::atomic<int> g_configured;
}  // namespace internal

/// True when any site is configured (fast path for the macro).
inline bool Armed() noexcept {
  return internal::g_configured.load(std::memory_order_relaxed) != 0;
}

/// Runs the configured action for `site`, if any.  May throw FailpointError,
/// sleep, or abort.  Call through the macro, not directly.
void Evaluate(std::string_view site);

/// Evaluates both "site" and "site.tag" (e.g. "engine.solve" and
/// "engine.solve.RESPECT") so chaos tooling can target one engine.
void EvaluateTagged(std::string_view site, std::string_view tag);

/// Arms `site` with `action` (see the actions table above).  `count` > 0
/// limits the number of injections; 0 means unlimited.
void Configure(std::string site, std::string action, std::uint64_t count = 0);

/// Parses "site=action;site=action" (';' or ',' separated).  Returns false
/// on a malformed spec (nothing is configured for the bad clause).
bool ConfigureFromSpec(std::string_view spec);

/// Disarms one site / every site.  Visit counters are forgotten with them.
void Clear(std::string_view site);
void ClearAll();

/// Visits to `site` since it was configured (fired or not); 0 if unknown.
std::uint64_t HitCount(std::string_view site);

/// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, std::string action, std::uint64_t count = 0)
      : site_(site) {
    Configure(std::move(site), std::move(action), count);
  }
  ~ScopedFailpoint() { Clear(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace respect::core::failpoint

#define RESPECT_FAILPOINT(site)                     \
  do {                                              \
    if (::respect::core::failpoint::Armed()) {      \
      ::respect::core::failpoint::Evaluate(site);   \
    }                                               \
  } while (false)
#define RESPECT_FAILPOINT_TAGGED(site, tag)                  \
  do {                                                       \
    if (::respect::core::failpoint::Armed()) {               \
      ::respect::core::failpoint::EvaluateTagged(site, tag); \
    }                                                        \
  } while (false)
