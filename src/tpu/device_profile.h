// First-class device profiles: a named, fingerprintable description of the
// target pipeline hardware.
//
// The paper evaluates exactly one hardware point — identical Coral Edge TPUs
// chained over USB 3.0 — and that point used to live as default-constructed
// structs inside tpu/device.h.  A DeviceProfile makes the hardware explicit
// and heterogeneous: per-stage EdgeTpuModels (different cache sizes, MAC
// rates, dispatch overheads per pipeline position) plus the shared USB link
// model, with a canonical byte serialization and a 128-bit fingerprint so
// profiles can participate in content-addressed cache keys (same DAG on two
// fleets = two cache entries, never a wrong answer).
//
// This header deliberately depends only on graph/canonical_hash.h (no sched,
// no deploy), so every layer — sched constraints, engines, the serving
// front end — can see the profile without an include cycle.  tpu/device.h
// re-exports the models by including this file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/canonical_hash.h"

namespace respect::tpu {

struct UsbLinkModel {
  /// Effective USB 3.0 throughput (~320 MiB/s).
  double bytes_per_us = 335.5;

  /// Per-message round-trip overhead.
  double latency_us = 60.0;

  [[nodiscard]] double TransferUs(std::int64_t bytes) const {
    return bytes <= 0 ? 0.0
                      : latency_us + static_cast<double>(bytes) / bytes_per_us;
  }

  friend bool operator==(const UsbLinkModel&, const UsbLinkModel&) = default;
};

struct EdgeTpuModel {
  /// On-chip parameter SRAM (8 MiB on Coral).
  std::int64_t cache_bytes = 8ll * 1024 * 1024;

  /// Sustained compute rate: 4 TOPS int8 ≈ 2e12 MAC/s = 2e6 MAC/us, derated
  /// to ~55% utilization for real conv workloads.
  double macs_per_us = 1.1e6;

  /// Host dispatch overhead per segment invocation.
  double dispatch_us = 25.0;

  friend bool operator==(const EdgeTpuModel&, const EdgeTpuModel&) = default;
};

/// A named description of the pipeline hardware a schedule will run on.
///
/// `stages` is a per-stage device pattern, not a fixed stage count: stage k
/// uses stages[min(k, stages.size()-1)], so {fast, coral} means "stage 0 is
/// the fast device, every later stage a stock Coral" regardless of how many
/// stages a request asks for.  An empty vector means every stage is a stock
/// Coral (the paper's testbed) — that is the *default profile*.
struct DeviceProfile {
  std::string name = "coral";
  std::vector<EdgeTpuModel> stages;
  UsbLinkModel link;

  /// Device model for pipeline stage `stage` (clamps to the last entry).
  [[nodiscard]] const EdgeTpuModel& DeviceAt(int stage) const;

  /// True when every stage uses the same device model (the link may still
  /// differ from stock).  Heterogeneity is what makes schedule *balance*
  /// profile-dependent; engines use this to pick the device-aware objective.
  [[nodiscard]] bool IsUniform() const;

  /// True when this profile is hardware-identical to DefaultProfile()
  /// (names are ignored — fingerprints compare the hardware, not the label).
  [[nodiscard]] bool IsDefault() const;

  /// Canonical byte serialization of the *hardware* (name excluded, the
  /// stage pattern collapsed to its shortest equivalent form): two profiles
  /// that behave identically at every stage count serialize identically.
  [[nodiscard]] std::string Serialize() const;

  /// 128-bit digest of Serialize() — what cache keys and spill envelopes
  /// record.  Stable across runs and platforms.
  [[nodiscard]] graph::CanonicalHash Fingerprint() const;

  friend bool operator==(const DeviceProfile&, const DeviceProfile&) = default;
};

/// The paper's testbed: identical stock Corals on USB 3.0.  Requests that
/// name no profile resolve to this.
[[nodiscard]] const DeviceProfile& DefaultProfile();

/// Looks up a named preset.  The empty string is an alias for the default
/// profile (a request with no profile field).  Unknown names are nullopt.
///
/// Built-in presets:
///   coral           — the default profile (stock Corals, USB 3.0)
///   coral-x2fast    — stage 0 is a 2x-MAC-rate, 16 MiB-cache device;
///                     later stages stock Corals
///   constrained-4mb — every stage a 4 MiB-cache Coral (streaming-bound)
///   coral-usb2      — stock Corals behind a USB 2.0 link
[[nodiscard]] std::optional<DeviceProfile> FindProfile(std::string_view name);

/// Names of all built-in presets, in registry order.
[[nodiscard]] std::vector<std::string_view> ProfileNames();

}  // namespace respect::tpu
