// Content-addressed hashing of computational graphs.
//
// HashDag folds the exact byte stream WriteDag (graph/serialize.h) would emit
// into a 128-bit digest — both are driven by the one emitter, EmitDag, and
// the text is never materialized or locale-formatted — so two Dags hash
// equal iff their serialized forms are identical: same name, same nodes in id
// order with identical attributes, same edges in insertion order.  That is
// the cache-key contract the serving layer (serve/compile_service.h) builds
// on: a digest addresses the full compile input, not an approximation of it.
//
// The digest is a non-cryptographic mix (two independent FNV-1a streams with
// a splitmix64 finalizer).  It is stable across runs and platforms and
// collision-resistant enough for cache addressing; it is NOT suitable where
// an adversary controls the graphs and a collision must be impossible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/dag.h"

namespace respect::graph {

/// A 128-bit content digest.  Value type; usable as a hash-map key via
/// CanonicalHash::Hasher (lo is already well mixed).
struct CanonicalHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CanonicalHash&, const CanonicalHash&) = default;

  /// 32 lowercase hex digits, hi first — the spelling used in logs/CLIs.
  [[nodiscard]] std::string ToHex() const;

  /// Inverse of ToHex: exactly 32 hex digits (either case) parse back to
  /// the digest; anything else is nullopt.  The persistent cache store
  /// (serve/store) names spill files by ToHex and recovers keys from the
  /// file names with this on its warm-start scan.
  [[nodiscard]] static std::optional<CanonicalHash> FromHex(
      std::string_view hex);

  struct Hasher {
    [[nodiscard]] std::size_t operator()(const CanonicalHash& h) const {
      return static_cast<std::size_t>(h.lo);
    }
  };
};

/// Incremental digest builder.  Update order matters: feeding "ab" then "c"
/// equals feeding "abc", but integers are folded as fixed-width
/// little-endian blocks, so Update(1) != Update("1").
class CanonicalHasher {
 public:
  void Update(std::string_view bytes);
  // Exact match for string literals: without it, const char* would prefer
  // the standard pointer->bool conversion over the string_view overload.
  void Update(const char* bytes) { Update(std::string_view(bytes)); }
  void Update(std::uint64_t value);
  void Update(std::int64_t value) { Update(static_cast<std::uint64_t>(value)); }
  void Update(int value) { Update(static_cast<std::uint64_t>(value)); }
  void Update(bool value) { Update(static_cast<std::uint64_t>(value)); }

  /// Finalizes (avalanches) the accumulated state.  The hasher may keep
  /// receiving Update calls afterwards; Finish is const and repeatable.
  [[nodiscard]] CanonicalHash Finish() const;

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t b_ = 0x6c62272e07bb0142ULL;  // independent second stream
};

/// Digest of the graph's canonical serialized form (see file comment).
[[nodiscard]] CanonicalHash HashDag(const Dag& dag);

}  // namespace respect::graph
