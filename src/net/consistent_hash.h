// Consistent-hash ring over fleet member addresses — the routing rule that
// gives every content-addressed request key one home shard.
//
// Each member contributes kVirtualNodes points on a 64-bit ring (the
// graph::CanonicalHasher digest of member + vnode index, taking .lo — the
// same well-mixed half the request key routes on); a key's owner is the
// member holding the first point at or clockwise after key.lo.  Properties
// the fleet relies on:
//
//   * Stable across membership-list order: the ring is built from hashes,
//     so ["a","b","c"] and ["c","a","b"] route identically — every shard
//     computes the same owner from the same member set, no coordinator.
//   * Minimal movement: adding/removing one member remaps only the keys
//     adjacent to its points (~1/N of the space), not the whole key space.
//   * Virtual nodes smooth the load spread (64 points per member keeps the
//     max/mean shard load within a few percent for small fleets).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace respect::net {

class ConsistentHashRing {
 public:
  inline static constexpr int kVirtualNodes = 64;

  /// An empty ring owns nothing (OwnerOf throws).
  ConsistentHashRing() = default;

  /// Builds the ring from member addresses.  Duplicate members collapse.
  explicit ConsistentHashRing(std::vector<std::string> members);

  [[nodiscard]] bool Empty() const { return ring_.empty(); }
  [[nodiscard]] const std::vector<std::string>& Members() const {
    return members_;
  }

  /// The member owning `point` (first ring point >= point, wrapping).
  /// Throws std::logic_error on an empty ring.
  [[nodiscard]] const std::string& OwnerOf(std::uint64_t point) const;

 private:
  std::vector<std::string> members_;  // deduplicated, construction order
  /// Sorted (ring point, index into members_) pairs; ties broken by member
  /// index so every process agrees even on hash collisions.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace respect::net
