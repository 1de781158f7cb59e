#include "net/consistent_hash.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/canonical_hash.h"

namespace respect::net {

ConsistentHashRing::ConsistentHashRing(std::vector<std::string> members) {
  members_.reserve(members.size());
  for (std::string& member : members) {
    if (std::find(members_.begin(), members_.end(), member) !=
        members_.end()) {
      continue;  // duplicates contribute nothing
    }
    members_.push_back(std::move(member));
  }
  ring_.reserve(members_.size() * kVirtualNodes);
  for (std::uint32_t index = 0; index < members_.size(); ++index) {
    for (int vnode = 0; vnode < kVirtualNodes; ++vnode) {
      graph::CanonicalHasher h;
      h.Update("respect-fleet-ring-v1");
      h.Update(members_[index]);
      h.Update(vnode);
      ring_.emplace_back(h.Finish().lo, index);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

const std::string& ConsistentHashRing::OwnerOf(std::uint64_t point) const {
  if (ring_.empty()) {
    throw std::logic_error("ConsistentHashRing: empty ring owns nothing");
  }
  // First ring point at or after `point`; past the last point wraps to the
  // ring's first.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<std::uint64_t, std::uint32_t>& entry,
         std::uint64_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();
  return members_[it->second];
}

}  // namespace respect::net
