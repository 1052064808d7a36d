// Consistent-hash ring over the canonical 128-bit key space: the
// fabric's one ownership function. Every member rank contributes
// `virtual_nodes` points on a 64-bit circle (a fixed splitmix-style mix
// of (rank, replica index), never std::hash, so every rank computes the
// identical ring); a key is owned by the member whose point is the
// first at or after the key's own position, wrapping at the top.
//
// The property a reshaping fleet needs is *minimal disruption*: when a
// member joins, the only keys that change owner are the ones the new
// member takes; when a member leaves, only its keys move (each to the
// next point's owner). A modulo partition would reshuffle almost
// everything on any size change — the difference between streaming one
// rank's slice and re-warming the whole fleet.
//
// The ring itself is a pure value (rebuild from a member set, query);
// epoch/versioning lives in service/membership.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/canonical.hpp"

namespace prts::service {

struct RingConfig {
  /// Points per member. More points = smoother balance (relative load
  /// spread shrinks like 1/sqrt(virtual_nodes)) at the cost of a larger
  /// sorted array; 64 keeps the worst member within ~25% of fair share.
  std::size_t virtual_nodes = 64;
};

class HashRing {
 public:
  HashRing() : HashRing(RingConfig{}) {}
  explicit HashRing(RingConfig config) : config_(config) {
    if (config_.virtual_nodes == 0) config_.virtual_nodes = 1;
  }

  /// Replaces the member set (duplicates collapse to one member).
  void rebuild(const std::vector<std::size_t>& ranks);

  bool empty() const noexcept { return points_.empty(); }
  std::size_t member_count() const noexcept { return members_; }

  /// The rank owning `key`. Requires a non-empty ring.
  std::size_t owner_of(const CanonicalHash& key) const noexcept;

  /// The point position a key hashes to (exposed for tests).
  static std::uint64_t key_position(const CanonicalHash& key) noexcept;

 private:
  struct Point {
    std::uint64_t position = 0;
    std::size_t rank = 0;
  };

  RingConfig config_;
  std::vector<Point> points_;  ///< sorted by position
  std::size_t members_ = 0;
};

}  // namespace prts::service
