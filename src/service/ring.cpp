#include "service/ring.hpp"

#include <algorithm>

namespace prts::service {
namespace {

/// The fixed 64-bit finalizer (splitmix64): stable across runs,
/// platforms and standard libraries — ring points must agree between
/// ranks built by different compilers.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void HashRing::rebuild(const std::vector<std::size_t>& ranks) {
  std::vector<std::size_t> unique = ranks;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  points_.clear();
  points_.reserve(unique.size() * config_.virtual_nodes);
  for (const std::size_t rank : unique) {
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      Point point;
      // Two mix rounds decorrelate (rank, replica) pairs; a single
      // xor'd round leaves neighbouring ranks' points clustered.
      point.position = mix64(mix64(static_cast<std::uint64_t>(rank)) ^
                             (static_cast<std::uint64_t>(v) * 0xd1b54a32d192ed03ULL));
      point.rank = rank;
      points_.push_back(point);
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Position ties (vanishingly rare) break by rank so every
              // member builds the identical order.
              return a.position != b.position ? a.position < b.position
                                              : a.rank < b.rank;
            });
  members_ = unique.size();
}

std::uint64_t HashRing::key_position(const CanonicalHash& key) noexcept {
  // hi and lo are already avalanched by the key finalizer; one more mix
  // binds them so keys differing only in one half still spread.
  return mix64(key.hi ^ (key.lo * 0x2545f4914f6cdd1dULL));
}

std::size_t HashRing::owner_of(const CanonicalHash& key) const noexcept {
  const std::uint64_t position = key_position(key);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), position,
      [](const Point& point, std::uint64_t pos) {
        return point.position < pos;
      });
  // Wrap: a key past the last point belongs to the first.
  return it == points_.end() ? points_.front().rank : it->rank;
}

}  // namespace prts::service
