// Canonical instance forms and content hashing for the solve service
// (the first layer of src/service/): two requests that describe the
// same tri-criteria problem must collide on one cache key even when
// their representations differ.
//
// Normalizations applied:
//   - value level: every number is rendered by canonical_number()
//     (shortest round-trip decimal), so "1", "1.0" and "1.000" are one
//     byte sequence;
//   - stage labels: the chain is kept in pipeline order with labels
//     erased (the serializer's 'task <id> ...' form already reduces
//     labels to an ordering, see model/serialize.hpp);
//   - processor labels: processors are sorted by (speed, failure rate)
//     with a stable sort, and the permutation is recorded both ways, so
//     processor-permuted isomorphic instances share one canonical form
//     and cached solutions can be translated back into each request's
//     own labels.
//
// The service *solves the canonical instance*, never the original: two
// isomorphic requests therefore receive bit-identical metrics and
// label-translated copies of one mapping, whether they were served cold
// or from the cache.
//
// The 128-bit content hash is computed by a fixed, self-contained
// function (two independent 64-bit mix chains + splitmix finalizers),
// never std::hash, so keys are stable across runs, platforms and
// standard libraries — a requirement for warm-start cache files. Keys
// hash the canonical text's bytes (model/serialize.hpp's
// emit_instance_canonical) as they are emitted, without building the
// text: the instance's hash state is kept, and each key extends a copy
// of it with its own suffix.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/serialize.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// A 128-bit content hash. Collisions are treated as impossible at
/// service scale (~2^-64 per pair); equality of keys is equality of
/// canonical requests.
struct CanonicalHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  auto operator<=>(const CanonicalHash&) const noexcept = default;
};

/// The fixed 128-bit function described above, fed in pieces: hashing
/// a byte string in any split equals hashing it whole. A copy forks the
/// stream, so a shared prefix is hashed once.
class Fingerprinter {
 public:
  void update(std::string_view bytes) noexcept {
    // Two independent multiply-xor chains (FNV-1a and an offset variant
    // with a different odd multiplier).
    for (const char c : bytes) {
      const auto byte =
          static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      lo_ = (lo_ ^ byte) * 0x100000001b3ULL;       // FNV-1a prime
      hi_ = (hi_ ^ byte) * 0xc2b2ae3d27d4eb4fULL;  // xxhash64 prime 2
    }
    length_ += bytes.size();
  }

  /// The hash of every byte fed so far; the stream may continue.
  CanonicalHash finish() const noexcept;

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi_ = 0x9e3779b97f4a7c15ULL;  // golden-ratio basis
  std::uint64_t length_ = 0;
};

/// Hashes a byte string with the fixed 128-bit function described above.
CanonicalHash fingerprint(std::string_view bytes) noexcept;

/// 32 lowercase hex digits (hi then lo).
std::string to_hex(const CanonicalHash& hash);

/// Appends to_hex(hash) to `out`, with no temporary string.
void append_hex(std::string& out, const CanonicalHash& hash);

/// Parses to_hex output; nullopt on malformed input.
std::optional<CanonicalHash> hash_from_hex(std::string_view hex);

/// Room for a key_label (a solver name of up to 63 characters).
inline constexpr std::size_t kKeyLabelChars = 96;

/// "<solver>:<to_hex(key)>", the trace label of a keyed request,
/// rendered into `buffer` without allocating. A longer solver name is
/// cut to fit: the label only names the trace.
std::string_view key_label(std::string_view solver, const CanonicalHash& key,
                           char (&buffer)[kKeyLabelChars]) noexcept;

/// Hasher for CanonicalHash-keyed maps: lo is already avalanched by
/// fingerprint(), so it is the bucket index; maps compare full 128-bit
/// keys.
struct CanonicalKeyHasher {
  std::size_t operator()(const CanonicalHash& key) const noexcept {
    return static_cast<std::size_t>(key.lo);
  }
};

/// An instance in canonical form plus the label translation back to the
/// request it came from.
struct CanonicalInstance {
  /// The canonical instance: same chain, processors in canonical order.
  Instance instance;

  /// to_original[c] = index in the *request's* platform of the
  /// processor that became canonical index c.
  std::vector<std::size_t> to_original;

  /// Inverse: to_canonical[o] = canonical index of request processor o.
  std::vector<std::size_t> to_canonical;

  /// The hash stream after the canonical byte form of `instance`
  /// (emit_instance_canonical); request_key and batch_key extend copies.
  Fingerprinter text_hash;

  /// text_hash.finish(): fingerprint of the canonical text.
  CanonicalHash instance_hash;
};

/// Canonicalizes an instance. Deterministic: equal instances (after
/// label erasure) produce byte-identical canonical forms and equal
/// hashes.
CanonicalInstance canonicalize(const Instance& instance);

/// Cache key of a full request: fingerprint of the canonical text
/// followed by "solver <name>\nbounds <period> <latency>\n", the bounds
/// formatted by canonical_number.
CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds);

/// Batching key: fingerprint of the canonical text followed by
/// "solver <name>\n", bounds excluded — requests sharing it can be
/// answered by one prepared solver session.
CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name);

/// Translates a solution expressed in canonical processor indices into
/// the request's own labels (replica sets re-sorted ascending; metrics
/// are label-invariant and pass through unchanged).
solver::Solution to_original_labels(const solver::Solution& canonical_solution,
                                    const CanonicalInstance& canonical);

}  // namespace prts::service
