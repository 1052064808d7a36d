// Canonical instance forms and content hashing for the solve service
// (the first layer of src/service/): two requests that describe the
// same tri-criteria problem must collide on one cache key even when
// their representations differ.
//
// Normalizations applied:
//   - value level: a key covers each number's value, not its spelling,
//     so "1", "1.0" and "1.000" key alike; -0 is folded to +0 and every
//     NaN to the one quiet NaN of its sign, exactly the values
//     canonical_number() (shortest round-trip decimal) writes alike;
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
// Keys hash the canonical instance's values as 64-bit words — a format
// tag, the task count, each task's work and output size, the processor
// count, bandwidth, link failure rate and K, then each processor's
// speed and failure rate in canonical order — through a fixed,
// self-contained function (a two-lane multiply-xorshift step per word,
// the word count folded in, splitmix finalizers), never std::hash, so
// keys are stable across runs, platforms and standard libraries: a
// requirement for warm-start cache files and for peers that carry keys
// on the wire. Values, not text: shortest round-trip text is a
// bijection on the folded doubles, so two keys are equal exactly when
// the canonical texts are, and no number is formatted to key a request.
// A key's words are part of the frame protocol (v4) and of the PRTS1
// snapshot (version 2): ranks and snapshots from before this scheme are
// refused, never silently missed. The instance's hash state is kept,
// and each key extends a copy of it with its own suffix.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// The fixed 128-bit key function described above, fed word by word.
/// A copy forks the stream, so a shared prefix is hashed once.
class KeyHasher {
 public:
  /// One multiply-xorshift step per lane: a bijection of the lane for
  /// any fixed word, so sequences of one length that differ in a single
  /// word never collide.
  void word(std::uint64_t bits) noexcept {
    lo_ = (lo_ ^ bits) * 0x9e3779b97f4a7c15ULL;  // golden ratio, odd
    lo_ ^= lo_ >> 32;
    hi_ = (hi_ ^ bits) * 0xc2b2ae3d27d4eb4fULL;  // xxhash64 prime 2
    hi_ ^= hi_ >> 29;
    ++words_;
  }

  /// A number's bits, -0 folded to +0 and every NaN to the quiet NaN
  /// of its sign: the values canonical_number writes alike key alike.
  void value(double number) noexcept {
    if (number == 0.0) number = 0.0;
    if (std::isnan(number)) {
      number = std::copysign(std::numeric_limits<double>::quiet_NaN(),
                             number);
    }
    word(std::bit_cast<std::uint64_t>(number));
  }

  /// A string: its length, then its bytes eight to a word
  /// (little-endian, the last word zero-padded).
  void text(std::string_view bytes) noexcept;

  /// The hash of every word fed so far; the stream may continue.
  CanonicalHash finish() const noexcept;

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi_ = 0x84222325cbf29ce4ULL;  // its halves swapped
  std::uint64_t words_ = 0;
};

/// A byte string's 128-bit fingerprint (two FNV-style byte chains,
/// length fold, splitmix finalizers), for keys that name arbitrary
/// bytes rather than a request; request keys come from KeyHasher.
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
/// the finalizer, so it is the bucket index; maps compare full 128-bit
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

  /// The key stream after the words of `instance`; request_key and
  /// batch_key extend copies.
  KeyHasher key_hash;

  /// key_hash.finish(): the hash of the canonical instance alone.
  CanonicalHash instance_hash;
};

/// Canonicalizes an instance. Deterministic: equal instances (after
/// label erasure) produce byte-identical canonical forms and equal
/// hashes.
CanonicalInstance canonicalize(const Instance& instance);

/// Cache key of a full request: the instance's words, then the solver
/// name and the two bounds' folded values. Equal exactly when the
/// canonical texts plus "solver <name>\nbounds <period> <latency>\n"
/// (canonical_number bounds) are equal.
CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds);

/// Batching key: the instance's words, then the solver name and a tag
/// no request key carries, bounds excluded — requests sharing it can
/// be answered by one prepared solver session.
CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name);

/// Translates a solution expressed in canonical processor indices into
/// the request's own labels (replica sets re-sorted ascending; metrics
/// are label-invariant and pass through unchanged).
solver::Solution to_original_labels(const solver::Solution& canonical_solution,
                                    const CanonicalInstance& canonical);

}  // namespace prts::service
