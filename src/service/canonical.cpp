#include "service/canonical.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace prts::service {
namespace {

/// SplitMix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The finalizer of both hashes: folds the count of words or bytes in,
/// so sequences that are prefixes of each other cannot collide on both
/// halves, then avalanches.
CanonicalHash finalize(std::uint64_t hi, std::uint64_t lo,
                       std::uint64_t count) noexcept {
  return CanonicalHash{mix64(hi ^ (count * 0xff51afd7ed558ccdULL)),
                       mix64(lo ^ count)};
}

/// The first word of every key: names this key format, so a change of
/// format changes every key ("prtskey2").
constexpr std::uint64_t kKeyFormat = 0x707274736b657932ULL;

/// The last word of a batch key, where a request key has its bounds
/// ("prtsbtch").
constexpr std::uint64_t kBatchTag = 0x7072747362746368ULL;

/// The key stream after a canonical instance's words (canonical.hpp's
/// header lists them).
KeyHasher key_words(const Instance& instance) noexcept {
  KeyHasher hash;
  hash.word(kKeyFormat);
  hash.word(instance.chain.size());
  for (const Task& task : instance.chain.tasks()) {
    hash.value(task.work);
    hash.value(task.out_size);
  }
  const Platform& platform = instance.platform;
  hash.word(platform.processor_count());
  hash.value(platform.bandwidth());
  hash.value(platform.link_failure_rate());
  hash.word(platform.max_replication());
  for (const Processor& proc : platform.processors()) {
    hash.value(proc.speed);
    hash.value(proc.failure_rate);
  }
  return hash;
}

/// Writes to_hex's 32 digits at `out`.
void write_hex(const CanonicalHash& hash, char* out) noexcept {
  static const char* digits = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hash.hi >> (4 * i)) & 0xF];
    out[31 - i] = digits[(hash.lo >> (4 * i)) & 0xF];
  }
}

}  // namespace

void KeyHasher::text(std::string_view bytes) noexcept {
  word(bytes.size());
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t packed = 0;
    const std::size_t take = std::min<std::size_t>(8, bytes.size() - at);
    for (std::size_t i = 0; i < take; ++i) {
      packed |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(bytes[at + i]))
                << (8 * i);
    }
    word(packed);
  }
}

CanonicalHash KeyHasher::finish() const noexcept {
  return finalize(hi_, lo_, words_);
}

CanonicalHash fingerprint(std::string_view bytes) noexcept {
  // Two independent multiply-xor chains (FNV-1a and an offset variant
  // with a different odd multiplier).
  std::uint64_t lo = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi = 0x9e3779b97f4a7c15ULL;  // golden-ratio basis
  for (const char c : bytes) {
    const auto byte =
        static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    lo = (lo ^ byte) * 0x100000001b3ULL;       // FNV-1a prime
    hi = (hi ^ byte) * 0xc2b2ae3d27d4eb4fULL;  // xxhash64 prime 2
  }
  return finalize(hi, lo, bytes.size());
}

std::string to_hex(const CanonicalHash& hash) {
  std::string text;
  append_hex(text, hash);
  return text;
}

void append_hex(std::string& out, const CanonicalHash& hash) {
  const std::size_t at = out.size();
  out.resize(at + 32);
  write_hex(hash, out.data() + at);
}

std::optional<CanonicalHash> hash_from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  CanonicalHash hash;
  for (int i = 0; i < 32; ++i) {
    const char c = hex[static_cast<std::size_t>(i)];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    if (i < 16) {
      hash.hi = (hash.hi << 4) | digit;
    } else {
      hash.lo = (hash.lo << 4) | digit;
    }
  }
  return hash;
}

std::string_view key_label(std::string_view solver, const CanonicalHash& key,
                           char (&buffer)[kKeyLabelChars]) noexcept {
  const std::size_t name = std::min(solver.size(), kKeyLabelChars - 33);
  std::copy_n(solver.data(), name, buffer);
  buffer[name] = ':';
  write_hex(key, buffer + name + 1);
  return std::string_view(buffer, name + 33);
}

CanonicalInstance canonicalize(const Instance& instance) {
  const Platform& platform = instance.platform;
  const std::size_t p = platform.processor_count();

  // Stable sort on the physical characteristics only: processors with
  // equal (speed, failure rate) are interchangeable, and stability makes
  // the permutation deterministic for a given request.
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Processor& pa = platform.processor(a);
                     const Processor& pb = platform.processor(b);
                     if (pa.speed != pb.speed) return pa.speed < pb.speed;
                     return pa.failure_rate < pb.failure_rate;
                   });

  std::vector<Processor> sorted;
  sorted.reserve(p);
  std::vector<std::size_t> to_canonical(p);
  for (std::size_t c = 0; c < p; ++c) {
    sorted.push_back(platform.processor(order[c]));
    to_canonical[order[c]] = c;
  }

  CanonicalInstance canonical{
      Instance{instance.chain,
               Platform(std::move(sorted), platform.bandwidth(),
                        platform.link_failure_rate(),
                        platform.max_replication())},
      std::move(order),
      std::move(to_canonical),
      {},
      {}};
  canonical.key_hash = key_words(canonical.instance);
  canonical.instance_hash = canonical.key_hash.finish();
  return canonical;
}

CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds) {
  KeyHasher hash = canonical.key_hash;
  hash.text(solver_name);
  hash.value(bounds.period_bound);
  hash.value(bounds.latency_bound);
  return hash.finish();
}

CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name) {
  KeyHasher hash = canonical.key_hash;
  hash.text(solver_name);
  hash.word(kBatchTag);
  return hash.finish();
}

solver::Solution to_original_labels(
    const solver::Solution& canonical_solution,
    const CanonicalInstance& canonical) {
  const Mapping& mapping = canonical_solution.mapping;
  std::vector<std::vector<std::size_t>> procs;
  procs.reserve(mapping.interval_count());
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    std::vector<std::size_t> replicas;
    for (const std::size_t c : mapping.processors(j)) {
      replicas.push_back(canonical.to_original[c]);
    }
    procs.push_back(std::move(replicas));  // Mapping's ctor re-sorts
  }
  return solver::Solution{Mapping(mapping.partition(), std::move(procs)),
                          canonical_solution.metrics};
}

}  // namespace prts::service
