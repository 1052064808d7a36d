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

/// Writes to_hex's 32 digits at `out`.
void write_hex(const CanonicalHash& hash, char* out) noexcept {
  static const char* digits = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hash.hi >> (4 * i)) & 0xF];
    out[31 - i] = digits[(hash.lo >> (4 * i)) & 0xF];
  }
}

}  // namespace

CanonicalHash Fingerprinter::finish() const noexcept {
  // Fold the length in so prefixes of each other cannot collide on both
  // halves, then avalanche.
  return CanonicalHash{mix64(hi_ ^ (length_ * 0xff51afd7ed558ccdULL)),
                       mix64(lo_ ^ length_)};
}

CanonicalHash fingerprint(std::string_view bytes) noexcept {
  Fingerprinter hash;
  hash.update(bytes);
  return hash.finish();
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

  emit_instance_canonical(canonical.instance, [&](std::string_view bytes) {
    canonical.text_hash.update(bytes);
  });
  canonical.instance_hash = canonical.text_hash.finish();
  return canonical;
}

CanonicalHash request_key(const CanonicalInstance& canonical,
                          const std::string& solver_name,
                          const solver::Bounds& bounds) {
  Fingerprinter hash = canonical.text_hash;
  char number[kCanonicalNumberChars];
  hash.update("solver ");
  hash.update(solver_name);
  hash.update("\nbounds ");
  hash.update(canonical_number_chars(bounds.period_bound, number));
  hash.update(" ");
  hash.update(canonical_number_chars(bounds.latency_bound, number));
  hash.update("\n");
  return hash.finish();
}

CanonicalHash batch_key(const CanonicalInstance& canonical,
                        const std::string& solver_name) {
  Fingerprinter hash = canonical.text_hash;
  hash.update("solver ");
  hash.update(solver_name);
  hash.update("\n");
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
