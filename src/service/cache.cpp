#include "service/cache.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>

#include "model/interval.hpp"

namespace prts::service {
namespace {

/// Hands every `delim`-separated field of `text` to `take`, empty ones
/// included ("a," is "a" and ""), so a stray delimiter is a malformed
/// field rather than silently dropped; false as soon as `take` is.
template <typename Take>
bool for_each_field(std::string_view text, char delim, Take&& take) {
  for (;;) {
    const std::size_t end = text.find(delim);
    if (!take(text.substr(0, end))) return false;
    if (end == std::string_view::npos) return true;
    text.remove_prefix(end + 1);
  }
}

/// A comma-separated list of sizes appended to `out`; false on an
/// empty or malformed element.
bool parse_size_list(std::string_view text, std::vector<std::size_t>& out) {
  return for_each_field(text, ',', [&out](std::string_view part) {
    std::size_t value = 0;
    if (!parse_canonical_integer(part, value)) return false;
    out.push_back(value);
    return true;
  });
}

// ---- binary snapshot primitives (explicit little-endian) ----

void put_u64_le(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void put_u32_le(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64_le(const unsigned char* in) noexcept {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | in[i];
  return value;
}

std::uint32_t get_u32_le(const unsigned char* in) noexcept {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) value = (value << 8) | in[i];
  return value;
}

constexpr char kBinaryMagic[6] = {'P', 'R', 'T', 'S', '1', '\n'};
/// Version 3: a request key's hi is its batch key's
/// (service/canonical.hpp). Version 2 keys hashed the whole request
/// into both words and version 1 keys hashed the text, so either is
/// refused rather than loaded under keys no request computes.
constexpr std::uint8_t kBinaryVersion = 3;
constexpr std::size_t kBinaryHeaderBytes = sizeof(kBinaryMagic) + 2 + 8;
constexpr std::size_t kBinaryIndexEntryBytes = 8 + 8 + 8 + 4;
/// A corrupted blob length must not turn into a huge allocation.
constexpr std::uint32_t kBinaryMaxBlobBytes = 16 * 1024 * 1024;

}  // namespace

std::size_t cached_solution_bytes(const CachedSolution& value) noexcept {
  // Fixed per-entry overhead: key, list/map nodes, metrics struct.
  std::size_t bytes = 160;
  if (value.solution) {
    const Mapping& mapping = value.solution->mapping;
    bytes += mapping.interval_count() * (sizeof(Interval) + sizeof(void*) * 3);
    bytes += mapping.processors_used() * sizeof(std::size_t);
  }
  // Near-miss metadata plus its bounds-index slot.
  if (value.indexable()) bytes += 64;
  return bytes;
}

std::string encode_cache_entry(const CanonicalHash& key,
                               const CachedSolution& value) {
  std::string out;
  append_cache_entry(out, key, value);
  return out;
}

void append_cache_entry(std::string& out, const CanonicalHash& key,
                        const CachedSolution& value) {
  const auto field = [&out](double number) {
    out += '\t';
    append_canonical_number(out, number);
  };
  append_hex(out, key);
  if (!value.solution) {
    out += "\t0\t-\t-";
  } else {
    const solver::Solution& solution = *value.solution;
    out += "\t1\t";
    const auto boundaries = solution.mapping.partition().boundaries();
    for (std::size_t j = 0; j < boundaries.size(); ++j) {
      if (j) out += ',';
      append_integer(out, boundaries[j]);
    }
    out += '\t';
    for (std::size_t j = 0; j < solution.mapping.interval_count(); ++j) {
      if (j) out += ';';
      const auto procs = solution.mapping.processors(j);
      for (std::size_t r = 0; r < procs.size(); ++r) {
        if (r) out += ',';
        append_integer(out, procs[r]);
      }
    }
    const MappingMetrics& metrics = solution.metrics;
    field(metrics.reliability.log());
    field(metrics.failure);
    field(metrics.expected_latency);
    field(metrics.worst_latency);
    field(metrics.expected_period);
    field(metrics.worst_period);
    out += '\t';
    append_integer(out, metrics.interval_count);
    out += '\t';
    append_integer(out, metrics.processors_used);
    field(metrics.replication_level);
  }
  field(value.cost_seconds);
  if (value.indexable()) {
    out += '\t';
    append_hex(out, *value.instance_key);
    field(value.bounds->period_bound);
    field(value.bounds->latency_bound);
  }
}

namespace {

/// The most fields an entry line has (a feasible one with its near-miss
/// metadata).
constexpr std::size_t kEntryFields = 17;

/// Parses the optional trailing near-miss metadata triple (`fields[0]`
/// to `fields[2]`) into `value`; false on malformed fields.
bool parse_near_metadata(const std::string_view* fields, CachedSolution& value,
                         std::string& error) {
  const auto instance_key = hash_from_hex(fields[0]);
  solver::Bounds bounds;
  if (!instance_key ||
      !parse_canonical_number(fields[1], bounds.period_bound) ||
      !parse_canonical_number(fields[2], bounds.latency_bound)) {
    error = "malformed near-miss metadata";
    return false;
  }
  value.instance_key = *instance_key;
  value.bounds = bounds;
  return true;
}

}  // namespace

bool parse_cache_entry(std::string_view line, CanonicalHash& key,
                       CachedSolution& value, std::string& error) {
  const auto bad = [&](const std::string& what) {
    error = what;
    return false;
  };

  // Infeasible entries carry 5 fields, or 8 with the near-miss
  // metadata; feasible ones 14, or 17. `count` keeps counting past the
  // array, so an over-long line fails the shape checks below.
  std::array<std::string_view, kEntryFields> fields;
  std::size_t count = 0;
  for_each_field(line, '\t', [&](std::string_view field) {
    if (count < fields.size()) fields[count] = field;
    ++count;
    return true;
  });
  if (count < 5) return bad("expected >= 5 tab-separated fields");
  const auto parsed_key = hash_from_hex(fields[0]);
  if (!parsed_key) {
    return bad("malformed hash '" + std::string(fields[0]) + "'");
  }

  if (fields[1] == "0") {
    if ((count != 5 && count != 8) || fields[2] != "-" || fields[3] != "-") {
      return bad("infeasible entries need 5 or 8 fields, mapping '-'");
    }
    CachedSolution parsed;
    if (!parse_canonical_number(fields[4], parsed.cost_seconds)) {
      return bad("malformed cost field");
    }
    if (count == 8 && !parse_near_metadata(&fields[5], parsed, error)) {
      return false;
    }
    key = *parsed_key;
    value = std::move(parsed);
    return true;
  }
  if (fields[1] != "1" || (count != 14 && count != kEntryFields)) {
    return bad("feasible entries need 14 or 17 fields");
  }

  std::vector<std::size_t> boundaries;
  if (!parse_size_list(fields[2], boundaries)) {
    return bad("malformed boundary list");
  }
  std::vector<std::vector<std::size_t>> procs;
  const bool procs_ok =
      for_each_field(fields[3], ';', [&procs](std::string_view group) {
        procs.emplace_back();
        return parse_size_list(group, procs.back());
      });
  if (!procs_ok) return bad("malformed processor list");
  if (procs.size() != boundaries.size()) {
    return bad("boundary/processor list size mismatch");
  }

  double log_r = 0.0;
  MappingMetrics metrics;
  double cost_seconds = 0.0;
  if (!parse_canonical_number(fields[4], log_r) ||
      !parse_canonical_number(fields[5], metrics.failure) ||
      !parse_canonical_number(fields[6], metrics.expected_latency) ||
      !parse_canonical_number(fields[7], metrics.worst_latency) ||
      !parse_canonical_number(fields[8], metrics.expected_period) ||
      !parse_canonical_number(fields[9], metrics.worst_period) ||
      !parse_canonical_integer(fields[10], metrics.interval_count) ||
      !parse_canonical_integer(fields[11], metrics.processors_used) ||
      !parse_canonical_number(fields[12], metrics.replication_level) ||
      !parse_canonical_number(fields[13], cost_seconds)) {
    return bad("malformed metric fields");
  }
  metrics.reliability = LogReliability::from_log(log_r);

  CachedSolution parsed;
  parsed.cost_seconds = cost_seconds;
  if (count == kEntryFields &&
      !parse_near_metadata(&fields[14], parsed, error)) {
    return false;
  }
  try {
    Mapping mapping(
        IntervalPartition::from_boundaries(boundaries, boundaries.back() + 1),
        std::move(procs));
    parsed.solution = solver::Solution{std::move(mapping), metrics};
    key = *parsed_key;
    value = std::move(parsed);
  } catch (const std::exception& why) {
    return bad(std::string("invalid mapping: ") + why.what());
  }
  return true;
}

ShardedSolutionCache::ShardedSolutionCache(Config config)
    : shards_(std::max<std::size_t>(1, config.shards)),
      near_shards_(shards_.size()),
      per_shard_capacity_(
          std::max<std::size_t>(1, config.capacity_bytes / shards_.size())),
      near_index_per_instance_(
          std::max<std::size_t>(1, config.near_index_per_instance)) {}

std::optional<CachedSolution> ShardedSolutionCache::lookup(
    const CanonicalHash& key) {
  return find(key, /*count_miss=*/true);
}

std::optional<CachedSolution> ShardedSolutionCache::probe(
    const CanonicalHash& key) {
  return find(key, /*count_miss=*/false);
}

std::optional<CachedSolution> ShardedSolutionCache::find(
    const CanonicalHash& key, bool count_miss) {
  Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

std::optional<CachedSolution> ShardedSolutionCache::peek(
    const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  return it->second->value;
}

std::optional<ShardedSolutionCache::EntrySummary>
ShardedSolutionCache::peek_summary(const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  EntrySummary summary;
  if (it->second->value.solution) {
    summary.feasible = true;
    summary.metrics = it->second->value.solution->metrics;
  }
  return summary;
}

bool ShardedSolutionCache::contains(const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  return shard.index.count(key) > 0;
}

void ShardedSolutionCache::insert(const CanonicalHash& key,
                                  CachedSolution value) {
  const std::size_t bytes = cached_solution_bytes(value);
  // Remembered before `value` is moved into the shard; the index update
  // runs after the shard lock is released (shard locks are leaves: the
  // near-miss lookups hold an index mutex *while* peeking a shard).
  const bool indexable = value.indexable();
  const CanonicalHash instance_key =
      indexable ? *value.instance_key : CanonicalHash{};
  const solver::Bounds bounds = indexable ? *value.bounds : solver::Bounds{};
  {
    Shard& shard = shard_of(key);
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.bytes += bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), bytes});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      ++shard.insertions;
    }
    while (shard.bytes > per_shard_capacity_ && shard.lru.size() > 1) {
      const auto victim = std::prev(shard.lru.end());
      shard.bytes -= victim->bytes;
      shard.index.erase(victim->key);
      shard.lru.erase(victim);
      ++shard.evictions;
    }
  }
  if (!indexable) return;

  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  std::vector<NearEntry>& entries = near.map[instance_key];
  for (const NearEntry& entry : entries) {
    // A request key is a function of (instance, solver, bounds): the
    // same key always records the same bounds, so refreshes are no-ops.
    if (entry.request_key == key) return;
  }
  // Bounded sweep history per instance: oldest recorded bounds go
  // first (a ladder revisits recent neighborhoods, not its start).
  if (entries.size() >= near_index_per_instance_) {
    entries.erase(entries.begin());
  }
  entries.push_back(NearEntry{bounds, key});
}

std::optional<CachedSolution> ShardedSolutionCache::find_dominating(
    const CanonicalHash& instance_key, const solver::Bounds& bounds) {
  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  const auto it = near.map.find(instance_key);
  if (it == near.map.end()) return std::nullopt;
  std::vector<NearEntry>& entries = it->second;
  for (std::size_t i = 0; i < entries.size();) {
    const NearEntry& entry = entries[i];
    const bool dominates =
        entry.bounds.period_bound >= bounds.period_bound &&
        entry.bounds.latency_bound >= bounds.latency_bound;
    if (!dominates) {
      ++i;
      continue;
    }
    // Summary peek, not lookup: a dead candidate must not count a
    // main-cache miss, and rejected candidates must not pay a mapping
    // copy; near hits keep their own counter.
    const auto summary = peek_summary(entry.request_key);
    if (!summary) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;  // evicted under us; forget the reference
    }
    // Infeasible at looser bounds => infeasible here. A feasible
    // solution transfers only when it already satisfies the tighter
    // request (then, for a bounds-monotone engine, it *is* the
    // optimum here too — any qualifying entry gives the same answer).
    if (!summary->feasible ||
        solver::within_bounds(summary->metrics, bounds)) {
      auto value = peek(entry.request_key);
      if (!value) {  // lost a race with eviction between the peeks
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++near.near_hits;
      return value;
    }
    ++i;
  }
  return std::nullopt;
}

std::optional<CachedSolution> ShardedSolutionCache::find_feasible(
    const CanonicalHash& instance_key, const solver::Bounds& bounds) {
  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  const auto it = near.map.find(instance_key);
  if (it == near.map.end()) return std::nullopt;
  std::vector<NearEntry>& entries = it->second;
  std::optional<CanonicalHash> best_key;
  double best_log = 0.0;
  for (std::size_t i = 0; i < entries.size();) {
    // Metrics-only walk; the single winner is copied out at the end.
    const auto summary = peek_summary(entries[i].request_key);
    if (!summary) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    // Any cached solution satisfying the request bounds is a feasible
    // incumbent for it, wherever on the bounds lattice it came from;
    // the most reliable one makes the strongest floor.
    if (summary->feasible &&
        solver::within_bounds(summary->metrics, bounds) &&
        (!best_key || summary->metrics.reliability.log() > best_log)) {
      best_key = entries[i].request_key;
      best_log = summary->metrics.reliability.log();
    }
    ++i;
  }
  if (!best_key) return std::nullopt;
  auto best = peek(*best_key);
  // The winner may have been evicted between the walks; a lost hint is
  // only a lost acceleration.
  if (!best || !best->solution) return std::nullopt;
  return best;
}

void ShardedSolutionCache::drop_misfits(const CanonicalHash& instance_key,
                                        const Instance& instance) {
  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  const auto it = near.map.find(instance_key);
  if (it == near.map.end()) return;
  std::erase_if(it->second, [&](const NearEntry& entry) {
    Shard& shard = shard_of(entry.request_key);
    const std::lock_guard<obs::ProfiledMutex> shard_lock(shard.mutex);
    const auto found = shard.index.find(entry.request_key);
    if (found == shard.index.end()) return true;  // evicted: forget it
    if (found->second->value.fits(instance)) return false;
    shard.bytes -= found->second->bytes;
    shard.lru.erase(found->second);
    shard.index.erase(found);
    return true;
  });
}

void ShardedSolutionCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  for (NearShard& near : near_shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
    near.map.clear();
  }
}

CacheStats ShardedSolutionCache::stats() const {
  CacheStats stats;
  stats.shards = shards_.size();
  stats.capacity_bytes = per_shard_capacity_ * shards_.size();
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  for (const NearShard& near : near_shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
    stats.near_hits += near.near_hits;
    for (const auto& [key, entries] : near.map) {
      stats.near_entries += entries.size();
    }
  }
  return stats;
}

std::vector<CanonicalHash> ShardedSolutionCache::keys() const {
  std::vector<CanonicalHash> keys;
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) keys.push_back(entry.key);
  }
  return keys;
}

void ShardedSolutionCache::save_binary(std::ostream& out) const {
  // Snapshot entries first (per-shard locks are not held across the
  // whole write) and encode each blob once.
  std::vector<std::pair<CanonicalHash, std::string>> blobs;
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) {
      std::string blob = encode_cache_entry(entry.key, entry.value);
      // The loader rejects blobs over kBinaryMaxBlobBytes as corrupt;
      // never write one (a pathological entry is dropped from the
      // snapshot, not allowed to brick it).
      if (blob.size() > kBinaryMaxBlobBytes) continue;
      blobs.emplace_back(entry.key, std::move(blob));
    }
  }

  std::string header;
  header.append(kBinaryMagic, sizeof(kBinaryMagic));
  header.push_back(static_cast<char>(kBinaryVersion));
  header.push_back(0);  // reserved
  put_u64_le(header, blobs.size());

  std::uint64_t offset =
      kBinaryHeaderBytes + blobs.size() * kBinaryIndexEntryBytes;
  for (const auto& [key, blob] : blobs) {
    put_u64_le(header, key.hi);
    put_u64_le(header, key.lo);
    put_u64_le(header, offset);
    put_u32_le(header, static_cast<std::uint32_t>(blob.size()));
    offset += blob.size();
  }
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const auto& [key, blob] : blobs) {
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
}

ShardedSolutionCache::LoadResult ShardedSolutionCache::load_binary(
    std::istream& in,
    const std::function<bool(const CanonicalHash&)>& filter) {
  LoadResult result;
  const auto bad = [&](const std::string& what) {
    result.error = what;
    return result;
  };

  char header[kBinaryHeaderBytes];
  if (!in.read(header, sizeof(header))) return bad("truncated header");
  if (std::memcmp(header, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return bad("bad magic (not a PRTS1 snapshot)");
  }
  const auto version =
      static_cast<std::uint8_t>(header[sizeof(kBinaryMagic)]);
  if (version != kBinaryVersion) {
    return bad("unsupported snapshot version " + std::to_string(version) +
               " (this build reads version " +
               std::to_string(kBinaryVersion) + ")");
  }
  const std::uint64_t count = get_u64_le(
      reinterpret_cast<const unsigned char*>(header) + sizeof(kBinaryMagic) +
      2);

  struct IndexEntry {
    CanonicalHash key;
    std::uint64_t offset;
    std::uint32_t length;
  };
  std::vector<IndexEntry> wanted;
  char raw[kBinaryIndexEntryBytes];
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!in.read(raw, sizeof(raw))) return bad("truncated index");
    const auto* bytes = reinterpret_cast<const unsigned char*>(raw);
    IndexEntry entry;
    entry.key.hi = get_u64_le(bytes);
    entry.key.lo = get_u64_le(bytes + 8);
    entry.offset = get_u64_le(bytes + 16);
    entry.length = get_u32_le(bytes + 24);
    if (entry.length > kBinaryMaxBlobBytes) {
      return bad("oversized entry in index");
    }
    if (filter && !filter(entry.key)) {
      ++result.skipped;
      continue;
    }
    wanted.push_back(entry);
  }

  std::string blob;
  for (const IndexEntry& entry : wanted) {
    in.clear();
    if (!in.seekg(static_cast<std::streamoff>(entry.offset))) {
      return bad("seek failed (stream not seekable?)");
    }
    blob.resize(entry.length);
    if (!in.read(blob.data(), static_cast<std::streamsize>(entry.length))) {
      return bad("truncated entry blob");
    }
    CanonicalHash key;
    CachedSolution value;
    std::string why;
    if (!parse_cache_entry(blob, key, value, why)) {
      result.error = "entry " + to_hex(entry.key) + ": " + why;
      return result;
    }
    if (key != entry.key) {
      return bad("index/blob key mismatch for " + to_hex(entry.key));
    }
    insert(key, std::move(value));
    ++result.loaded;
  }
  return result;
}

void ShardedSolutionCache::write_stats_json(std::ostream& out,
                                            const CacheStats& stats) {
  out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"hit_rate\":" << canonical_number(stats.hit_rate())
      << ",\"insertions\":" << stats.insertions
      << ",\"evictions\":" << stats.evictions
      << ",\"near_hits\":" << stats.near_hits
      << ",\"entries\":" << stats.entries
      << ",\"near_entries\":" << stats.near_entries
      << ",\"bytes\":" << stats.bytes
      << ",\"capacity_bytes\":" << stats.capacity_bytes
      << ",\"shards\":" << stats.shards << "}";
}

void ShardedSolutionCache::attach_mutex_probe(
    const obs::ProfiledMutex::Probe* probe) noexcept {
  for (Shard& shard : shards_) shard.mutex.attach(probe);
  for (NearShard& near : near_shards_) near.mutex.attach(probe);
}

}  // namespace prts::service
