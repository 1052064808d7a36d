// The solve service's solution cache (second layer of src/service/): an
// N-shard LRU keyed by 128-bit canonical request hashes. The same class
// is the fabric's replica tier (service/router.hpp): an entry never
// changes under its key, so a peer's answer is cached exactly like an
// owned one.
//
// Sharding: a key lives in shard hi % shards, each shard owning its own
// mutex, map and LRU list, so concurrent lookups from the request
// engine's workers contend only when they land in one shard. Capacity
// is byte-bounded (estimated entry footprint), split evenly across
// shards; eviction is per-shard least-recently-used.
//
// Entries store solutions in *canonical* processor space (see
// service/canonical.hpp) — the engine translates to request labels on
// the way out — and negative results ("these bounds are infeasible for
// this solver") are cached too, so repeated infeasible probes of a
// design-space exploration stay cheap.
//
// Persistence is one format, the "PRTS1" snapshot of
// save_binary/load_binary: an index header mapping hash -> (offset,
// length) followed by the entries as blobs of the entry codec below
// (every double in canonical_number shortest round-trip form, so a
// reloaded cache replays bit-identical solutions). The index lets a
// fabric node selectively load just the keys of its own shard (seek
// per index entry, O(1) per key, nothing else is read or parsed). The
// snapshot's version byte is 3, the version whose request keys carry
// their batch key's hi (service/canonical.hpp); load_binary refuses any
// other, so a version 1 or 2 file, keyed by older rules, fails a warm
// start loudly instead of loading keys no request computes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/profiler.hpp"
#include "service/canonical.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// A cached answer: the canonical-space solution, or nullopt for a
/// cached "no feasible mapping under these bounds", plus the wall-clock
/// cost of the solve that produced it (0 when unknown; carried on the
/// wire and in snapshots, but nothing evicts by it).
///
/// `instance_key` + `bounds` are the near-miss index metadata: the
/// bounds-erased (canonical instance, solver) batch key this entry's
/// request hashed under, and the bounds it was solved for. Entries
/// carrying both feed the bounds-monotone secondary index (see
/// find_dominating below); entries without them — wire replies,
/// replicas (the router drops a pushed entry's metadata) — stay plain
/// exact-key entries.
struct CachedSolution {
  CachedSolution() = default;
  // Not an aggregate: the trailing members default without tripping
  // -Wmissing-field-initializers at the many shorter call sites.
  explicit CachedSolution(std::optional<solver::Solution> solution,
                          double cost_seconds = 0.0,
                          std::optional<CanonicalHash> instance_key = {},
                          std::optional<solver::Bounds> bounds = {})
      : solution(std::move(solution)),
        cost_seconds(cost_seconds),
        instance_key(instance_key),
        bounds(bounds) {}

  std::optional<solver::Solution> solution;
  double cost_seconds = 0.0;
  std::optional<CanonicalHash> instance_key;
  std::optional<solver::Bounds> bounds;

  bool indexable() const noexcept {
    return instance_key.has_value() && bounds.has_value();
  }

  /// An infeasible answer fits any instance; a solution fits when
  /// fits_instance holds for its mapping.
  bool fits(const Instance& instance) const noexcept {
    return !solution || fits_instance(solution->mapping, instance);
  }
};

/// Aggregated counters (summed over shards; a snapshot, not a fence).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t near_hits = 0;  ///< answers served via find_dominating
  std::size_t entries = 0;
  std::size_t near_entries = 0;  ///< live bounds-index entries
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
  std::size_t shards = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Estimated in-memory footprint of one entry (key + metrics + mapping
/// vectors); the unit the byte bound is accounted in.
std::size_t cached_solution_bytes(const CachedSolution& value) noexcept;

/// One entry as a tab-separated line (no trailing newline):
///   <hash-hex> <feasible> <boundaries,> <procs;,> [<9 metric fields>]
///   <cost> [<instance-hash-hex> <period-bound> <latency-bound>]
/// The trailing near-miss metadata triple is emitted only when the
/// entry carries it. The codec shared by the PRTS1 blobs and the
/// payloads of service/wire.hpp.
std::string encode_cache_entry(const CanonicalHash& key,
                               const CachedSolution& value);

/// Appends encode_cache_entry(key, value) to `out`.
void append_cache_entry(std::string& out, const CanonicalHash& key,
                        const CachedSolution& value);

/// Parses encode_cache_entry output; lines without the near-miss
/// metadata load unindexed. False with a reason on any other shape:
/// an empty field, or a stray tab or comma, is malformed, never
/// dropped.
bool parse_cache_entry(std::string_view line, CanonicalHash& key,
                       CachedSolution& value, std::string& error);

class ShardedSolutionCache {
 public:
  struct Config {
    std::size_t shards = 16;                        ///< clamped to >= 1
    std::size_t capacity_bytes = 64 * 1024 * 1024;  ///< across all shards
    /// Bounds-index entries kept per (instance, solver) batch key; a
    /// long bound sweep over one instance must not grow the index
    /// without limit (oldest recorded bounds are dropped first).
    std::size_t near_index_per_instance = 256;
  };

  ShardedSolutionCache() : ShardedSolutionCache(Config()) {}
  explicit ShardedSolutionCache(Config config);

  /// The entry under `key` (refreshing its LRU position), or nullopt.
  std::optional<CachedSolution> lookup(const CanonicalHash& key);

  /// lookup() that counts a hit but not a miss: a probe whose miss the
  /// caller follows with lookup() (the owner's by-key path, then the
  /// full submit) must not count the request's miss twice.
  std::optional<CachedSolution> probe(const CanonicalHash& key);

  /// lookup() without side effects: no LRU refresh, no hit/miss
  /// counting. Serves the entries a rank ships to its peers, which must
  /// not distort the owner's recency order or hit-rate statistics.
  std::optional<CachedSolution> peek(const CanonicalHash& key) const;

  /// Feasibility + metrics of an entry without copying its mapping —
  /// the near-miss index walks filter on metrics alone and must not pay
  /// a full solution copy per rejected candidate.
  struct EntrySummary {
    bool feasible = false;
    MappingMetrics metrics;  ///< meaningful only when feasible
  };
  std::optional<EntrySummary> peek_summary(const CanonicalHash& key) const;

  /// peek() without the entry copy.
  bool contains(const CanonicalHash& key) const;

  /// Inserts or refreshes `key`; evicts the shard's least recently used
  /// entries while it is over its byte budget (never the entry just
  /// inserted — a single oversized entry is kept and evicted by the next
  /// insertion).
  /// Entries carrying near-miss metadata (see CachedSolution) are also
  /// recorded in the bounds-monotone secondary index.
  void insert(const CanonicalHash& key, CachedSolution value);

  /// The bounds-monotone near-miss lookup: an entry of `instance_key`
  /// (= batch_key: canonical instance + solver, bounds erased) cached
  /// for bounds at least as loose as `bounds` in both dimensions, whose
  /// answer transfers to `bounds` — a feasible solution that already
  /// satisfies the tighter request (for a bounds-monotone engine it IS
  /// the tighter request's answer, bit-identically), or a cached
  /// infeasibility (looser-infeasible implies tighter-infeasible).
  /// Callers must gate this on Solver::bounds_monotone. Entries whose
  /// main-cache record was evicted are dropped from the index lazily.
  std::optional<CachedSolution> find_dominating(
      const CanonicalHash& instance_key, const solver::Bounds& bounds);

  /// The warm-start lookup: among every cached entry of `instance_key`
  /// (any bounds) whose solution satisfies `bounds`, the most reliable
  /// one — a feasible incumbent plus reliability-floor certificate for
  /// the request, valid for *any* engine because a warm start never
  /// changes an answer. nullopt when no cached solution fits.
  std::optional<CachedSolution> find_feasible(
      const CanonicalHash& instance_key, const solver::Bounds& bounds);

  /// Drops every entry of `instance_key`'s bounds index, and its
  /// main-cache record, whose solution does not fit `instance` (an entry
  /// handed off or loaded from a snapshot arrives without its instance).
  /// Both lookups above return one entry, so a misfit would otherwise
  /// hide every entry behind it; the engine calls this when it reads
  /// one, then looks again.
  void drop_misfits(const CanonicalHash& instance_key,
                    const Instance& instance);

  /// Drops every entry (counters are kept).
  void clear();

  CacheStats stats() const;

  /// Snapshot of every resident key, shard iteration order (one shard
  /// locked at a time — concurrent insertions may or may not appear).
  /// The membership handoff scans this to find the slice a new owner
  /// takes, then streams the entries via peek().
  std::vector<CanonicalHash> keys() const;

  struct LoadResult {
    std::size_t loaded = 0;   ///< entries inserted
    std::size_t skipped = 0;  ///< entries rejected by the filter
    std::string error;        ///< first malformed input, empty when clean
  };

  /// Writes the compact binary snapshot:
  ///   "PRTS1\n" u8 version (3) u8 reserved u64le count
  ///   count * { u64le hi, u64le lo, u64le offset, u32le length }
  ///   blobs (encode_cache_entry lines, no newline)
  void save_binary(std::ostream& out) const;

  /// Loads a save_binary snapshot; any version byte but 3 is refused
  /// with "unsupported snapshot version <v> ...". When `filter` is set
  /// only keys it accepts are read — the index is scanned, everything
  /// else is skipped without touching its bytes (selective shard load).
  /// The stream must be seekable.
  LoadResult load_binary(
      std::istream& in,
      const std::function<bool(const CanonicalHash&)>& filter = {});

  /// Writes the stats snapshot as one JSON object.
  static void write_stats_json(std::ostream& out, const CacheStats& stats);

  /// Attaches one shared contention probe to every shard mutex (main
  /// and near-index alike): per-shard contention aggregates into a
  /// single "cache_shard" family instead of 2N histogram families. The
  /// probe must outlive the cache; nullptr detaches.
  void attach_mutex_probe(const obs::ProfiledMutex::Probe* probe) noexcept;

 private:
  struct Entry {
    CanonicalHash key;
    CachedSolution value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable obs::ProfiledMutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<CanonicalHash, std::list<Entry>::iterator, CanonicalKeyHasher>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// One recorded (bounds, request key) pair of an instance's sweep
  /// history. The solution itself stays in the main cache — the index
  /// only remembers where to peek, so eviction needs no cross-shard
  /// coordination (dead references are dropped lazily on lookup).
  struct NearEntry {
    solver::Bounds bounds;
    CanonicalHash request_key;
  };

  /// Secondary index sharded by *instance* key (request keys of one
  /// instance scatter across the main shards, so the index cannot ride
  /// them). Lock order: an index mutex may be held while peeking a main
  /// shard, never the reverse.
  struct NearShard {
    mutable obs::ProfiledMutex mutex;
    std::unordered_map<CanonicalHash, std::vector<NearEntry>,
                       CanonicalKeyHasher>
        map;
    std::uint64_t near_hits = 0;
  };

  /// The high half of lo: a request key's hi is its batch's (one
  /// ladder would pile into one shard), and the index buckets read lo's
  /// low bits.
  Shard& shard_of(const CanonicalHash& key) noexcept {
    return shards_[(key.lo >> 32) % shards_.size()];
  }
  const Shard& shard_of(const CanonicalHash& key) const noexcept {
    return shards_[(key.lo >> 32) % shards_.size()];
  }
  NearShard& near_shard_of(const CanonicalHash& instance_key) noexcept {
    return near_shards_[instance_key.hi % near_shards_.size()];
  }

  /// lookup() and probe(): a hit refreshes the LRU and counts; a miss
  /// counts only when asked to.
  std::optional<CachedSolution> find(const CanonicalHash& key,
                                     bool count_miss);

  std::vector<Shard> shards_;  // sized once in the ctor, never resized
  std::vector<NearShard> near_shards_;  // ditto
  std::size_t per_shard_capacity_;
  std::size_t near_index_per_instance_;
};

}  // namespace prts::service
