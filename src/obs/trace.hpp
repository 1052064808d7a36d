// Cross-rank request tracing (top of src/obs/): a solve gets a 64-bit
// trace id at submission, every hop it takes (enqueue, batch wait,
// solver run, cache/near-miss/replica lookup, wire round trip) records
// a named span under that id, and the id rides the frame protocol so a
// solve forwarded to a remote shard yields ONE trace whose spans name
// both ranks. Traces live in a bounded in-memory ring of preallocated
// slots (newest win); traces slower than a threshold are copied to a
// separate slow ring and optionally logged the moment they finish.
//
// Span times are seconds relative to the trace's submission on the
// recording rank — wall-clock offsets, not synchronized clocks. When
// the origin rank merges spans shipped back from a remote rank it
// shifts them by the wire span's start, which places them correctly
// modulo one-way network delay; that is exactly the fidelity a latency
// investigation needs and all an unsynchronized cluster can offer.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

namespace prts::obs {

/// One named hop of a trace. `rank` is the fabric rank that recorded
/// it; `start_seconds` is the offset from the trace's submit time on
/// that rank.
struct Span {
  std::string name;
  int rank = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// Profiler attribution (src/obs/profiler.hpp): thread-CPU seconds
  /// spent inside the span (so duration - cpu = time the recording
  /// thread was blocked; zero on a per-request fast-path span the 1-in-N
  /// sampler skipped) and the span's allocation bill.
  double cpu_seconds = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;

  /// Time the recording thread spent off-CPU inside the span.
  double blocked_seconds() const noexcept {
    return duration_seconds > cpu_seconds ? duration_seconds - cpu_seconds
                                          : 0.0;
  }
};

/// A completed or in-flight request trace.
struct Trace {
  std::uint64_t id = 0;
  std::string label;  ///< e.g. the canonical instance key
  std::vector<Span> spans;
  double total_seconds = 0.0;
  bool finished = false;
  bool slow_logged = false;  ///< slow handling already triggered once
};

struct TracerConfig {
  std::size_t capacity = 256;       ///< recent-trace ring size
  std::size_t slow_capacity = 64;   ///< slow-trace ring size
  /// Traces with total >= threshold go to the slow ring (and the slow
  /// log, if set). Default: nothing is slow.
  double slow_threshold_seconds = std::numeric_limits<double>::infinity();
  std::ostream* slow_log = nullptr;  ///< one line per slow trace
};

/// Bounded ring of recent traces. All methods are thread-safe, and no
/// lock is shared by every trace: the ring is `capacity` preallocated
/// slots, each with its own mutex and one reused Trace whose label and
/// span buffers keep their capacity. A trace id names its slot
/// (id % capacity), so record, finish and find lock that slot alone;
/// a slot holding another id means the trace was evicted.
class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  /// Mint a process-unique, cross-rank-unlikely-to-collide trace id
  /// and open a trace for it in the next slot, evicting the oldest.
  std::uint64_t start(std::string_view label);

  /// Open (or re-open) a trace under an externally minted id — the
  /// remote side of a forwarded solve uses the id carried on the wire.
  /// Re-opening keeps the trace's spans; a new id takes slot
  /// id % capacity, evicting whatever trace was there.
  void start_with_id(std::uint64_t id, std::string_view label);

  /// Append a span to the trace. Unknown ids are ignored (the trace
  /// may have been evicted from the ring).
  void record(std::uint64_t id, Span span);
  void record(std::uint64_t id, const std::string& name, int rank,
              double start_seconds, double duration_seconds);

  /// Mark the trace finished with the given total. Upsert-merge:
  /// finishing an already-finished trace updates the total (the router
  /// amends an engine-finished trace after failover). Crossing the
  /// slow threshold copies the trace to the slow ring and writes one
  /// line to the slow log — at most once per trace, and outside every
  /// slot lock.
  void finish(std::uint64_t id, double total_seconds);

  /// Copy out a trace by id. Returns false if unknown/evicted.
  bool find(std::uint64_t id, Trace& out) const;

  /// Newest-first copies of up to `limit` recent traces.
  std::vector<Trace> recent(std::size_t limit = 32) const;

  /// Newest-first copies of up to `limit` slow traces.
  std::vector<Trace> slow(std::size_t limit = 32) const;

  std::uint64_t slow_count() const;

  double slow_threshold_seconds() const { return config_.slow_threshold_seconds; }

 private:
  /// One ring position. Cache-line aligned so two threads tracing
  /// neighbouring slots do not share a line.
  struct alignas(64) Slot {
    mutable std::mutex mutex;
    Trace trace;              ///< trace.id == 0: never used
    std::uint64_t stamp = 0;  ///< creation order: larger is newer
  };

  Slot& slot_of(std::uint64_t id) const noexcept {
    return slots_[id % config_.capacity];
  }
  /// Re-initializes `slot` (locked by the caller) for a new trace,
  /// reusing its buffers.
  static void open_locked(Slot& slot, std::uint64_t id, std::uint64_t stamp,
                          std::string_view label);
  void mark_slow(Trace trace);

  TracerConfig config_;
  std::unique_ptr<Slot[]> slots_;
  /// Stamps issued so far; a minted id's slot is stamp % capacity.
  std::atomic<std::uint64_t> sequence_{0};
  std::uint64_t salt_ = 0;

  /// Guards the slow ring, its count and the slow log.
  mutable std::mutex slow_mutex_;
  std::deque<Trace> slow_ring_;  ///< oldest at front
  std::uint64_t slow_count_ = 0;
};

/// Trace ids travel and display as fixed-width lowercase hex.
std::string id_to_hex(std::uint64_t id);
/// Returns 0 on malformed input (0 is never a minted id).
std::uint64_t id_from_hex(std::string_view text);

/// Everything a fabric layer needs to observe itself. One per rank,
/// plumbed through configs as a raw pointer; a SolveService given none
/// owns one and a router given none uses its service's, so telemetry
/// is always on.
struct Telemetry {
  int rank = 0;
  Registry metrics;
  Tracer tracer;
  /// Per-component heartbeats + stall detection, mirrored into
  /// `metrics`. Inert (no thread) until watchdog.start().
  Watchdog watchdog{&metrics};
  /// Dual-clock + allocation + contention attribution, accumulated
  /// into `metrics` as profile_*/mutex_* families. Always on; per-request
  /// fast paths take their clock samples 1-in-N (should_sample()).
  Profiler profiler{metrics};
  /// Alert rules over flight-recorder tick windows, mirrored into
  /// `metrics` (alerts_firing + per-rule families). Evaluated on every
  /// recorder tick via the observer hooked up below.
  AlertEngine alerts{&metrics};
  /// Bounded ring of per-tick metric deltas (the `timeseries` protocol
  /// command). Inert until recorder.start() or a manual tick_now().
  /// Declared after `alerts`: the tick thread calls into the alert
  /// engine, so the recorder must be destroyed first.
  FlightRecorder recorder{&metrics};

  Telemetry() { init(); }
  explicit Telemetry(TracerConfig tracer_config) : tracer(tracer_config) {
    init();
  }

 private:
  /// Shared constructor tail: stamps process_start_time_seconds (the
  /// restart discriminator scrape --watch keys on) and routes recorder
  /// ticks into the alert engine.
  void init();
};

}  // namespace prts::obs
