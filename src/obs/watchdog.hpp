// Stall watchdog (src/obs/): a per-component heartbeat registry plus a
// monitor thread that flags components whose heartbeat age exceeds a
// threshold — the liveness half of the observability story. Latency
// histograms say how slow served requests were; the watchdog says when
// a component stopped serving at all (a batch runner wedged on a lock,
// a gossip thread that died, a frame handler stuck on a dead peer).
//
// Two component shapes, because "no heartbeat" only means "stuck" when
// a beat was due:
//   - on-demand components (expected_interval == 0) beat while doing
//     work and carry a *load* count (outstanding work items). They are
//     flagged only while load > 0 and the last beat is older than the
//     stall threshold: an idle engine is silent AND innocent, a busy
//     engine that stopped beating is wedged.
//   - periodic components (expected_interval > 0, e.g. a gossip timer)
//     are expected to beat every interval regardless of load; they are
//     flagged when the age exceeds max(periodic_factor * interval,
//     stall threshold).
//
// beat()/add_load() are single relaxed atomic stores — safe and cheap
// on any hot path. The monitor thread (or an on-demand check()) scans
// the registry, records results in the metrics registry
// (watchdog_stalls_total, watchdog_stalled_components) and remembers
// which components are currently stalled so one stall episode counts
// once, not once per poll.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace prts::obs {

/// One component's liveness handle. Stable address for the watchdog's
/// lifetime; all methods are lock-free.
class Heartbeat {
 public:
  /// Progress happened now. Also remembers the largest inter-beat gap
  /// since the watchdog last looked: a periodic component that froze
  /// and recovered *between* two monitor polls still shows up as a
  /// missed-beat episode instead of racing the poll (see check()).
  void beat() noexcept {
    const std::int64_t now = now_ns();
    const std::int64_t previous =
        last_beat_ns_.exchange(now, std::memory_order_relaxed);
    if (previous == 0) return;  // registration beat: no gap yet
    const std::int64_t gap = now - previous;
    std::int64_t seen = max_gap_ns_.load(std::memory_order_relaxed);
    while (gap > seen && !max_gap_ns_.compare_exchange_weak(
                             seen, gap, std::memory_order_relaxed)) {
    }
  }

  /// Outstanding work items (on-demand components are only expected to
  /// beat while load > 0). Negative deltas floor at zero defensively.
  void add_load(std::int64_t delta) noexcept {
    load_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set_load(std::int64_t load) noexcept {
    load_.store(load, std::memory_order_relaxed);
  }

  std::int64_t load() const noexcept {
    return load_.load(std::memory_order_relaxed);
  }

  const std::string& name() const noexcept { return name_; }

  /// Seconds since the last beat (registration counts as a beat).
  double age_seconds() const noexcept {
    return static_cast<double>(now_ns() -
                               last_beat_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

 private:
  friend class Watchdog;

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::string name_;
  double expected_interval_seconds_ = 0.0;  ///< > 0: periodic
  std::atomic<std::int64_t> last_beat_ns_{0};
  /// Largest inter-beat gap since the last check(); read-and-reset by
  /// the watchdog.
  std::atomic<std::int64_t> max_gap_ns_{0};
  std::atomic<std::int64_t> load_{0};
};

struct WatchdogConfig {
  /// On-demand components stall when busy and silent this long.
  double stall_threshold_seconds = 2.0;
  /// Periodic components stall at max(factor * expected_interval,
  /// stall_threshold_seconds).
  double periodic_factor = 4.0;
  /// Monitor thread poll period.
  double poll_interval_seconds = 0.25;
};

/// One currently-stalled component, as seen by a check.
struct Stall {
  std::string component;
  double age_seconds = 0.0;
  std::int64_t load = 0;
};

class Watchdog {
 public:
  /// `metrics` (must outlive the watchdog) holds the stall count
  /// (watchdog_stalls_total) and the watchdog_stalled_components /
  /// watchdog_components gauges.
  explicit Watchdog(Registry& metrics);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers (or looks up) a component by name. Re-registration
  /// returns the existing heartbeat refreshed — a revived server reuses
  /// its slot instead of leaking a stale one. The returned reference is
  /// stable for the watchdog's lifetime.
  Heartbeat& component(const std::string& name,
                       double expected_interval_seconds = 0.0);

  /// Scans every component against `config()` thresholds, updates the
  /// stall bookkeeping (a component entering the stalled state bumps
  /// stalls_total exactly once until it recovers) and returns the
  /// currently stalled set. Called by the monitor thread every poll,
  /// and usable directly for deterministic tests / stats rendering.
  std::vector<Stall> check();

  /// Starts the monitor thread (idempotent; reconfigures thresholds).
  void start(WatchdogConfig config);
  /// Stops the monitor thread; check() keeps working.
  void stop();

  /// Total stall *episodes* observed (a component counts again only
  /// after recovering): watchdog_stalls_total, read relaxed.
  std::uint64_t stalls_total() const;

  WatchdogConfig config() const;

  /// '{"stalls_total":N,"components":N,"stalled":[{"component":..,
  ///   "age_seconds":..,"load":..},...]}' — runs a check() so the
  /// verdict is current.
  void write_json(std::ostream& out);

 private:
  Counter& stalls_counter_;  ///< the stall count's only store
  Gauge& stalled_gauge_;
  Gauge& components_gauge_;

  mutable std::mutex mutex_;
  WatchdogConfig config_;
  /// unique_ptr slots: Heartbeat addresses stay stable across growth.
  std::vector<std::unique_ptr<Heartbeat>> components_;
  std::vector<bool> stalled_;  ///< parallel to components_

  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  std::thread monitor_;
};

}  // namespace prts::obs
