// Flight recorder (src/obs/): a bounded ring of periodic Registry
// snapshots, so a running rank's last N seconds of behavior are always
// reconstructable — the question "what was happening right before the
// latency spike" is answered from memory already on the rank, not from
// an external scrape pipeline that happened to be running.
//
// Every tick the recorder takes one non-destructive Registry::snapshot
// and stores the *delta* against the previous tick: counter increments,
// current gauge values, and per-window histogram quantiles (computed
// from the bucket-count difference, so a tick's p99 describes that
// tick's traffic, not the process lifetime). Nothing in the registry is
// reset — prometheus scrapes and the recorder coexist.
//
// Exposed via the line protocol's `timeseries [n]` command and driven
// either by the built-in tick thread (start/stop) or manually
// (tick_now) for deterministic tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <condition_variable>
#include <vector>

#include "obs/metrics.hpp"

namespace prts::obs {

struct FlightRecorderConfig {
  double interval_seconds = 1.0;  ///< tick thread period
  std::size_t capacity = 120;     ///< ring size (ticks kept)
};

class FlightRecorder {
 public:
  /// One per-tick window. Counters and histograms are deltas over the
  /// tick; gauges are the value at tick time. Zero-delta counters and
  /// empty histogram windows are dropped — a tick names what moved.
  struct Tick {
    std::uint64_t seq = 0;           ///< 0-based tick number (never wraps)
    double uptime_seconds = 0.0;     ///< since recorder construction
    double interval_seconds = 0.0;   ///< actual time since previous tick
    std::map<std::string, std::uint64_t> counter_deltas;
    std::map<std::string, double> gauges;
    struct HistogramWindow {
      std::uint64_t count = 0;
      double mean = 0.0;
      double p50 = 0.0;
      double p90 = 0.0;
      double p99 = 0.0;
      double p999 = 0.0;
    };
    std::map<std::string, HistogramWindow> histograms;
  };

  /// `registry` must outlive the recorder. Inert until start() or the
  /// first tick_now().
  explicit FlightRecorder(Registry& registry);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void configure(FlightRecorderConfig config);
  FlightRecorderConfig config() const;

  /// Starts the tick thread (idempotent: restarts with the current
  /// config).
  void start();
  void stop();
  bool running() const;

  /// Takes one tick immediately (also what the tick thread calls).
  void tick_now();

  /// Called with a copy of every completed tick, outside the recorder's
  /// lock (the observer may touch the registry). One observer; set
  /// before start() — the alert engine hook in obs::Telemetry.
  void set_observer(std::function<void(const Tick&)> observer);

  /// Oldest-first copies of the most recent `limit` ticks (the whole
  /// ring when limit == 0 or exceeds it).
  std::vector<Tick> recent(std::size_t limit = 0) const;

  /// Ticks taken over the recorder's lifetime (>= ring size).
  std::uint64_t total_ticks() const;

 private:
  Registry& registry_;
  const std::chrono::steady_clock::time_point started_at_;

  mutable std::mutex mutex_;
  FlightRecorderConfig config_;
  std::function<void(const Tick&)> observer_;
  RegistrySnapshot previous_;      ///< cumulative baseline of last tick
  double previous_uptime_ = 0.0;
  std::deque<Tick> ring_;          ///< oldest at front
  std::uint64_t total_ticks_ = 0;

  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;
};

}  // namespace prts::obs
