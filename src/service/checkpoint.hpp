// Live background checkpointing of a serving rank: a timer thread (or
// an explicit checkpoint_now() — the `checkpoint` protocol verb)
// snapshots the solution cache to a PRTS1 binary file while requests
// keep flowing. The snapshot locks one cache shard at a time (the
// save_binary discipline), so a checkpoint never stops the world; it is
// written to `path + ".tmp"` and atomically renamed over `path`, so a
// crash mid-write leaves the previous complete checkpoint intact and a
// restarted rank always warm-starts from a self-consistent file.
//
// Combined with `--warm-start` and the membership layer, this
// is the crash-recovery loop: SIGKILL a rank, restart it pointing at
// its checkpoint, and it rejoins the fleet with its slices already
// populated (cache_entries > 0 before the first request arrives).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "service/cache.hpp"

namespace prts::service {

class Checkpointer {
 public:
  struct Config {
    /// Destination file (the PRTS1 snapshot readable by --warm-start
    /// and load_binary). Must be on the same filesystem as its ".tmp"
    /// sibling for the rename to be atomic — it is, by construction.
    std::string path;
    /// Seconds between background snapshots; <= 0 disables the timer
    /// (checkpoint_now() still works — manual / shutdown checkpoints).
    double interval_seconds = 0.0;
    /// The registry the checkpoint_total / checkpoint_failures_total
    /// counters and the checkpoint_seconds histogram live in; must
    /// outlive the checkpointer. nullptr: a registry of its own.
    obs::Telemetry* telemetry = nullptr;
  };

  /// The two counters read from the registry, the last_* values from
  /// the checkpointer's lock.
  struct Stats {
    std::uint64_t checkpoints = 0;  ///< successful snapshots
    std::uint64_t failures = 0;     ///< write or rename errors
    std::size_t last_entries = 0;   ///< entries in the last snapshot
    std::size_t last_bytes = 0;     ///< bytes of the last snapshot file
    double last_seconds = 0.0;      ///< wall time of the last snapshot
  };

  /// The cache must outlive the checkpointer. Starts the timer thread
  /// iff interval_seconds > 0.
  Checkpointer(const ShardedSolutionCache& cache, Config config);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// One synchronous snapshot; false (with `error` filled when given)
  /// on IO failure. Safe to call concurrently with the timer — writes
  /// are serialized, the atomic rename makes the last writer win.
  bool checkpoint_now(std::string* error = nullptr);

  const std::string& path() const noexcept { return config_.path; }
  Stats stats() const;

 private:
  void timer_loop();

  const ShardedSolutionCache& cache_;
  const Config config_;

  /// Serializes snapshot writes (timer vs manual vs shutdown).
  std::mutex write_mutex_;

  /// Used when config.telemetry is null.
  obs::Registry own_metrics_;
  obs::Registry& metrics_;  ///< config.telemetry's registry, or own_metrics_
  obs::Counter& checkpoints_counter_;
  obs::Counter& failures_counter_;
  obs::Histogram& duration_hist_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// The last successful snapshot's shape (Stats::last_*).
  std::size_t last_entries_ = 0;
  std::size_t last_bytes_ = 0;
  double last_seconds_ = 0.0;

  std::thread timer_;  ///< joinable iff the interval timer is on
};

}  // namespace prts::service
