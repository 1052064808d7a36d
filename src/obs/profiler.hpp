// Continuous in-process profiler (src/obs/): the attribution layer the
// hot-path rebuild needs — not "p99 got worse" but *where the time and
// memory went*. Three probes, all dependency-free and cheap enough to
// leave on in production:
//
//   1. Dual-clock work samples: a ScopedSample reads the steady wall
//      clock AND the calling thread's CPU clock
//      (CLOCK_THREAD_CPUTIME_ID). wall - cpu = time the thread spent
//      blocked (lock waits, socket reads, scheduler delay) inside the
//      span — the quantity that distinguishes "the solver is slow"
//      from "the solver is waiting".
//   2. Thread-local allocation accounting: global operator new/delete
//      replacements (profiler.cpp) tally every allocation into
//      thread-local counters; an AllocScope reads the delta across a
//      region. This yields allocations-per-request and per-span byte
//      counts — the baseline number the zero-allocation rebuild must
//      drive to zero.
//   3. ProfiledMutex: a std::mutex drop-in that counts acquisitions,
//      counts contended acquisitions, and records contended wait time
//      into a registry histogram. Attached to the engine batch-queue
//      mutex, the cache shard mutexes and the router in-flight map, it
//      answers "which lock is the fabric actually fighting over".
//
// Samples are aggregated per *component* (a span name: solver_run,
// wire_round_trip, submit_path, ...) into plain registry counters
// (profile_<component>_{samples,wall_us,cpu_us,allocs,alloc_bytes}_total)
// so they ride every existing surface for free: prometheus scrapes,
// flight-recorder ticks, stats frames. The Profiler object is just the
// handle cache plus the JSON/stats renderer over those counters.
//
// The profiler has no off switch. What it costs is bounded by
// sampling, not by a flag, and bench/profile_overhead.cpp times the
// sampled clock reads on a warm hit (tools/ci.sh gates them at 5%).
//
// Cost model: the allocation tally is two relaxed TLS loads (~free),
// but CLOCK_THREAD_CPUTIME_ID is a real syscall (~200ns on this class
// of kernel — it is not in the vDSO), and a warm cache hit is only a
// few microseconds end to end. Paying two CPU-clock reads per sample
// on *every* request would alone blow the <5% overhead budget. So the
// per-request fast path (submit_path, cache_lookup, near_miss_lookup,
// canonicalize) takes dual-clock samples *statistically* — 1 in
// sample_period() requests, decided by should_sample() — while the
// allocation counters (engine_request_allocs_total and friends) stay
// exact and always-on. Amortized sites that run once per batch or per
// network round trip (solver_run, wire_round_trip, frame_handler)
// sample every occurrence: their work dwarfs the clock reads.
// Consequence: fast-path components report samples ≈ requests/period;
// their wall/cpu/alloc totals are unbiased estimates scaled down by
// the period, not exhaustive sums.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace prts::obs {

// ------------------------------------------------ allocation accounting

/// This thread's allocation tally (monotonic since thread start).
/// Maintained by the global operator new replacements in profiler.cpp;
/// reading it is two relaxed TLS loads.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

AllocCounts thread_alloc_counts() noexcept;

/// Scoped delta of the calling thread's allocation tally. Only
/// meaningful for work that stays on one thread — which is exactly how
/// the engine uses it (submit path on the caller thread, solve spans on
/// the batch worker).
class AllocScope {
 public:
  AllocScope() noexcept : start_(thread_alloc_counts()) {}

  AllocCounts delta() const noexcept {
    const AllocCounts now = thread_alloc_counts();
    return AllocCounts{now.count - start_.count, now.bytes - start_.bytes};
  }

 private:
  AllocCounts start_;
};

// ----------------------------------------------------- dual-clock timer

/// CPU time consumed by the calling thread, in seconds
/// (CLOCK_THREAD_CPUTIME_ID; falls back to 0.0 where unsupported).
double thread_cpu_seconds() noexcept;

/// One measured region: wall, thread-CPU and allocation deltas.
struct WorkSample {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;

  /// Time the thread was not on-CPU inside the region (floored at zero:
  /// clock granularity can make cpu read a hair above wall on very
  /// short regions).
  double blocked_seconds() const noexcept {
    return wall_seconds > cpu_seconds ? wall_seconds - cpu_seconds : 0.0;
  }
};

/// Starts all three probes at construction; finish() returns the
/// deltas. Plain value type — copy it into lambdas, keep it across
/// scopes, finish() as many times as useful.
class ScopedSample {
 public:
  ScopedSample() noexcept
      : wall_start_(std::chrono::steady_clock::now()),
        cpu_start_(thread_cpu_seconds()),
        alloc_start_() {}

  WorkSample finish() const noexcept {
    WorkSample sample;
    sample.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start_)
                              .count();
    const double cpu = thread_cpu_seconds() - cpu_start_;
    sample.cpu_seconds = cpu < 0.0 ? 0.0 : cpu;
    const AllocCounts allocs = alloc_start_.delta();
    sample.alloc_count = allocs.count;
    sample.alloc_bytes = allocs.bytes;
    return sample;
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_;
  AllocScope alloc_start_;
};

// ------------------------------------------------ per-component rollup

/// Accumulates WorkSamples per component into registry counters and
/// renders the rollup. Component handles are resolved once (registration
/// locks the registry) and recording afterward is relaxed atomics only.
class Profiler {
 public:
  /// `registry` must outlive the profiler.
  explicit Profiler(Registry& registry);

  /// Statistical gate for per-request fast-path dual-clock samples:
  /// true for 1 in sample_period() calls on this thread (every call
  /// when the period is <= 1). The counter is thread-local, so
  /// concurrent clients each sample at the configured stride without
  /// sharing a cache line.
  bool should_sample() noexcept {
    const std::uint32_t period =
        sample_period_.load(std::memory_order_relaxed);
    if (period <= 1) return true;
    thread_local std::uint32_t stride = 0;
    return ++stride % period == 0;
  }

  /// Fast-path sampling stride, odd on purpose: a warm request calls
  /// should_sample() a fixed number of times (canonicalize, then the
  /// submit profile), so an even period would parity-lock every hit
  /// onto one call site and starve the other. A sample costs about
  /// 1.2 us (two CPU-clock syscalls) whatever the hit costs, so the
  /// period follows the warm hit: at 37 a hit takes 2/37 samples, which
  /// bench/profile_overhead read at 2.7-2.9% of a 2.2-2.4 us hit on a
  /// 4-vCPU box (at 17 it read 5.8-7.0%, over the 5% budget).
  static constexpr std::uint32_t kDefaultSamplePeriod = 37;

  std::uint32_t sample_period() const noexcept {
    return sample_period_.load(std::memory_order_relaxed);
  }
  /// 0 and 1 both mean "sample every request" (tests use this to make
  /// fast-path sampling deterministic).
  void set_sample_period(std::uint32_t period) noexcept {
    sample_period_.store(period, std::memory_order_relaxed);
  }

  /// Resolved counter handles for one component. Stable address for the
  /// profiler's lifetime.
  struct Component {
    Counter* samples = nullptr;
    Counter* wall_us = nullptr;
    Counter* cpu_us = nullptr;
    Counter* allocs = nullptr;
    Counter* alloc_bytes = nullptr;
  };

  /// Registers (or looks up) profile_<name>_* counters. Call sites on
  /// hot paths should cache the reference.
  Component& component(const std::string& name);

  /// Folds one sample into a component (relaxed adds; sub-microsecond
  /// times still count the sample).
  static void record(Component& component, const WorkSample& sample) noexcept;

  /// Convenience for cold call sites: resolve + record.
  void record(const std::string& name, const WorkSample& sample);

  /// One component's lifetime totals, decoded back from the counters.
  struct ComponentStats {
    std::string name;
    std::uint64_t samples = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    double blocked_seconds = 0.0;  ///< wall - cpu, floored at zero
    std::uint64_t alloc_count = 0;
    std::uint64_t alloc_bytes = 0;
  };
  /// Name-sorted; empty filter = all components.
  std::vector<ComponentStats> stats(const std::string& filter = "") const;

  /// One profiled mutex's totals, scanned from mutex_<name>_* families.
  struct MutexStats {
    std::string name;
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
    double wait_seconds = 0.0;  ///< summed contended wait
    double wait_p99 = 0.0;
  };
  /// Contended-count descending — [0] is the top contended mutex.
  std::vector<MutexStats> mutexes() const;

  /// {"enabled":true,"components":[{"name":..,"samples":..,"wall_seconds":
  ///   ..,"cpu_seconds":..,"blocked_seconds":..,"allocs":..,
  ///   "alloc_bytes":..},...],"mutexes":[{"name":..,"acquisitions":..,
  ///   "contended":..,"wait_seconds":..,"wait_p99":..},...]}
  void write_json(std::ostream& out, const std::string& filter = "") const;

 private:
  Registry& registry_;
  std::atomic<std::uint32_t> sample_period_{kDefaultSamplePeriod};
  mutable std::mutex mutex_;
  /// unique_ptr slots: Component addresses stay stable across growth.
  std::map<std::string, std::unique_ptr<Component>> components_;
};

// ------------------------------------------------------- ProfiledMutex

/// std::mutex drop-in (BasicLockable + try_lock) with an optionally
/// attached contention probe. Without a probe the cost over a plain
/// mutex is one relaxed load. With one, the uncontended fast path adds
/// a try_lock + relaxed counter; only *contended* acquisitions pay for
/// a steady_clock read pair and a histogram record.
class ProfiledMutex {
 public:
  /// Shared counter handles: several mutexes may point at one probe (the
  /// cache attaches a single "cache_shard" probe to every shard, which
  /// aggregates instead of minting 2N histogram families).
  struct Probe {
    Counter* acquisitions = nullptr;
    Counter* contended = nullptr;
    Histogram* wait = nullptr;
  };

  /// Registers mutex_<name>_{acquisitions_total,contended_total} and
  /// mutex_<name>_wait_seconds and returns the resolved probe.
  static Probe make_probe(Registry& registry, const std::string& name);

  ProfiledMutex() = default;
  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  /// Attach (nullptr detaches). The probe must outlive the mutex. Safe
  /// to call while other threads lock/unlock, but counts from before
  /// the attach are lost — attach at construction time in practice.
  void attach(const Probe* probe) noexcept {
    probe_.store(probe, std::memory_order_release);
  }

  void lock() {
    const Probe* const probe = probe_.load(std::memory_order_acquire);
    if (probe == nullptr) {
      mutex_.lock();
      return;
    }
    probe->acquisitions->add();
    if (mutex_.try_lock()) return;
    probe->contended->add();
    const auto wait_start = std::chrono::steady_clock::now();
    mutex_.lock();
    probe->wait->record(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wait_start)
                            .count());
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    if (const Probe* const probe = probe_.load(std::memory_order_acquire)) {
      probe->acquisitions->add();
    }
    return true;
  }

  void unlock() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
  std::atomic<const Probe*> probe_{nullptr};
};

}  // namespace prts::obs
