// Open-loop load runner (src/load/): offers a LoadTrace's arrivals to a
// submit function at their *scheduled* instants, never waiting for
// completions — the defining property of an open-loop generator. A
// closed-loop client under overload politely slows its own offered
// rate and reports flattering latencies (coordinated omission); this
// runner keeps offering, and measures each request's latency from its
// scheduled arrival time, so queueing delay under overload is charged
// to the system honestly.
//
// Mechanics: the caller's thread is the pacer (sleep until the next
// event's instant, submit, move on); a reaper thread sweeps the
// in-flight future set with zero-timeout polls and timestamps
// completions. Poll-based harvesting costs ~1ms of timestamp noise —
// irrelevant at the millisecond SLO scale this measures.
//
// Targets: anything shaped like submit(SolveRequest) ->
// future<SolveReply>. In-process that is SolveService::submit or
// ShardRouter::submit (both truly non-blocking); across the wire,
// WirePool presents the same interface over a set of pipelined
// MuxFrameClient connections fed by a bounded worker pool — the queue
// wait inside the pool counts toward latency, exactly as it should.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "load/trace.hpp"
#include "model/serialize.hpp"
#include "service/engine.hpp"

namespace prts::load {

using SubmitFn =
    std::function<std::future<service::SolveReply>(service::SolveRequest)>;

struct OpenLoopOptions {
  /// How long after the last scheduled arrival to wait for stragglers
  /// before declaring the remaining futures unresolved (stuck waiters).
  double drain_timeout_seconds = 60.0;
  /// Reaper sweep period.
  double poll_interval_seconds = 0.001;
  /// Request deadline/policy stamped on every submission.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  service::DeadlinePolicy deadline_policy =
      service::DeadlinePolicy::kDowngrade;
};

/// Outcome counts plus the per-request latency sample (seconds from
/// *scheduled* arrival to observed completion; answered requests only).
struct RunResult {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;    ///< solved or infeasible (a real answer)
  std::uint64_t rejected = 0;    ///< queue or deadline rejection
  std::uint64_t errors = 0;      ///< ReplyStatus::kError
  std::uint64_t unresolved = 0;  ///< future never became ready: stuck waiter
  double wall_seconds = 0.0;
  double offered_rate = 0.0;   ///< events / trace duration
  double achieved_rate = 0.0;  ///< answered / wall_seconds

  std::vector<double> latencies;  ///< sorted ascending after the run

  /// Exact empirical quantile of the sorted sample (0 when empty).
  double quantile(double q) const noexcept;
  double mean_latency() const noexcept;
  double error_rate() const noexcept;   ///< (errors+unresolved)/submitted
  double reject_rate() const noexcept;  ///< rejected/submitted
};

/// Runs the trace to completion (arrivals + drain). `instances` is the
/// corpus the trace's event.instance indexes into (taken modulo size).
RunResult run_open_loop(const LoadTrace& trace,
                        const std::vector<Instance>& instances,
                        const SubmitFn& submit,
                        const OpenLoopOptions& options = {});

/// A SubmitFn over the wire: `connections` MuxFrameClient links per
/// target address, fed round-robin from a bounded queue by a worker
/// pool. The mux links pipeline by request id, so workers outnumber
/// connections — ONE connection carries many in-flight solves, which
/// is the whole point. submit() never blocks on the
/// network — it enqueues and returns a future, so the open-loop
/// property survives the hop to a real fabric. A failed exchange (dead
/// peer, timeout) resolves the future with ReplyStatus::kError rather
/// than dropping it.
class WirePool {
 public:
  struct Target {
    std::string host;
    std::uint16_t port = 0;
  };

  /// `connections` is per target (>= 1). `workers` sizes the blocking
  /// worker pool (= the max in-flight exchanges); 0 picks
  /// max(8, 4 * total connections). A non-empty `auth_token` is
  /// presented on every (re)connect — required to drive an
  /// `--auth-token` fleet.
  WirePool(std::vector<Target> targets, std::size_t connections = 1,
           std::size_t workers = 0, std::string auth_token = {});
  ~WirePool();

  WirePool(const WirePool&) = delete;
  WirePool& operator=(const WirePool&) = delete;

  std::future<service::SolveReply> submit(service::SolveRequest request);

  /// Wires `connections` new links to a target that joined the fleet
  /// after the pool was built (membership joins: the load keeps
  /// flowing while the fleet grows). Thread-safe against submit() and
  /// in-flight workers; already-queued jobs may still drain to the old
  /// target set.
  void add_target(const Target& target);

  /// High-water mark of in-flight exchanges on any single connection
  /// (max over the per-client FrameClientStats watermarks) — the
  /// pipelining proof the CI smoke asserts on.
  std::uint64_t max_inflight_per_connection() const;

  SubmitFn submit_fn() {
    return [this](service::SolveRequest request) {
      return submit(std::move(request));
    };
  }

  /// Stops accepting, drains queued work (each pending item resolves,
  /// possibly as an error), joins workers. Idempotent; the destructor
  /// calls it.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prts::load
