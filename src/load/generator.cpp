#include "load/generator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "net/mux_client.hpp"
#include "service/wire.hpp"

namespace prts::load {

using Clock = std::chrono::steady_clock;

double RunResult::quantile(double q) const noexcept {
  if (latencies.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto index = static_cast<std::size_t>(
      clamped * static_cast<double>(latencies.size() - 1) + 0.5);
  return latencies[std::min(index, latencies.size() - 1)];
}

double RunResult::mean_latency() const noexcept {
  if (latencies.empty()) return 0.0;
  double total = 0.0;
  for (const double value : latencies) total += value;
  return total / static_cast<double>(latencies.size());
}

double RunResult::error_rate() const noexcept {
  if (submitted == 0) return 0.0;
  return static_cast<double>(errors + unresolved) /
         static_cast<double>(submitted);
}

double RunResult::reject_rate() const noexcept {
  if (submitted == 0) return 0.0;
  return static_cast<double>(rejected) / static_cast<double>(submitted);
}

namespace {

struct InFlight {
  Clock::time_point scheduled;
  std::future<service::SolveReply> future;
};

}  // namespace

RunResult run_open_loop(const LoadTrace& trace,
                        const std::vector<Instance>& instances,
                        const SubmitFn& submit,
                        const OpenLoopOptions& options) {
  RunResult result;
  if (instances.empty()) return result;

  std::mutex mutex;
  std::vector<InFlight> inflight;
  bool stop = false;

  // The reaper sweeps the in-flight set in place under the mutex —
  // wait_for(0) never blocks, so a sweep holds the lock only for
  // microseconds per entry and the pacer's push waits at most one
  // sweep. The reaper owns all result mutation except `submitted`.
  std::thread reaper([&] {
    for (;;) {
      bool stopping;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        stopping = stop;
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < inflight.size();) {
          InFlight& entry = inflight[i];
          if (entry.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++i;
            continue;
          }
          const service::SolveReply reply = entry.future.get();
          switch (reply.status) {
            case service::ReplyStatus::kSolved:
            case service::ReplyStatus::kInfeasible:
              ++result.answered;
              result.latencies.push_back(
                  std::chrono::duration<double>(now - entry.scheduled)
                      .count());
              break;
            case service::ReplyStatus::kRejectedQueue:
            case service::ReplyStatus::kRejectedDeadline:
              ++result.rejected;
              break;
            case service::ReplyStatus::kError:
              ++result.errors;
              break;
          }
          // Swap-erase: completion order does not matter.
          inflight[i] = std::move(inflight.back());
          inflight.pop_back();
        }
      }
      if (stopping) return;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(options.poll_interval_seconds, 1e-4)));
    }
  });

  // Pacer: this thread. Arrivals happen at their scheduled offsets no
  // matter how the fabric is doing — if a submit call itself lags
  // (WirePool queue push is O(1); in-process submits may canonicalize),
  // later arrivals fire immediately rather than shifting the schedule.
  const Clock::time_point start = Clock::now();
  for (const ArrivalEvent& event : trace.events) {
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(event.time_seconds));
    std::this_thread::sleep_until(scheduled);
    service::SolveRequest request{instances[event.instance %
                                            instances.size()],
                                  event.solver, event.bounds,
                                  options.deadline_seconds,
                                  options.deadline_policy};
    std::future<service::SolveReply> future = submit(std::move(request));
    ++result.submitted;
    const std::lock_guard<std::mutex> lock(mutex);
    inflight.push_back(InFlight{scheduled, std::move(future)});
  }

  // Drain: give stragglers a bounded grace period, then count whatever
  // is still pending as unresolved — the "stuck waiter" signal.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::max(options.drain_timeout_seconds, 0.0)));
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (inflight.empty()) break;
    }
    if (Clock::now() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    result.unresolved = inflight.size();
    // Abandon stuck futures (counted); let the reaper exit after one
    // final sweep.
    inflight.clear();
    stop = true;
  }
  reaper.join();

  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(result.latencies.begin(), result.latencies.end());
  double duration = result.wall_seconds;
  std::string meta_duration;
  if (const auto it = trace.meta.find("duration_seconds");
      it != trace.meta.end()) {
    meta_duration = it->second;
  }
  double parsed = 0.0;
  if (!meta_duration.empty() &&
      parse_number(meta_duration, parsed) && parsed > 0.0) {
    duration = parsed;
  } else if (!trace.events.empty()) {
    duration = std::max(trace.events.back().time_seconds, 1e-9);
  }
  result.offered_rate =
      static_cast<double>(result.submitted) / std::max(duration, 1e-9);
  result.achieved_rate = result.wall_seconds > 0.0
                             ? static_cast<double>(result.answered) /
                                   result.wall_seconds
                             : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// WirePool

struct WirePool::Impl {
  struct Job {
    // optional: SolveRequest has no default constructor (an Instance is
    // always a concrete chain+platform).
    std::optional<service::SolveRequest> request;
    std::promise<service::SolveReply> promise;
  };

  /// Guarded by `mutex` for membership (add_target may grow it while
  /// workers run); the pointed-to clients themselves are never removed,
  /// so a worker's per-job snapshot of raw pointers stays valid.
  std::vector<std::unique_ptr<net::MuxFrameClient>> clients;
  std::size_t connections_per_target = 1;
  std::string auth_token;
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Job> queue;
  bool stopping = false;

  void worker(std::size_t index) {
    for (;;) {
      Job job;
      std::vector<net::MuxFrameClient*> targets;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping && drained
        job = std::move(queue.front());
        queue.pop_front();
        // Per-job snapshot: the client set may grow (add_target) while
        // this exchange is in flight, and the failover sweep below must
        // not race a vector reallocation.
        targets.reserve(clients.size());
        for (const auto& client : clients) targets.push_back(client.get());
      }
      service::SolveReply reply;
      reply.status = service::ReplyStatus::kError;
      reply.error = "wire pool: every target failed";
      net::Frame frame;
      frame.type = net::FrameType::kSolveRequest;
      frame.payload = service::encode_wire_request(*job.request);
      // Home connection first (workers spread round-robin over the
      // clients), then fail over across the others — a dead target
      // degrades the pool, it does not fail its share of the load.
      // Many workers calling one MuxFrameClient pipeline on its single
      // connection, and suspect peers fail fast after the first
      // timeout, so the sweep is cheap once a corpse is known.
      for (std::size_t attempt = 0; attempt < targets.size(); ++attempt) {
        net::MuxFrameClient& client =
            *targets[(index + attempt) % targets.size()];
        const std::optional<net::Frame> answer = client.call(frame);
        if (!answer || answer->type != net::FrameType::kSolveReply) continue;
        std::string decode_error;
        if (std::optional<service::SolveReply> decoded =
                service::decode_wire_reply(answer->payload, decode_error)) {
          reply = std::move(*decoded);
        } else {
          reply.error = "wire pool: undecodable reply: " + decode_error;
        }
        break;
      }
      job.promise.set_value(std::move(reply));
    }
  }
};

WirePool::WirePool(std::vector<Target> targets, std::size_t connections,
                   std::size_t workers, std::string auth_token)
    : impl_(std::make_unique<Impl>()) {
  connections = std::max<std::size_t>(connections, 1);
  impl_->connections_per_target = connections;
  impl_->auth_token = std::move(auth_token);
  net::FrameClientConfig client_config;
  client_config.auth_token = impl_->auth_token;
  for (const Target& target : targets) {
    for (std::size_t c = 0; c < connections; ++c) {
      impl_->clients.push_back(std::make_unique<net::MuxFrameClient>(
          target.host, target.port, client_config));
    }
  }
  if (workers == 0) {
    workers = std::max<std::size_t>(8, 4 * impl_->clients.size());
  }
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back(
        [impl = impl_.get(), i] { impl->worker(i); });
  }
}

void WirePool::add_target(const Target& target) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->stopping) return;
  net::FrameClientConfig client_config;
  client_config.auth_token = impl_->auth_token;
  for (std::size_t c = 0; c < impl_->connections_per_target; ++c) {
    impl_->clients.push_back(std::make_unique<net::MuxFrameClient>(
        target.host, target.port, client_config));
  }
}

std::uint64_t WirePool::max_inflight_per_connection() const {
  std::uint64_t max_inflight = 0;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& client : impl_->clients) {
    max_inflight = std::max(max_inflight, client->stats().max_inflight);
  }
  return max_inflight;
}

WirePool::~WirePool() { shutdown(); }

std::future<service::SolveReply> WirePool::submit(
    service::SolveRequest request) {
  Impl::Job job;
  job.request = std::move(request);
  std::future<service::SolveReply> future = job.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping) {
      service::SolveReply reply;
      reply.status = service::ReplyStatus::kError;
      reply.error = "wire pool: shut down";
      job.promise.set_value(std::move(reply));
      return future;
    }
    impl_->queue.push_back(std::move(job));
  }
  impl_->cv.notify_one();
  return future;
}

void WirePool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping && impl_->workers.empty()) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (std::thread& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  impl_->workers.clear();
}

}  // namespace prts::load
