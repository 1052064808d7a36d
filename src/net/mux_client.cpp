#include "net/mux_client.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace prts::net {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from(double seconds) {
  if (std::isinf(seconds)) return Clock::time_point::max();
  if (seconds < 0.0) seconds = 0.0;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double jittered_backoff(double seconds, double jitter_fraction,
                        std::uint64_t& state) {
  const double jitter = std::min(std::max(jitter_fraction, 0.0), 1.0);
  if (jitter == 0.0 || seconds <= 0.0) return seconds;
  // 53 uniform bits -> [0, 1) -> [1 - jitter, 1 + jitter).
  const double unit =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return seconds * (1.0 - jitter + 2.0 * jitter * unit);
}

std::uint64_t jitter_seed_for(const std::string& host, std::uint16_t port) {
  // FNV-1a over "host:port"; forced non-zero so it never collides with
  // the "derive me" sentinel.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : host) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  hash = (hash ^ (port & 0xff)) * 1099511628211ULL;
  hash = (hash ^ (port >> 8)) * 1099511628211ULL;
  return hash == 0 ? 1 : hash;
}

MuxFrameClient::MuxFrameClient(std::string host, std::uint16_t port,
                               FrameClientConfig config)
    : host_(std::move(host)), port_(port), config_(std::move(config)) {
  jitter_state_ = config_.backoff_jitter_seed != 0
                      ? config_.backoff_jitter_seed
                      : jitter_seed_for(host_, port_);
  if (config_.metrics != nullptr) {
    const std::string& prefix = config_.metrics_prefix;
    calls_counter_ = &config_.metrics->counter(prefix + "calls_total");
    failures_counter_ = &config_.metrics->counter(prefix + "failures_total");
    connects_counter_ = &config_.metrics->counter(prefix + "connects_total");
    fast_failures_counter_ =
        &config_.metrics->counter(prefix + "fast_failures_total");
    suspects_counter_ = &config_.metrics->counter(prefix + "suspects_total");
    timeouts_counter_ = &config_.metrics->counter(prefix + "timeouts_total");
    unknown_replies_counter_ =
        &config_.metrics->counter(prefix + "unknown_replies_total");
    inflight_gauge_ = &config_.metrics->gauge(prefix + "inflight");
    depth_histogram_ = &config_.metrics->histogram(prefix + "mux_depth");
  }
  worker_ = std::thread(&MuxFrameClient::worker_loop, this);
}

MuxFrameClient::~MuxFrameClient() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    if (conn_) conn_->shutdown();
    cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  if (reader_.joinable()) reader_.join();
  // Resolve whatever is still outstanding: a waiter must see nullopt,
  // never a broken promise.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, pending] : pending_) pending.promise.set_value(std::nullopt);
  pending_.clear();
  for (auto& job : queue_) job.promise.set_value(std::nullopt);
  queue_.clear();
}

std::future<std::optional<Frame>> MuxFrameClient::call_async(Frame request) {
  const double seconds = config_.reply_timeout_seconds > 0.0
                             ? config_.reply_timeout_seconds
                             : std::numeric_limits<double>::infinity();
  return call_async(std::move(request), seconds);
}

std::future<std::optional<Frame>> MuxFrameClient::call_async(
    Frame request, double deadline_seconds) {
  std::promise<std::optional<Frame>> promise;
  std::future<std::optional<Frame>> future = promise.get_future();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.calls;
  if (calls_counter_) calls_counter_->add();
  if (stop_ ||
      (backoff_seconds_ > 0.0 && Clock::now() < next_attempt_)) {
    if (!stop_) {
      ++stats_.fast_failures;
      if (fast_failures_counter_) fast_failures_counter_->add();
    }
    ++stats_.failures;
    if (failures_counter_) failures_counter_->add();
    promise.set_value(std::nullopt);
    return future;
  }
  Job job;
  job.frame = std::move(request);
  job.promise = std::move(promise);
  job.deadline = deadline_from(deadline_seconds);
  queue_.push_back(std::move(job));
  const std::size_t depth = queue_.size() + pending_.size();
  stats_.max_inflight =
      std::max<std::uint64_t>(stats_.max_inflight, depth);
  if (inflight_gauge_) inflight_gauge_->set(static_cast<double>(depth));
  if (depth_histogram_) depth_histogram_->record(static_cast<double>(depth));
  cv_.notify_all();
  return future;
}

std::optional<Frame> MuxFrameClient::call(const Frame& request) {
  return call_async(request).get();
}

bool MuxFrameClient::suspect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backoff_seconds_ > 0.0 && Clock::now() < next_attempt_;
}

FrameClientStats MuxFrameClient::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t MuxFrameClient::unknown_replies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return unknown_replies_;
}

void MuxFrameClient::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  fail_connection_locked(generation_, /*timeout=*/false);
  backoff_seconds_ = 0.0;  // reconnect immediately on the next call
}

void MuxFrameClient::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;

    // Jobs racing a freshly-armed backoff window fail fast here; jobs
    // arriving while the window is open already failed in call_async.
    if (backoff_seconds_ > 0.0 && Clock::now() < next_attempt_) {
      fail_queue_locked(/*fast=*/true);
      continue;
    }

    if (!conn_) {
      lock.unlock();
      if (reader_.joinable()) reader_.join();  // previous generation
      bool timeout = false;
      std::shared_ptr<Socket> socket = connect_and_probe(timeout);
      lock.lock();
      if (stop_) return;  // destructor resolves the queue
      if (!socket) {
        if (timeout) {
          ++stats_.timeouts;
          if (timeouts_counter_) timeouts_counter_->add();
        }
        arm_backoff_locked(timeout);
        fail_queue_locked(/*fast=*/false);
        continue;
      }
      conn_ = std::move(socket);
      last_rx_ = Clock::now();
      ++stats_.connects;
      if (connects_counter_) connects_counter_->add();
      reader_ = std::thread(&MuxFrameClient::reader_loop, this, conn_,
                            generation_);
    }

    if (queue_.empty()) continue;

    // Dispatch: stamp a fresh id, move the waiter to the pending map
    // *before* the write (the reply can race the write's return), then
    // write without holding the lock.
    Job job = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t id = next_id_++;
    if (next_id_ > kMaxRequestId) next_id_ = 1;
    Frame frame = std::move(job.frame);
    frame.request_id = id;
    Pending pending;
    pending.promise = std::move(job.promise);
    pending.deadline = job.deadline;
    pending.written = Clock::now();
    soonest_deadline_ = std::min(soonest_deadline_, pending.deadline);
    pending_.emplace(id, std::move(pending));
    update_depth_locked();
    const std::uint64_t generation = generation_;
    std::shared_ptr<Socket> socket = conn_;
    lock.unlock();
    const bool written = write_frame(*socket, frame);
    lock.lock();
    if (!written) {
      fail_connection_locked(generation, /*timeout=*/false);
    }
  }
}

void MuxFrameClient::reader_loop(std::shared_ptr<Socket> socket,
                                 std::uint64_t generation) {
  for (;;) {
    Frame reply;
    const FrameReadStatus status =
        read_frame(*socket, reply, config_.max_payload);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || generation_ != generation) return;
    if (status == FrameReadStatus::kOk) {
      last_rx_ = Clock::now();
      auto it = pending_.find(reply.request_id);
      if (it == pending_.end()) {
        // Late reply for an expired request, or a confused peer:
        // drop it, the connection itself is healthy.
        ++unknown_replies_;
        if (unknown_replies_counter_) unknown_replies_counter_->add();
      } else {
        it->second.promise.set_value(std::move(reply));
        pending_.erase(it);
        backoff_seconds_ = 0.0;  // a live reply proves health
        update_depth_locked();
      }
      if (last_rx_ >= soonest_deadline_) sweep_deadlines_locked(generation);
      if (generation_ != generation) return;
      continue;
    }
    if (status == FrameReadStatus::kTimeout) {
      // Idle tick: no frame for a sweep interval. Expire overdue
      // requests; a fully silent peer fails the whole connection.
      sweep_deadlines_locked(generation);
      if (generation_ != generation) return;
      continue;
    }
    fail_connection_locked(generation, /*timeout=*/false);
    return;
  }
}

std::shared_ptr<Socket> MuxFrameClient::connect_and_probe(bool& timeout) {
  timeout = false;
  auto connected = tcp_connect(host_, port_, config_.connect_timeout_seconds);
  if (!connected) return nullptr;
  auto socket = std::make_shared<Socket>(std::move(*connected));
  socket->set_receive_timeout(config_.connect_timeout_seconds > 0.0
                                  ? config_.connect_timeout_seconds
                                  : 2.0);
  if (!authenticate(*socket)) return nullptr;

  // Probe: the peer must echo a kPong with the probe's id, bounded by
  // the connect timeout — a peer that accepts but never answers fails
  // here, not on the first real request.
  Frame ping;
  ping.type = FrameType::kPing;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ping.request_id = next_id_++;
    if (next_id_ > kMaxRequestId) next_id_ = 1;
  }
  if (!write_frame(*socket, ping)) return nullptr;
  Frame reply;
  const FrameReadStatus status =
      read_frame(*socket, reply, config_.max_payload);
  if (status == FrameReadStatus::kTimeout) {
    timeout = true;
    return nullptr;
  }
  if (status != FrameReadStatus::kOk || reply.type != FrameType::kPong ||
      reply.request_id != ping.request_id) {
    return nullptr;
  }
  // Short receive timeout from here on, so the reader can sweep
  // per-request deadlines between frames.
  socket->set_receive_timeout(kSweepIntervalSeconds);
  return socket;
}

bool MuxFrameClient::authenticate(Socket& socket) {
  if (config_.auth_token.empty()) return true;
  Frame auth;
  auth.type = FrameType::kAuth;
  auth.payload = config_.auth_token;
  Frame reply;
  return write_frame(socket, auth) &&
         read_frame(socket, reply, config_.max_payload) ==
             FrameReadStatus::kOk &&
         reply.type == FrameType::kPong;
}

void MuxFrameClient::fail_connection_locked(std::uint64_t generation,
                                            bool timeout) {
  if (generation_ != generation) return;  // someone else already did
  ++generation_;
  if (conn_) conn_->shutdown();  // wake the peer thread's blocked IO
  conn_.reset();
  for (auto& [id, pending] : pending_) {
    ++stats_.failures;
    if (failures_counter_) failures_counter_->add();
    pending.promise.set_value(std::nullopt);
  }
  pending_.clear();
  soonest_deadline_ = Clock::time_point::max();
  fail_queue_locked(/*fast=*/false);
  arm_backoff_locked(timeout);
  update_depth_locked();
  cv_.notify_all();
}

void MuxFrameClient::fail_queue_locked(bool fast) {
  for (auto& job : queue_) {
    ++stats_.failures;
    if (failures_counter_) failures_counter_->add();
    if (fast) {
      ++stats_.fast_failures;
      if (fast_failures_counter_) fast_failures_counter_->add();
    }
    job.promise.set_value(std::nullopt);
  }
  queue_.clear();
  update_depth_locked();
}

void MuxFrameClient::arm_backoff_locked(bool timeout) {
  if (backoff_seconds_ == 0.0) {
    ++stats_.suspects;
    if (suspects_counter_) suspects_counter_->add();
  }
  const double initial = timeout ? config_.backoff_timeout_initial_seconds
                                 : config_.backoff_initial_seconds;
  backoff_seconds_ =
      backoff_seconds_ == 0.0
          ? initial
          : std::min(backoff_seconds_ * 2.0, config_.backoff_max_seconds);
  // Jitter only the armed window (not the doubling state): peers of a
  // restarted rank spread their reconnects instead of herding.
  const double window =
      jittered_backoff(backoff_seconds_, config_.backoff_jitter, jitter_state_);
  next_attempt_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window));
}

void MuxFrameClient::update_depth_locked() {
  if (inflight_gauge_) {
    inflight_gauge_->set(static_cast<double>(queue_.size() + pending_.size()));
  }
}

void MuxFrameClient::sweep_deadlines_locked(std::uint64_t generation) {
  const Clock::time_point now = Clock::now();
  if (now < soonest_deadline_) return;
  Clock::time_point soonest = Clock::time_point::max();
  bool silent_peer = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.deadline <= now) {
      if (last_rx_ < it->second.written) {
        // Nothing at all arrived since this request went out: the peer
        // is wedged, not merely slow on one solve — fail the connection
        // (every outstanding waiter, once) instead of trickling
        // expiries while new requests pile onto a dead wire.
        silent_peer = true;
        break;
      }
      ++stats_.timeouts;
      if (timeouts_counter_) timeouts_counter_->add();
      ++stats_.failures;
      if (failures_counter_) failures_counter_->add();
      it->second.promise.set_value(std::nullopt);
      it = pending_.erase(it);
    } else {
      soonest = std::min(soonest, it->second.deadline);
      ++it;
    }
  }
  if (silent_peer) {
    ++stats_.timeouts;
    if (timeouts_counter_) timeouts_counter_->add();
    fail_connection_locked(generation, /*timeout=*/true);
    return;
  }
  soonest_deadline_ = soonest;
  update_depth_locked();
}

}  // namespace prts::net
