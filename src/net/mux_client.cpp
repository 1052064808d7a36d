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

/// The deadline of a call that names none: the reply timeout, or never.
double default_deadline(const FrameClientConfig& config) {
  return config.reply_timeout_seconds > 0.0
             ? config.reply_timeout_seconds
             : std::numeric_limits<double>::infinity();
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
    : host_(std::move(host)),
      port_(port),
      config_(std::move(config)),
      metrics_(config_.metrics ? *config_.metrics : own_metrics_),
      calls_counter_(metrics_.counter(config_.metrics_prefix + "calls_total")),
      failures_counter_(
          metrics_.counter(config_.metrics_prefix + "failures_total")),
      connects_counter_(
          metrics_.counter(config_.metrics_prefix + "connects_total")),
      fast_failures_counter_(
          metrics_.counter(config_.metrics_prefix + "fast_failures_total")),
      suspects_counter_(
          metrics_.counter(config_.metrics_prefix + "suspects_total")),
      timeouts_counter_(
          metrics_.counter(config_.metrics_prefix + "timeouts_total")),
      unknown_replies_counter_(
          metrics_.counter(config_.metrics_prefix + "unknown_replies_total")),
      completion_errors_counter_(metrics_.counter(
          config_.metrics_prefix + "completion_errors_total")),
      inflight_gauge_(metrics_.gauge(config_.metrics_prefix + "inflight")),
      depth_histogram_(
          metrics_.histogram(config_.metrics_prefix + "mux_depth")) {
  jitter_state_ = config_.backoff_jitter_seed != 0
                      ? config_.backoff_jitter_seed
                      : jitter_seed_for(host_, port_);
  thread_ = std::thread(&MuxFrameClient::connection_loop, this);
}

MuxFrameClient::~MuxFrameClient() { shutdown(); }

void MuxFrameClient::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    if (conn_) conn_->shutdown();
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  // Resolve whatever is still outstanding: a waiter must see nullopt,
  // never silence.
  std::vector<Completion> failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, pending] : pending_) {
      failed.push_back(std::move(pending.done));
    }
    pending_.clear();
    for (auto& job : queue_) failed.push_back(std::move(job.done));
    queue_.clear();
    failures_counter_.add(failed.size());
    update_depth_locked();
  }
  fail_all(failed);
}

void MuxFrameClient::call_async(Frame request, Completion done) {
  call_async(std::move(request), default_deadline(config_), std::move(done));
}

void MuxFrameClient::call_async(Frame request, double deadline_seconds,
                                Completion done) {
  std::shared_ptr<Socket> socket;
  std::uint64_t generation = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_counter_.add();
    if (stop_ || in_backoff_locked()) {
      if (!stop_) fast_failures_counter_.add();
      failures_counter_.add();
    } else if (!conn_) {
      // No connection: the connection's thread connects, then writes
      // this frame. A caller never waits for a connect.
      queue_.push_back(Job{std::move(request), std::move(done),
                           deadline_from(deadline_seconds)});
      note_admitted_locked();
      cv_.notify_all();
      return;
    } else {
      file_pending_locked(request, std::move(done),
                          deadline_from(deadline_seconds));
      note_admitted_locked();
      socket = conn_;
      generation = generation_;
    }
  }
  if (socket) {
    send(*socket, generation, request);
    return;
  }
  // Fast-fail: resolved on the calling thread, outside the lock.
  complete(done, std::nullopt);
}

std::future<std::optional<Frame>> MuxFrameClient::call_async(Frame request) {
  return call_async(std::move(request), default_deadline(config_));
}

std::future<std::optional<Frame>> MuxFrameClient::call_async(
    Frame request, double deadline_seconds) {
  auto promise = std::make_shared<std::promise<std::optional<Frame>>>();
  std::future<std::optional<Frame>> future = promise->get_future();
  call_async(std::move(request), deadline_seconds,
             [promise](std::optional<Frame> reply) {
               promise->set_value(std::move(reply));
             });
  return future;
}

std::optional<Frame> MuxFrameClient::call(const Frame& request) {
  return call_async(request).get();
}

bool MuxFrameClient::suspect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_backoff_locked();
}

FrameClientStats MuxFrameClient::stats() const {
  FrameClientStats out;
  out.calls = calls_counter_.value();
  out.failures = failures_counter_.value();
  out.connects = connects_counter_.value();
  out.fast_failures = fast_failures_counter_.value();
  out.suspects = suspects_counter_.value();
  out.timeouts = timeouts_counter_.value();
  out.completion_errors = completion_errors_counter_.value();
  const std::lock_guard<std::mutex> lock(mutex_);
  out.max_inflight = max_inflight_;
  return out;
}

std::uint64_t MuxFrameClient::unknown_replies() const {
  return unknown_replies_counter_.value();
}

void MuxFrameClient::reset() {
  std::vector<Completion> failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fail_connection_locked(generation_, /*timeout=*/false, failed);
    backoff_seconds_ = 0.0;  // reconnect immediately on the next call
  }
  fail_all(failed);
}

void MuxFrameClient::complete(Completion& done, std::optional<Frame> reply) {
  if (!done) return;
  try {
    done(std::move(reply));
  } catch (...) {
    completion_errors_counter_.add();
  }
}

void MuxFrameClient::fail_all(std::vector<Completion>& failed) {
  for (Completion& done : failed) complete(done, std::nullopt);
  failed.clear();
}

bool MuxFrameClient::send(Socket& socket, std::uint64_t generation,
                          const Frame& frame) {
  bool written = false;
  {
    const std::lock_guard<std::mutex> lock(write_mutex_);
    written = write_frame(socket, frame);
  }
  if (written) return true;
  std::vector<Completion> failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fail_connection_locked(generation, /*timeout=*/false, failed);
  }
  fail_all(failed);
  return false;
}

void MuxFrameClient::connection_loop() {
  std::vector<Completion> failed;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!failed.empty()) {
      lock.unlock();
      fail_all(failed);
      lock.lock();
    }
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // shutdown() resolves the queue

    // Frames racing a freshly-armed backoff window fail fast here;
    // frames arriving while the window is open already failed in
    // call_async.
    if (in_backoff_locked()) {
      fail_queue_locked(/*fast=*/true, failed);
      continue;
    }

    lock.unlock();
    bool timeout = false;
    std::shared_ptr<Socket> socket = connect_and_probe(timeout);
    lock.lock();
    if (stop_) return;
    if (!socket) {
      if (timeout) timeouts_counter_.add();
      arm_backoff_locked(timeout);
      fail_queue_locked(/*fast=*/false, failed);
      continue;
    }
    conn_ = socket;
    last_rx_ = Clock::now();
    connects_counter_.add();
    // From here on callers write their own frames; this thread flushes
    // what queued up before the connection existed.
    std::vector<Frame> queued;
    queued.reserve(queue_.size());
    for (Job& job : queue_) {
      file_pending_locked(job.frame, std::move(job.done), job.deadline);
      queued.push_back(std::move(job.frame));
    }
    queue_.clear();
    const std::uint64_t generation = generation_;
    lock.unlock();
    for (const Frame& frame : queued) {
      if (!send(*socket, generation, frame)) break;
    }
    read_replies(*socket, generation);
    lock.lock();
  }
}

void MuxFrameClient::read_replies(Socket& socket, std::uint64_t generation) {
  std::vector<Completion> failed;
  for (;;) {
    Frame reply;
    const FrameReadStatus status =
        read_frame(socket, reply, config_.max_payload);
    Completion done;
    bool live = true;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_ || generation_ != generation) return;
      if (status == FrameReadStatus::kOk) {
        last_rx_ = Clock::now();
        auto it = pending_.find(reply.request_id);
        if (it == pending_.end()) {
          // Late reply for an expired request, or a confused peer:
          // drop it, the connection itself is healthy.
          unknown_replies_counter_.add();
        } else {
          done = std::move(it->second.done);
          pending_.erase(it);
          backoff_seconds_ = 0.0;  // a live reply proves health
          update_depth_locked();
        }
        if (last_rx_ >= soonest_deadline_) {
          sweep_deadlines_locked(generation, failed);
        }
      } else if (status == FrameReadStatus::kTimeout) {
        // Idle tick: no frame for a sweep interval. Expire overdue
        // requests; a fully silent peer fails the whole connection.
        sweep_deadlines_locked(generation, failed);
      } else {
        fail_connection_locked(generation, /*timeout=*/false, failed);
      }
      live = generation_ == generation;
    }
    // The exchange's own continuation runs here, on the reader, with
    // the lock released.
    if (done) complete(done, std::move(reply));
    fail_all(failed);
    if (!live) return;
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

bool MuxFrameClient::in_backoff_locked() const {
  return backoff_seconds_ > 0.0 && Clock::now() < next_attempt_;
}

void MuxFrameClient::file_pending_locked(Frame& frame, Completion done,
                                         Clock::time_point deadline) {
  frame.request_id = next_id_++;
  if (next_id_ > kMaxRequestId) next_id_ = 1;
  Pending pending;
  pending.done = std::move(done);
  pending.deadline = deadline;
  pending.written = Clock::now();
  soonest_deadline_ = std::min(soonest_deadline_, deadline);
  pending_.emplace(frame.request_id, std::move(pending));
}

void MuxFrameClient::note_admitted_locked() {
  const std::size_t depth = queue_.size() + pending_.size();
  max_inflight_ = std::max<std::uint64_t>(max_inflight_, depth);
  inflight_gauge_.set(static_cast<double>(depth));
  depth_histogram_.record(static_cast<double>(depth));
}

void MuxFrameClient::fail_connection_locked(std::uint64_t generation,
                                            bool timeout,
                                            std::vector<Completion>& failed) {
  if (generation_ != generation) return;  // someone else already did
  ++generation_;
  if (conn_) conn_->shutdown();  // wake the peer thread's blocked IO
  conn_.reset();
  for (auto& [id, pending] : pending_) {
    failures_counter_.add();
    failed.push_back(std::move(pending.done));
  }
  pending_.clear();
  soonest_deadline_ = Clock::time_point::max();
  fail_queue_locked(/*fast=*/false, failed);
  arm_backoff_locked(timeout);
  update_depth_locked();
  cv_.notify_all();
}

void MuxFrameClient::fail_queue_locked(bool fast,
                                       std::vector<Completion>& failed) {
  for (auto& job : queue_) {
    failures_counter_.add();
    if (fast) fast_failures_counter_.add();
    failed.push_back(std::move(job.done));
  }
  queue_.clear();
  update_depth_locked();
}

void MuxFrameClient::arm_backoff_locked(bool timeout) {
  if (backoff_seconds_ == 0.0) suspects_counter_.add();
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
  inflight_gauge_.set(static_cast<double>(queue_.size() + pending_.size()));
}

void MuxFrameClient::sweep_deadlines_locked(
    std::uint64_t generation, std::vector<Completion>& failed) {
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
      timeouts_counter_.add();
      failures_counter_.add();
      failed.push_back(std::move(it->second.done));
      it = pending_.erase(it);
    } else {
      soonest = std::min(soonest, it->second.deadline);
      ++it;
    }
  }
  if (silent_peer) {
    timeouts_counter_.add();
    fail_connection_locked(generation, /*timeout=*/true, failed);
    return;
  }
  soonest_deadline_ = soonest;
  update_depth_locked();
}

}  // namespace prts::net
