#include "service/checkpoint.hpp"

#include <cstdio>

#include <chrono>
#include <fstream>

namespace prts::service {

Checkpointer::Checkpointer(const ShardedSolutionCache& cache, Config config)
    : cache_(cache),
      config_(std::move(config)),
      metrics_(config_.telemetry ? config_.telemetry->metrics : own_metrics_),
      checkpoints_counter_(metrics_.counter("checkpoint_total")),
      failures_counter_(metrics_.counter("checkpoint_failures_total")),
      duration_hist_(metrics_.histogram("checkpoint_seconds")) {
  if (config_.interval_seconds > 0.0) {
    timer_ = std::thread(&Checkpointer::timer_loop, this);
  }
}

Checkpointer::~Checkpointer() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    cv_.notify_all();
  }
  if (timer_.joinable()) timer_.join();
}

bool Checkpointer::checkpoint_now(std::string* error) {
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  const auto started = std::chrono::steady_clock::now();
  const std::string tmp = config_.path + ".tmp";
  std::size_t bytes = 0;
  bool ok = false;
  std::string reason;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      reason = "cannot open '" + tmp + "' for writing";
    } else {
      cache_.save_binary(out);
      out.flush();
      if (!out) {
        reason = "write to '" + tmp + "' failed";
      } else {
        bytes = static_cast<std::size_t>(out.tellp());
        ok = true;
      }
    }
  }
  if (ok && std::rename(tmp.c_str(), config_.path.c_str()) != 0) {
    reason = "rename '" + tmp + "' -> '" + config_.path + "' failed";
    ok = false;
  }
  if (!ok) std::remove(tmp.c_str());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  if (!ok) {
    failures_counter_.add();
    if (error) *error = reason;
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_entries_ = cache_.stats().entries;
    last_bytes_ = bytes;
    last_seconds_ = seconds;
  }
  checkpoints_counter_.add();
  duration_hist_.record(seconds);
  return true;
}

Checkpointer::Stats Checkpointer::stats() const {
  Stats out;
  out.checkpoints = checkpoints_counter_.value();
  out.failures = failures_counter_.value();
  const std::lock_guard<std::mutex> lock(mutex_);
  out.last_entries = last_entries_;
  out.last_bytes = last_bytes_;
  out.last_seconds = last_seconds_;
  return out;
}

void Checkpointer::timer_loop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.interval_seconds));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
    lock.unlock();
    checkpoint_now();
    lock.lock();
  }
}

}  // namespace prts::service
