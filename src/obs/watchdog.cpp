#include "obs/watchdog.hpp"

#include <algorithm>
#include <ostream>

namespace prts::obs {

Watchdog::Watchdog(Registry& metrics)
    : stalls_counter_(metrics.counter("watchdog_stalls_total")),
      stalled_gauge_(metrics.gauge("watchdog_stalled_components")),
      components_gauge_(metrics.gauge("watchdog_components")) {}

Watchdog::~Watchdog() { stop(); }

Heartbeat& Watchdog::component(const std::string& name,
                               double expected_interval_seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& slot : components_) {
    if (slot->name_ == name) {
      // Refresh: a revived component must not be flagged for the time
      // it spent dead, and its periodic expectation may have changed.
      // The refresh beat spans the dead time — not a missed-beat
      // episode, so the gap it records is discarded.
      slot->expected_interval_seconds_ = expected_interval_seconds;
      slot->beat();
      slot->max_gap_ns_.store(0, std::memory_order_relaxed);
      return *slot;
    }
  }
  auto slot = std::make_unique<Heartbeat>();
  slot->name_ = name;
  slot->expected_interval_seconds_ = expected_interval_seconds;
  slot->beat();
  components_.push_back(std::move(slot));
  stalled_.push_back(false);
  components_gauge_.set(static_cast<double>(components_.size()));
  return *components_.back();
}

std::vector<Stall> Watchdog::check() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Stall> stalls;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const Heartbeat& hb = *components_[i];
    const double age = hb.age_seconds();
    const std::int64_t load = hb.load();
    bool stalled = false;
    if (hb.expected_interval_seconds_ > 0.0) {
      const double threshold =
          std::max(config_.periodic_factor * hb.expected_interval_seconds_,
                   config_.stall_threshold_seconds);
      stalled = age > threshold;
      // Missed-beat detection: the component froze longer than the
      // threshold but recovered before this poll saw a stale age (a
      // SIGSTOP'd process can't age its own heartbeat — the oversized
      // gap its *next* beat records is the only evidence left). One
      // fire-and-resolved episode; a stall counted the normal way
      // already owns its recovery gap.
      const double gap = static_cast<double>(components_[i]->max_gap_ns_.exchange(
                             0, std::memory_order_relaxed)) /
                         1e9;
      if (!stalled && !stalled_[i] && gap > threshold) stalls_counter_.add();
    } else {
      stalled = load > 0 && age > config_.stall_threshold_seconds;
    }
    if (stalled) {
      stalls.push_back(Stall{hb.name_, age, load});
      if (!stalled_[i]) {
        // Entering the stalled state: one episode, however many polls
        // it lasts.
        stalled_[i] = true;
        stalls_counter_.add();
      }
    } else {
      stalled_[i] = false;
    }
  }
  stalled_gauge_.set(static_cast<double>(stalls.size()));
  return stalls;
}

void Watchdog::start(WatchdogConfig config) {
  stop();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    monitor_stop_ = false;
  }
  monitor_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto interval = std::chrono::duration<double>(
          std::max(config_.poll_interval_seconds, 1e-3));
      if (monitor_cv_.wait_for(lock, interval,
                               [this] { return monitor_stop_; })) {
        return;
      }
      lock.unlock();
      check();
      lock.lock();
    }
  });
}

void Watchdog::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

std::uint64_t Watchdog::stalls_total() const {
  return stalls_counter_.value();
}

WatchdogConfig Watchdog::config() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

void Watchdog::write_json(std::ostream& out) {
  const std::vector<Stall> stalls = check();
  std::size_t component_count;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    component_count = components_.size();
  }
  out << "{\"stalls_total\":" << stalls_total()
      << ",\"components\":" << component_count << ",\"stalled\":[";
  bool first = true;
  for (const Stall& stall : stalls) {
    if (!first) out << ",";
    first = false;
    out << "{\"component\":\"" << stall.component
        << "\",\"age_seconds\":" << stall.age_seconds
        << ",\"load\":" << stall.load << "}";
  }
  out << "]}";
}

}  // namespace prts::obs
