#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>

namespace prts::obs {
namespace {

/// splitmix64 — cheap, well-mixed; two ranks seeding from different
/// clocks/addresses will not mint colliding ids in any realistic run.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Tracer::Tracer(TracerConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.slow_capacity == 0) config_.slow_capacity = 1;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  salt_ = mix64(static_cast<std::uint64_t>(now.count()) ^
                reinterpret_cast<std::uintptr_t>(this));
}

std::uint64_t Tracer::start(const std::string& label) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t id = 0;
  // 0 is the "no trace" sentinel; skip it in the astronomically
  // unlikely case the mix lands there.
  while (id == 0) id = mix64(salt_ ^ ++sequence_);
  ring_.push_back(Trace{id, label, {}, 0.0, false, false});
  index_[id] = std::prev(ring_.end());
  evict_locked();
  return id;
}

void Tracer::start_with_id(std::uint64_t id, const std::string& label) {
  if (id == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it != index_.end()) {
    if (it->second->label.empty()) it->second->label = label;
    return;
  }
  ring_.push_back(Trace{id, label, {}, 0.0, false, false});
  index_[id] = std::prev(ring_.end());
  evict_locked();
}

void Tracer::record(std::uint64_t id, Span span) {
  if (id == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  it->second->spans.push_back(std::move(span));
}

void Tracer::record(std::uint64_t id, const std::string& name, int rank,
                    double start_seconds, double duration_seconds) {
  record(id, Span{name, rank, start_seconds, duration_seconds});
}

void Tracer::finish(std::uint64_t id, double total_seconds) {
  if (id == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  Trace& trace = *it->second;
  trace.finished = true;
  // Upsert: an amended finish (failover) extends the total.
  if (total_seconds > trace.total_seconds) trace.total_seconds = total_seconds;
  if (trace.total_seconds >= config_.slow_threshold_seconds &&
      !trace.slow_logged) {
    mark_slow_locked(trace);
  }
}

bool Tracer::find(std::uint64_t id, Trace& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  out = *it->second;
  return true;
}

std::vector<Trace> Tracer::recent(std::size_t limit) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Trace> out;
  out.reserve(std::min(limit, ring_.size()));
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < limit;
       ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<Trace> Tracer::slow(std::size_t limit) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Trace> out;
  out.reserve(std::min(limit, slow_ring_.size()));
  for (auto it = slow_ring_.rbegin();
       it != slow_ring_.rend() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::uint64_t Tracer::slow_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slow_count_;
}

void Tracer::evict_locked() {
  while (ring_.size() > config_.capacity) {
    index_.erase(ring_.front().id);
    ring_.pop_front();
  }
}

void Tracer::mark_slow_locked(Trace& trace) {
  trace.slow_logged = true;
  ++slow_count_;
  slow_ring_.push_back(trace);
  while (slow_ring_.size() > config_.slow_capacity) slow_ring_.pop_front();
  if (config_.slow_log != nullptr) {
    std::ostream& log = *config_.slow_log;
    log << "[slow-trace] id=" << id_to_hex(trace.id);
    if (!trace.label.empty()) log << " label=" << trace.label;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), " total_ms=%.3f",
                  trace.total_seconds * 1e3);
    log << buffer << " spans=" << trace.spans.size();
    for (const Span& span : trace.spans) {
      std::snprintf(buffer, sizeof(buffer), " %s@r%d=%.3fms",
                    span.name.c_str(), span.rank,
                    span.duration_seconds * 1e3);
      log << buffer;
    }
    log << "\n";
  }
}

std::string id_to_hex(std::uint64_t id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

std::uint64_t id_from_hex(std::string_view text) {
  if (text.empty() || text.size() > 16) return 0;
  std::uint64_t id = 0;
  for (char c : text) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      id |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return id;
}


void Telemetry::init() {
  // Wall-clock birth time: a scraper comparing two expositions tells a
  // counter reset apart from corruption by whether this moved.
  metrics.gauge("process_start_time_seconds")
      .set(std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
               .count());
  recorder.set_observer(
      [this](const FlightRecorder::Tick& tick) { alerts.evaluate(tick); });
}

}  // namespace prts::obs
