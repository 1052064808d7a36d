#include "obs/trace.hpp"

#include <algorithm>
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

/// The slow log's one line for `trace`.
std::string slow_log_line(const Trace& trace) {
  std::string line = "[slow-trace] id=" + id_to_hex(trace.id);
  if (!trace.label.empty()) line += " label=" + trace.label;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " total_ms=%.3f",
                trace.total_seconds * 1e3);
  line += buffer;
  line += " spans=" + std::to_string(trace.spans.size());
  for (const Span& span : trace.spans) {
    std::snprintf(buffer, sizeof(buffer), " %s@r%d=%.3fms", span.name.c_str(),
                  span.rank, span.duration_seconds * 1e3);
    line += buffer;
  }
  line += '\n';
  return line;
}

}  // namespace

Tracer::Tracer(TracerConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.slow_capacity == 0) config_.slow_capacity = 1;
  slots_ = std::make_unique<Slot[]>(config_.capacity);
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  salt_ = mix64(static_cast<std::uint64_t>(now.count()) ^
                reinterpret_cast<std::uintptr_t>(this));
}

std::uint64_t Tracer::start(std::string_view label) {
  const std::uint64_t capacity = config_.capacity;
  std::uint64_t stamp = 0;
  std::uint64_t id = 0;
  // 0 is the "no trace" sentinel; skip it in the astronomically
  // unlikely case the mix lands there.
  while (id == 0) {
    stamp = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Salted random bits with the residue mod capacity replaced by the
    // stamp's, so the id names slot stamp % capacity: minted traces
    // take consecutive slots and overwrite the oldest first.
    std::uint64_t base = mix64(salt_ ^ stamp);
    base -= base % capacity;
    if (base > std::numeric_limits<std::uint64_t>::max() - (capacity - 1)) {
      base -= capacity;
    }
    id = base + stamp % capacity;
  }
  Slot& slot = slot_of(id);
  const std::lock_guard<std::mutex> lock(slot.mutex);
  // A start a full lap newer got the slot first: this trace is evicted
  // already.
  if (slot.stamp < stamp) open_locked(slot, id, stamp, label);
  return id;
}

void Tracer::start_with_id(std::uint64_t id, std::string_view label) {
  if (id == 0) return;
  Slot& slot = slot_of(id);
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.trace.id == id) {
    if (slot.trace.label.empty()) slot.trace.label.assign(label);
    return;
  }
  open_locked(slot, id, sequence_.fetch_add(1, std::memory_order_relaxed) + 1,
              label);
}

void Tracer::open_locked(Slot& slot, std::uint64_t id, std::uint64_t stamp,
                         std::string_view label) {
  Trace& trace = slot.trace;
  trace.id = id;
  trace.label.assign(label);
  trace.spans.clear();
  trace.total_seconds = 0.0;
  trace.finished = false;
  trace.slow_logged = false;
  slot.stamp = stamp;
}

void Tracer::record(std::uint64_t id, Span span) {
  if (id == 0) return;
  Slot& slot = slot_of(id);
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.trace.id == id) slot.trace.spans.push_back(std::move(span));
}

void Tracer::record(std::uint64_t id, const std::string& name, int rank,
                    double start_seconds, double duration_seconds) {
  record(id, Span{name, rank, start_seconds, duration_seconds});
}

void Tracer::finish(std::uint64_t id, double total_seconds) {
  if (id == 0) return;
  Trace slow_copy;
  {
    Slot& slot = slot_of(id);
    const std::lock_guard<std::mutex> lock(slot.mutex);
    Trace& trace = slot.trace;
    if (trace.id != id) return;
    trace.finished = true;
    // Upsert: an amended finish (failover) extends the total.
    if (total_seconds > trace.total_seconds) {
      trace.total_seconds = total_seconds;
    }
    if (trace.total_seconds < config_.slow_threshold_seconds ||
        trace.slow_logged) {
      return;
    }
    trace.slow_logged = true;
    slow_copy = trace;
  }
  mark_slow(std::move(slow_copy));
}

bool Tracer::find(std::uint64_t id, Trace& out) const {
  if (id == 0) return false;
  const Slot& slot = slot_of(id);
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.trace.id != id) return false;
  out = slot.trace;
  return true;
}

std::vector<Trace> Tracer::recent(std::size_t limit) const {
  std::vector<std::pair<std::uint64_t, Trace>> stamped;
  for (std::size_t i = 0; i < config_.capacity; ++i) {
    const Slot& slot = slots_[i];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.trace.id != 0) stamped.emplace_back(slot.stamp, slot.trace);
  }
  std::sort(stamped.begin(), stamped.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Trace> out;
  out.reserve(std::min(limit, stamped.size()));
  for (auto& entry : stamped) {
    if (out.size() == limit) break;
    out.push_back(std::move(entry.second));
  }
  return out;
}

std::vector<Trace> Tracer::slow(std::size_t limit) const {
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  std::vector<Trace> out;
  out.reserve(std::min(limit, slow_ring_.size()));
  for (auto it = slow_ring_.rbegin();
       it != slow_ring_.rend() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::uint64_t Tracer::slow_count() const {
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  return slow_count_;
}

void Tracer::mark_slow(Trace trace) {
  const std::string line =
      config_.slow_log != nullptr ? slow_log_line(trace) : std::string();
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  ++slow_count_;
  slow_ring_.push_back(std::move(trace));
  while (slow_ring_.size() > config_.slow_capacity) slow_ring_.pop_front();
  if (config_.slow_log != nullptr) *config_.slow_log << line;
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
