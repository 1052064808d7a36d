#include "obs/alerts.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "load/slo.hpp"

namespace prts::obs {
namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool ends_with(const std::string& name, const char* suffix) {
  const std::size_t len = std::char_traits<char>::length(suffix);
  return name.size() > len &&
         name.compare(name.size() - len, len, suffix) == 0;
}

std::uint64_t tick_delta(const FlightRecorder::Tick& tick,
                         const std::string& counter) {
  const auto it = tick.counter_deltas.find(counter);
  return it == tick.counter_deltas.end() ? 0 : it->second;
}

/// Registry-safe slug of a rule expression for its per-rule metric
/// names (same character set metrics.cpp sanitizes to).
std::string rule_slug(const std::string& expr) {
  std::string slug = expr;
  for (char& c : slug) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return slug;
}

void write_number(std::ostream& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out << buffer;
}

}  // namespace

bool parse_alert_rule(const std::string& text, AlertRule& rule,
                      std::string* error) {
  rule = AlertRule{};
  std::stringstream parts(text);
  std::string part;
  bool have_comparison = false;
  while (std::getline(parts, part, ';')) {
    const auto begin = part.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    part = part.substr(begin, part.find_last_not_of(" \t") - begin + 1);
    if (!have_comparison) {
      load::Comparison comparison;
      std::string why;
      if (!load::parse_comparison(part, comparison, &why)) {
        return fail(error, "alert: " + why);
      }
      rule.metric = std::move(comparison.metric);
      rule.op = std::move(comparison.op);
      rule.bound = comparison.bound;
      have_comparison = true;
      continue;
    }
    // Options after the comparison: for=N (ticks to fire), hold=N
    // (ticks to resolve).
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return fail(error, "alert: bad option '" + part + "'");
    }
    const std::string key = part.substr(0, eq);
    const std::string value_text = part.substr(eq + 1);
    char* end = nullptr;
    const long value = std::strtol(value_text.c_str(), &end, 10);
    if (end == value_text.c_str() || *end != '\0' || value < 1 ||
        value > 1000000) {
      return fail(error, "alert: bad option value '" + part + "'");
    }
    if (key == "for") {
      rule.for_ticks = static_cast<int>(value);
    } else if (key == "hold") {
      rule.hold_ticks = static_cast<int>(value);
    } else {
      return fail(error, "alert: unknown option '" + key + "'");
    }
  }
  if (!have_comparison) return fail(error, "alert: empty rule");
  rule.expr = text;
  return true;
}

AlertEngine::AlertEngine(Registry& registry)
    : registry_(registry),
      firing_total_gauge_(registry.gauge("alerts_firing")) {
  // Registered up front so a scrape sees alerts_firing 0, not an absent
  // family, on a rank with no rules (or none fired yet).
  firing_total_gauge_.set(0.0);
}

void AlertEngine::add_rule(AlertRule rule) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.state.rule = std::move(rule);
  const std::string slug = rule_slug(entry.state.rule.expr);
  entry.fired_counter = &registry_.counter("alert_" + slug + "_fired_total");
  entry.resolved_counter =
      &registry_.counter("alert_" + slug + "_resolved_total");
  entry.firing_gauge = &registry_.gauge("alert_" + slug + "_firing");
  entry.firing_gauge->set(0.0);
  entries_.push_back(std::move(entry));
}

bool AlertEngine::add_rule(const std::string& text, std::string* error) {
  AlertRule rule;
  if (!parse_alert_rule(text, rule, error)) return false;
  add_rule(std::move(rule));
  return true;
}

std::size_t AlertEngine::rule_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

double AlertEngine::rule_value(const AlertRule& rule,
                               const FlightRecorder::Tick& tick) {
  const std::string& metric = rule.metric;
  if (metric == "error_rate" || metric == "reject_rate") {
    const std::uint64_t submitted = tick_delta(tick, "engine_requests_total");
    if (submitted == 0) return 0.0;
    const std::uint64_t bad =
        metric == "error_rate"
            ? tick_delta(tick, "engine_errors_total")
            : tick_delta(tick, "engine_rejected_queue_total") +
                  tick_delta(tick, "engine_rejected_deadline_total");
    return static_cast<double>(bad) / static_cast<double>(submitted);
  }
  if (ends_with(metric, "_delta")) {
    return static_cast<double>(
        tick_delta(tick, metric.substr(0, metric.size() - 6)));
  }
  static constexpr struct {
    const char* suffix;
    double FlightRecorder::Tick::HistogramWindow::* field;
  } kWindowFields[] = {
      {"_p50", &FlightRecorder::Tick::HistogramWindow::p50},
      {"_p90", &FlightRecorder::Tick::HistogramWindow::p90},
      {"_p99", &FlightRecorder::Tick::HistogramWindow::p99},
      {"_p999", &FlightRecorder::Tick::HistogramWindow::p999},
      {"_mean", &FlightRecorder::Tick::HistogramWindow::mean},
  };
  for (const auto& [suffix, field] : kWindowFields) {
    if (!ends_with(metric, suffix)) continue;
    const std::string base =
        metric.substr(0, metric.size() - std::string(suffix).size());
    const auto it = tick.histograms.find(base);
    if (it == tick.histograms.end()) return 0.0;
    return it->second.*field;
  }
  const auto it = tick.gauges.find(metric);
  return it == tick.gauges.end() ? 0.0 : it->second;
}

void AlertEngine::evaluate(const FlightRecorder::Tick& tick) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t firing = 0;
  for (Entry& entry : entries_) {
    RuleState& state = entry.state;
    const double value = rule_value(state.rule, tick);
    state.last_value = value;
    ++state.ticks_evaluated;
    const bool breach =
        load::comparison_holds(value, state.rule.op, state.rule.bound);
    if (breach) {
      ++entry.breach_streak;
      entry.clear_streak = 0;
      if (!state.firing && entry.breach_streak >= state.rule.for_ticks) {
        state.firing = true;
        ++state.fired_total;
        state.changed_uptime_seconds = tick.uptime_seconds;
        entry.fired_counter->add();
        entry.firing_gauge->set(1.0);
      }
    } else {
      ++entry.clear_streak;
      entry.breach_streak = 0;
      if (state.firing && entry.clear_streak >= state.rule.hold_ticks) {
        state.firing = false;
        ++state.resolved_total;
        state.changed_uptime_seconds = tick.uptime_seconds;
        entry.resolved_counter->add();
        entry.firing_gauge->set(0.0);
      }
    }
    if (state.firing) ++firing;
  }
  firing_total_gauge_.set(static_cast<double>(firing));
}

std::vector<AlertEngine::RuleState> AlertEngine::states() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RuleState> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.state);
  return out;
}

std::uint64_t AlertEngine::firing_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t firing = 0;
  for (const Entry& entry : entries_) {
    if (entry.state.firing) ++firing;
  }
  return firing;
}

void AlertEngine::write_json(std::ostream& out) const {
  const std::vector<RuleState> states = this->states();
  std::uint64_t firing = 0;
  for (const RuleState& state : states) {
    if (state.firing) ++firing;
  }
  out << "{\"firing\":" << firing << ",\"rules\":[";
  bool first = true;
  for (const RuleState& state : states) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << state.rule.expr << "\",\"state\":\""
        << (state.firing ? "firing" : "ok") << "\",\"value\":";
    write_number(out, state.last_value);
    out << ",\"fired\":" << state.fired_total
        << ",\"resolved\":" << state.resolved_total << ",\"since\":";
    write_number(out, state.changed_uptime_seconds);
    out << "}";
  }
  out << "]}";
}

}  // namespace prts::obs
