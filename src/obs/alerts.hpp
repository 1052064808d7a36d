// Health-alert engine (src/obs/): declarative rules over the flight
// recorder's per-tick windows, with a firing→resolved lifecycle —
// the step from "the rank records its own history" (PR 7) to "the rank
// tells you when that history went wrong".
//
// A rule is one comparison clause in the load::slo grammar (any
// operator, not just the SLO's "<="), plus optional debounce options:
//
//   watchdog_stalls_total_delta>0
//   engine_queue_depth>100;for=3
//   error_rate>0.01;hold=10
//   engine_request_latency_seconds_p99>50ms
//
// The metric name resolves against one flight-recorder tick:
//   <counter>_delta        counter increment over the tick window
//   <histogram>_p50/.../_p999/_mean/_count
//                          that tick's windowed histogram stats
//   error_rate/reject_rate engine errors (engine_errors_total) or
//                          rejections (engine_rejected_queue_total +
//                          engine_rejected_deadline_total) per
//                          submitted request over the tick window
//   anything else          a gauge's value at tick time
// Absent metrics read as zero — a rule on a counter that never moved
// is simply not breaching.
//
// Lifecycle: a rule fires after `for` consecutive breaching ticks
// (default 1) and resolves after `hold` consecutive clean ticks
// (default 3 — so a one-tick spike stays visible to a scraper polling
// slower than the tick rate). Everything is mirrored into the
// registry: an `alerts_firing` gauge plus per-rule
// alert_<slug>_{fired_total,resolved_total} counters and an
// alert_<slug>_firing gauge, so alert state rides every existing
// surface (scrape, stats frames, the flight recorder itself).
//
// Evaluation is driven by the flight recorder's tick observer (see
// Telemetry) or directly via evaluate() with hand-built ticks, which
// is what makes the lifecycle deterministic under test: time is
// whatever the injected ticks say it is.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace prts::obs {

struct AlertRule {
  std::string expr;    ///< original rule text (display + metric slug)
  std::string metric;  ///< tick-window metric name (see header comment)
  std::string op = ">";
  double bound = 0.0;
  int for_ticks = 1;   ///< consecutive breaching ticks before firing
  int hold_ticks = 3;  ///< consecutive clean ticks before resolving
};

/// Parses "metric OP bound[suffix][;for=N][;hold=N]". Returns false
/// (setting `error` when given) on grammar errors; metric names are
/// accepted as-is (the registry's namespace is open).
bool parse_alert_rule(const std::string& text, AlertRule& rule,
                      std::string* error = nullptr);

class AlertEngine {
 public:
  /// `registry` (optional, must outlive the engine) receives the
  /// alerts_firing gauge and the per-rule mirrors.
  explicit AlertEngine(Registry* registry = nullptr);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Adds a parsed rule (registers its per-rule metrics).
  void add_rule(AlertRule rule);
  /// Parse + add; false on grammar errors.
  bool add_rule(const std::string& text, std::string* error = nullptr);

  std::size_t rule_count() const;

  /// Evaluates every rule against one tick window and advances the
  /// firing lifecycle. Called by the flight recorder's tick hook in
  /// production; call directly with synthetic ticks for determinism.
  void evaluate(const FlightRecorder::Tick& tick);

  struct RuleState {
    AlertRule rule;
    bool firing = false;
    double last_value = 0.0;  ///< metric value at the last evaluation
    std::uint64_t fired_total = 0;
    std::uint64_t resolved_total = 0;
    /// Tick uptime when the rule last changed state (0 if never).
    double changed_uptime_seconds = 0.0;
    std::uint64_t ticks_evaluated = 0;
  };
  std::vector<RuleState> states() const;

  /// Rules currently firing.
  std::uint64_t firing_count() const;

  /// {"firing":N,"rules":[{"rule":..,"state":"firing"|"ok","value":..,
  ///   "fired":..,"resolved":..,"since":..},...]}
  void write_json(std::ostream& out) const;

 private:
  struct Entry {
    RuleState state;
    int breach_streak = 0;
    int clear_streak = 0;
    Counter* fired_counter = nullptr;      ///< non-null iff registry
    Counter* resolved_counter = nullptr;
    Gauge* firing_gauge = nullptr;
  };

  /// The rule's metric value in this tick window (absent reads as 0).
  static double rule_value(const AlertRule& rule,
                           const FlightRecorder::Tick& tick);

  Registry* const registry_;
  Gauge* firing_total_gauge_ = nullptr;  ///< non-null iff registry

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace prts::obs
