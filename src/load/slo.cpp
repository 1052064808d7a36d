#include "load/slo.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "model/serialize.hpp"

namespace prts::load {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool is_latency_metric(const std::string& metric) {
  return metric == "p50" || metric == "p90" || metric == "p99" ||
         metric == "p999" || metric == "mean";
}

bool known_metric(const std::string& metric) {
  return is_latency_metric(metric) || metric == "error_rate" ||
         metric == "reject_rate";
}

}  // namespace

bool parse_comparison(const std::string& text, Comparison& comparison,
                      std::string* error) {
  comparison = Comparison{};
  // Trim surrounding whitespace.
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return fail(error, "empty comparison");
  const std::string part =
      text.substr(begin, text.find_last_not_of(" \t") - begin + 1);

  // Two-character operators first so "<=" is not read as "<".
  std::size_t at = std::string::npos;
  std::size_t op_len = 0;
  for (const char* op : {"<=", ">=", "<", ">"}) {
    at = part.find(op);
    if (at != std::string::npos) {
      op_len = std::char_traits<char>::length(op);
      break;
    }
  }
  if (at == std::string::npos || at == 0) {
    return fail(error, "missing comparison operator in '" + part + "'");
  }
  comparison.metric = part.substr(0, at);
  comparison.op = part.substr(at, op_len);

  std::string bound_text = part.substr(at + op_len);
  double scale = 1.0;
  if (bound_text.size() > 2 &&
      bound_text.compare(bound_text.size() - 2, 2, "ms") == 0) {
    scale = 1e-3;
    bound_text.resize(bound_text.size() - 2);
  } else if (bound_text.size() > 2 &&
             bound_text.compare(bound_text.size() - 2, 2, "us") == 0) {
    scale = 1e-6;
    bound_text.resize(bound_text.size() - 2);
  } else if (bound_text.size() > 1 && bound_text.back() == 's') {
    bound_text.pop_back();
  }
  double value = 0.0;
  if (!parse_canonical_number(bound_text, value) || std::isnan(value)) {
    return fail(error, "bad bound '" + part.substr(at + op_len) + "'");
  }
  comparison.bound = value * scale;
  return true;
}

bool comparison_holds(double value, const std::string& op,
                      double bound) noexcept {
  if (op == "<=") return value <= bound;
  if (op == ">=") return value >= bound;
  if (op == "<") return value < bound;
  if (op == ">") return value > bound;
  return false;
}

bool parse_slo(const std::string& text, SloSpec& spec, std::string* error) {
  spec = SloSpec{};
  std::stringstream parts(text);
  std::string part;
  while (std::getline(parts, part, ';')) {
    if (part.find_first_not_of(" \t") == std::string::npos) continue;
    Comparison comparison;
    std::string why;
    if (!parse_comparison(part, comparison, &why)) {
      return fail(error, "slo: " + why);
    }
    // An SLO is a promise that bad things stay below a line: only "<="
    // makes sense, and only over the run-report metric set.
    if (comparison.op != "<=") {
      return fail(error, "slo: missing '<=' in '" + part + "'");
    }
    if (!known_metric(comparison.metric)) {
      return fail(error, "slo: unknown metric '" + comparison.metric + "'");
    }
    if (comparison.bound < 0.0) {
      return fail(error, "slo: bad bound in '" + part + "'");
    }
    spec.criteria.push_back(
        SloCriterion{std::move(comparison.metric), comparison.bound});
  }
  if (spec.criteria.empty()) return fail(error, "slo: empty spec");
  return true;
}

bool slo_metric_value(const RunResult& result, const std::string& metric,
                      double& value) {
  if (metric == "p50") {
    value = result.quantile(0.50);
  } else if (metric == "p90") {
    value = result.quantile(0.90);
  } else if (metric == "p99") {
    value = result.quantile(0.99);
  } else if (metric == "p999") {
    value = result.quantile(0.999);
  } else if (metric == "mean") {
    value = result.mean_latency();
  } else if (metric == "error_rate") {
    value = result.error_rate();
  } else if (metric == "reject_rate") {
    value = result.reject_rate();
  } else {
    return false;
  }
  return true;
}

SloReport evaluate_slo(const SloSpec& spec, const RunResult& result) {
  SloReport report;
  for (const SloCriterion& criterion : spec.criteria) {
    SloCheck check;
    check.metric = criterion.metric;
    check.bound = criterion.bound;
    slo_metric_value(result, criterion.metric, check.observed);
    check.pass = check.observed <= criterion.bound;
    if (!check.pass) report.pass = false;
    report.checks.push_back(std::move(check));
  }
  return report;
}

void write_slo_json(std::ostream& out, const SloReport& report) {
  out << "{\"pass\":" << (report.pass ? "true" : "false") << ",\"checks\":[";
  bool first = true;
  for (const SloCheck& check : report.checks) {
    if (!first) out << ",";
    first = false;
    out << "{\"metric\":\"" << check.metric
        << "\",\"bound\":" << check.bound
        << ",\"observed\":" << check.observed
        << ",\"pass\":" << (check.pass ? "true" : "false") << "}";
  }
  out << "]}";
}

namespace {

StepOutcome run_step(const std::function<RunResult(double)>& run_at,
                     const SloSpec& spec, double rate) {
  const RunResult result = run_at(rate);
  StepOutcome step;
  step.rate = rate;
  step.report = evaluate_slo(spec, result);
  step.pass = step.report.pass;
  step.submitted = result.submitted;
  step.answered = result.answered;
  step.rejected = result.rejected;
  step.errors = result.errors;
  step.unresolved = result.unresolved;
  step.p50 = result.quantile(0.50);
  step.p99 = result.quantile(0.99);
  return step;
}

}  // namespace

SearchResult max_sustainable_rate(
    const std::function<RunResult(double)>& run_at, const SloSpec& spec,
    const SearchOptions& options) {
  SearchResult search;
  const double min_rate = std::max(options.min_rate, 1e-3);
  const double max_rate = std::max(options.max_rate, min_rate);

  // Geometric ramp: double until failure or the ceiling.
  double last_pass = 0.0;
  double first_fail = 0.0;
  double rate = min_rate;
  while (search.steps.size() < options.max_steps) {
    StepOutcome step = run_step(run_at, spec, rate);
    const bool passed = step.pass;
    search.steps.push_back(std::move(step));
    if (passed) {
      last_pass = rate;
      if (rate >= max_rate) break;  // ceiling holds: call it sustainable
      rate = std::min(rate * 2.0, max_rate);
    } else {
      first_fail = rate;
      break;
    }
  }

  // Bisection inside the (last_pass, first_fail) bracket.
  if (last_pass > 0.0 && first_fail > last_pass) {
    double lo = last_pass;
    double hi = first_fail;
    while (search.steps.size() < options.max_steps &&
           (hi - lo) / hi > options.relative_tolerance) {
      const double mid = 0.5 * (lo + hi);
      StepOutcome step = run_step(run_at, spec, mid);
      const bool passed = step.pass;
      search.steps.push_back(std::move(step));
      if (passed) {
        lo = mid;
        last_pass = std::max(last_pass, mid);
      } else {
        hi = mid;
      }
    }
  }

  search.sustainable_rate = last_pass;
  search.ceiling_held = first_fail == 0.0 && last_pass > 0.0;
  return search;
}

}  // namespace prts::load
