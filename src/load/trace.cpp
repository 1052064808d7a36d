#include "load/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "model/serialize.hpp"

namespace prts::load {

namespace {

constexpr const char* kHeader = "prts-load-trace v1";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void write_trace(std::ostream& out, const LoadTrace& trace) {
  out << kHeader << "\n";
  for (const auto& [key, value] : trace.meta) {
    out << "meta " << key << " " << value << "\n";
  }
  out << "events " << trace.events.size() << "\n";
  for (const ArrivalEvent& event : trace.events) {
    out << canonical_number(event.time_seconds) << " " << event.instance
        << " " << event.solver << " "
        << canonical_number(event.bounds.period_bound) << " "
        << canonical_number(event.bounds.latency_bound) << "\n";
  }
  out << "end\n";
}

bool read_trace(std::istream& in, LoadTrace& trace, std::string* error) {
  trace = LoadTrace{};
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return fail(error, "load trace: missing '" + std::string(kHeader) +
                           "' header");
  }
  std::size_t expected = 0;
  bool have_events_line = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string word;
    tokens >> word;
    if (word == "meta") {
      std::string key;
      if (!(tokens >> key)) return fail(error, "load trace: meta without key");
      std::string value;
      std::getline(tokens, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      trace.meta[key] = value;
      continue;
    }
    if (word == "events") {
      if (!(tokens >> expected)) {
        return fail(error, "load trace: bad events count");
      }
      have_events_line = true;
      continue;
    }
    break;  // first event line (or stray garbage, caught below)
  }
  if (!have_events_line) return fail(error, "load trace: missing events line");

  // `line` currently holds the first event (or "end" for empty traces).
  trace.events.reserve(expected);
  while (line != "end") {
    std::istringstream tokens(line);
    std::string time_text, period_text, latency_text;
    ArrivalEvent event;
    if (!(tokens >> time_text >> event.instance >> event.solver >>
          period_text >> latency_text) ||
        !parse_number(time_text, event.time_seconds) ||
        !parse_number(period_text, event.bounds.period_bound) ||
        !parse_number(latency_text, event.bounds.latency_bound)) {
      return fail(error, "load trace: bad event line '" + line + "'");
    }
    trace.events.push_back(std::move(event));
    if (!std::getline(in, line)) {
      return fail(error, "load trace: missing end marker");
    }
  }
  if (trace.events.size() != expected) {
    return fail(error, "load trace: event count mismatch");
  }
  return true;
}

std::string trace_to_string(const LoadTrace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

bool trace_from_string(const std::string& text, LoadTrace& trace,
                       std::string* error) {
  std::istringstream in(text);
  return read_trace(in, trace, error);
}

}  // namespace prts::load
