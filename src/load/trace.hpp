// Replayable load traces (src/load/): the arrival schedule of an
// open-loop run as a value, serialized to a line-oriented text format.
// A trace is what makes a load experiment an *artifact*: the same trace
// replayed against two builds (or two fabric layouts) offers the same
// requests at the same instants, so latency differences are the
// system's, not the workload's.
//
// Doubles are written with model/serialize.hpp's canonical_number, so
// write -> read -> write is byte-identical and two generator runs with
// the same seed produce bit-equal trace files — the determinism
// contract Arrivals.SameSeedSameTrace (tests/test_load.cpp) holds.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "solver/solver.hpp"

namespace prts::load {

/// One scheduled request: at `time_seconds` after run start, offer
/// instance `instance` (an index into the run's instance corpus) to
/// `solver` under `bounds`.
struct ArrivalEvent {
  double time_seconds = 0.0;
  std::size_t instance = 0;
  std::string solver;
  solver::Bounds bounds;
};

/// An arrival schedule plus the generator parameters that produced it
/// (free-form key/value metadata; a replay does not interpret it).
struct LoadTrace {
  /// std::map: meta serializes in key order, keeping files canonical.
  std::map<std::string, std::string> meta;
  std::vector<ArrivalEvent> events;  ///< non-decreasing time_seconds
};

/// Text format:
///   prts-load-trace v1
///   meta <key> <value>          (zero or more, key-sorted)
///   events <count>
///   <time> <instance> <solver> <period_bound> <latency_bound>
///   ...
///   end
void write_trace(std::ostream& out, const LoadTrace& trace);

/// Returns false (and sets `error` when given) on malformed input.
bool read_trace(std::istream& in, LoadTrace& trace,
                std::string* error = nullptr);

std::string trace_to_string(const LoadTrace& trace);
bool trace_from_string(const std::string& text, LoadTrace& trace,
                       std::string* error = nullptr);

}  // namespace prts::load
