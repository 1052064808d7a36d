// Local-search improvement of mappings — a step toward the paper's §9
// future work ("heuristics for even more difficult problems"). Starting
// from any feasible mapping (typically a Heur-L/Heur-P result), hill-climb
// over four neighborhood moves while keeping the period and latency
// bounds satisfied:
//   * split an interval at one of its inner boundaries,
//   * merge two adjacent intervals (freeing one replica set),
//   * move one replica processor from one interval to another,
//   * swap the replica sets of two intervals (useful on heterogeneous
//     platforms where fast processors should carry heavy intervals).
// Moves are accepted when they strictly improve the Eq. (9) reliability;
// the search is deterministic (first-improvement in a fixed move order)
// and stops at a local optimum or after `max_rounds` sweeps.
//
// With m intervals, p processors (I of them idle), interval j holding
// l_j tasks and k_j replicas, one sweep scores at most
//   I m                                   recruits,
//   2 sum_j (l_j - 1) D(k_j)              splits (refilled, then not),
//   m - 1                                 merges,
//   (m - 1) sum_j k_j <= (m - 1) p        replica moves,
//   m (m - 1) / 2                         swaps,
//   2 (m - 1)                             boundary shifts
// neighbours, where D(k) = 2^k - 2 for k <= 10 (every 2-way division)
// and k - 1 above (the cuts of the replica set's stored order). A
// neighbour costs O(m + p) to build and to fold its totals, plus the
// terms of the one or two intervals the move changed: O(k) for the
// period and latency, and only if those pass, O(k log k) for the
// Eq. (9) factor. Scoring allocates nothing; evaluate() runs once, on
// the final mapping.
//
// The bounds are read in one place: the check every scored state (the
// start and each neighbour) passes or fails, period <= period_bound and
// latency <= latency_bound. The search keeps the largest period and the
// largest latency any passing check compared, its *replay floor*. Run
// again from the same start under bounds anywhere between that floor
// and its own bounds, component-wise, each check decides as it did: a
// passed one compared values at most the floor, so it still passes, and
// a failed one compared a value above its old bound, so above the new
// one too. Every decision is the same, so the search returns the same
// mapping, metrics bits, rounds and moves_accepted. Nothing else reads
// the bounds: the constraints, max_rounds and the acceptance margin do
// not. A session that keeps the last result per start can answer any
// bounds in that box without searching (src/solver/adapters.cpp).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>

#include "eval/evaluation.hpp"
#include "model/constraints.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// Options for the local search.
struct LocalSearchOptions {
  double period_bound = std::numeric_limits<double>::infinity();
  double latency_bound = std::numeric_limits<double>::infinity();

  /// Check bounds against expected metrics instead of worst-case ones.
  bool use_expected_metrics = false;

  /// Optional task-processor eligibility (nullptr: everything allowed).
  const AllocationConstraints* constraints = nullptr;

  /// Maximum full neighborhood sweeps (see above for a sweep's cost).
  std::size_t max_rounds = 64;
};

/// Outcome of a local search run.
struct LocalSearchResult {
  Mapping mapping;
  MappingMetrics metrics;
  std::size_t rounds = 0;          ///< sweeps executed
  std::size_t moves_accepted = 0;  ///< improving moves taken
  /// The replay floor: the largest period and the largest latency that
  /// a passing bound check compared (expected times when the options
  /// say so). From the same start, any period bound in [floor_period,
  /// period_bound] and latency bound in [floor_latency, latency_bound]
  /// gives this result bit for bit, floor included (see above).
  double floor_period = 0.0;
  double floor_latency = 0.0;
};

/// Improves `start` (which must satisfy the bounds and be valid for the
/// platform) by hill-climbing; returns the improved mapping, never worse
/// than the start. Returns nullopt if `start` itself violates the bounds.
std::optional<LocalSearchResult> improve_mapping(
    const TaskChain& chain, const Platform& platform, const Mapping& start,
    const LocalSearchOptions& options = {});

}  // namespace prts
