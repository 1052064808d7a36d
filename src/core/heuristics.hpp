// The two-phase heuristics of Section 7 for the general (NP-complete)
// problem: first split the chain into i intervals — Heur-L (Algorithm 3)
// cuts at the smallest communication costs to favor latency, Heur-P
// (Algorithm 4) balances interval loads with a DP to favor the period —
// then allocate processors with the (heterogeneous) Algo-Alloc variant.
// One candidate schedule is produced per interval count i = 1..min(n,p);
// the driver keeps the most reliable candidate meeting the period and
// latency bounds.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/alloc.hpp"
#include "eval/evaluation.hpp"
#include "model/constraints.hpp"
#include "model/interval.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// Which interval-computation heuristic to use.
enum class HeuristicKind {
  kHeurL,  ///< Algorithm 3: cut at the smallest communication costs.
  kHeurP,  ///< Algorithm 4: balance interval loads (min-period DP).
};

/// Algorithm 3: the partition into `interval_count` intervals that cuts
/// the chain after the interval_count-1 cheapest output communications.
/// Requires 1 <= interval_count <= n.
IntervalPartition heur_l_partition(const TaskChain& chain,
                                   std::size_t interval_count);

/// Algorithm 4: the partition into `interval_count` intervals minimizing
/// max_j max(W_j / speed, o_j / bandwidth) — the optimal period on a
/// homogeneous platform of the given speed (Theorem-free DP; the paper
/// uses unit speed and bandwidth). Requires 1 <= interval_count <= n.
/// heuristic_candidates runs this DP once for every count it needs.
IntervalPartition heur_p_partition(const TaskChain& chain,
                                   std::size_t interval_count,
                                   double speed = 1.0,
                                   double bandwidth = 1.0);

/// Options for the heuristic driver.
struct HeuristicOptions {
  double period_bound = std::numeric_limits<double>::infinity();
  double latency_bound = std::numeric_limits<double>::infinity();

  /// Check the bounds against expected metrics instead of worst-case ones
  /// (they coincide on homogeneous platforms).
  bool use_expected_metrics = false;

  /// Optional task-processor eligibility (nullptr: everything allowed).
  const AllocationConstraints* constraints = nullptr;
};

/// A candidate schedule with its full evaluation.
struct HeuristicSolution {
  Mapping mapping;
  MappingMetrics metrics;
};

/// Phase 1 + phase 2 for every interval count i = 1..min(n,p): returns
/// each candidate for which the allocator succeeds under the period
/// bound. The latency bound is *not* applied here (see run_heuristic).
std::vector<HeuristicSolution> heuristic_candidates(
    const TaskChain& chain, const Platform& platform, HeuristicKind kind,
    const HeuristicOptions& options = {});

/// The Section 8 selection rule shared by run_heuristic and the cached
/// solver sessions (src/solver/adapters.cpp): the most reliable
/// candidate meeting both bounds, first winner kept on ties; nullptr
/// when none qualifies.
///
/// `log_reliability_floor` is a warm-start pruning cut (-inf: none):
/// candidates strictly below it are skipped without the bounds checks.
/// With a cut the winner meets or beats (solver::warm_floor_cut of a
/// known-feasible incumbent), the selection — ties included — is
/// identical to the unpruned scan.
const HeuristicSolution* best_heuristic_candidate(
    std::span<const HeuristicSolution> candidates, double period_bound,
    double latency_bound, bool use_expected_metrics = false,
    double log_reliability_floor =
        -std::numeric_limits<double>::infinity());

/// The most reliable candidate meeting both bounds, or nullopt. This is
/// the selection rule used in the experiments of Section 8.
std::optional<HeuristicSolution> run_heuristic(
    const TaskChain& chain, const Platform& platform, HeuristicKind kind,
    const HeuristicOptions& options = {});

}  // namespace prts
