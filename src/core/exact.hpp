// Exact tri-criteria optimization on homogeneous platforms: maximize
// reliability subject to period and latency bounds. This plays the role
// of the Section 5.4 integer linear program (the paper solves it with
// CPLEX, which is proprietary; see DESIGN.md for the substitution
// argument).
//
// Key structural facts (Section 5.5): on a homogeneous platform the
// period and latency of a mapping depend only on the partition, and for a
// fixed partition the optimal replication is Algo-Alloc (Theorem 4). The
// optimum over mappings is therefore the optimum over the 2^(n-1)
// partitions with at most min(n,p) intervals — 14 913 partitions at the
// paper's n = 15, p = 10. A stage's log-reliability log(1 - f^q) depends
// only on its interval and q, so the prepare computes it once per
// (interval, q) into a StageLogReliabilityTable (n(n+1)/2 intervals times
// min(K, p) values), and Algo-Alloc compares differences of its entries.
// The records live in one arena: period, latency and log-reliability
// arrays plus flat interval-end and replica-count arrays indexed by
// per-record offsets, sized exactly before the enumeration starts.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// An exact optimum with its full evaluation.
struct ExactSolution {
  Mapping mapping;
  MappingMetrics metrics;
};

/// Enumerates every partition once, attaches the Algo-Alloc reliability,
/// and answers (period, latency) queries by linear scan. Build once per
/// instance, query per sweep point.
class HomogeneousExactSolver {
 public:
  /// Precomputes all partition records. Throws std::invalid_argument on a
  /// heterogeneous platform (the problem is NP-complete there).
  HomogeneousExactSolver(const TaskChain& chain, const Platform& platform);

  /// One enumerated partition with its optimal allocation: a view into
  /// the solver's arena, valid while the solver lives.
  struct PartitionRecord {
    std::span<const std::size_t> lasts;  ///< last task of each interval
    std::span<const unsigned> replicas;  ///< Algo-Alloc replica counts
    double period = 0.0;                 ///< = worst = expected period
    double latency = 0.0;                ///< = worst = expected latency
    double log_reliability = 0.0;        ///< after optimal allocation
  };

  /// Every record in enumeration order, as a sized random-access range of
  /// PartitionRecord views.
  auto records() const {
    return std::views::iota(std::size_t{0}, period_.size()) |
           std::views::transform(
               [this](std::size_t i) { return record(i); });
  }

  /// Best log-reliability achievable with period <= period_bound and
  /// latency <= latency_bound, or nullopt when no partition fits.
  std::optional<double> best_log_reliability(double period_bound,
                                             double latency_bound) const;

  /// Like best_log_reliability, but materializes the optimal mapping
  /// (processor ids dealt in chain order) and its metrics.
  ///
  /// `log_reliability_floor` is a warm-start pruning cut (-inf: none):
  /// records strictly below it are skipped without comparison. Callers
  /// must pass a cut that the true optimum meets or beats (e.g.
  /// solver::warm_floor_cut of a known-feasible incumbent's
  /// reliability), which keeps the selected record — first winner on
  /// ties included — identical to the unpruned scan.
  std::optional<ExactSolution> solve(
      double period_bound, double latency_bound,
      double log_reliability_floor =
          -std::numeric_limits<double>::infinity()) const;

 private:
  PartitionRecord record(std::size_t i) const noexcept;

  /// The scan behind both queries: the first record of greatest
  /// log-reliability among those within the bounds and not below the
  /// floor, or nullopt.
  std::optional<std::size_t> best_record(double period_bound,
                                         double latency_bound,
                                         double log_reliability_floor) const;

  const TaskChain& chain_;
  const Platform& platform_;
  // The record arena: record i's intervals are entries offsets_[i] ..
  // offsets_[i + 1] - 1 of lasts_ and replicas_.
  std::vector<double> period_;
  std::vector<double> latency_;
  std::vector<double> log_reliability_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> lasts_;
  std::vector<unsigned> replicas_;
};

/// Pseudo-polynomial cross-check of the enumeration solver: a DP over
/// (prefix, processors used, accumulated latency) that requires every
/// interval computation time W/s and communication time o/b to be
/// integral (throws std::invalid_argument otherwise). Returns the best
/// log-reliability under the bounds, or nullopt when infeasible. Used by
/// tests; the enumeration solver is the production path.
std::optional<double> exact_dp_log_reliability(const TaskChain& chain,
                                               const Platform& platform,
                                               double period_bound,
                                               double latency_bound);

}  // namespace prts
