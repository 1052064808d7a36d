// Shared machinery of the homogeneous dynamic programs (Algorithms 1-2).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/prob.hpp"
#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts::detail {

/// Branch failure probabilities f[j][i] of the candidate interval covering
/// tasks j..i-1 (0-based, half-open) on one homogeneous processor,
/// including its incoming and outgoing communications (Eq. (9) inner
/// term). Entries with j >= i are unused.
std::vector<std::vector<double>> interval_branch_failures(
    const TaskChain& chain, const Platform& platform);

/// Stage log-reliability of an interval with branch failure f replicated
/// q times: log(1 - f^q).
inline double stage_log_reliability(double branch_failure, unsigned q) {
  return std::log1p(-std::pow(branch_failure, static_cast<double>(q)));
}

/// stage_log_reliability of every candidate interval for q = 1..max_q(),
/// computed once per (interval, q) from interval_branch_failures.
/// max_q() is min(K, p): no allocation gives an interval more than K
/// replicas or more than the p processors, and Platform does not bound K.
class StageLogReliabilityTable {
 public:
  StageLogReliabilityTable(const TaskChain& chain, const Platform& platform);

  std::size_t max_q() const noexcept { return max_q_; }

  /// The interval covering tasks first..last (inclusive): row[q - 1] is
  /// its stage log-reliability with q replicas.
  const double* row(std::size_t first, std::size_t last) const noexcept {
    // Intervals are laid out by first task, then last task.
    return values_.data() +
           (first * (2 * n_ + 1 - first) / 2 + (last - first)) * max_q_;
  }

 private:
  std::size_t n_;
  std::size_t max_q_;
  std::vector<double> values_;
};

/// Backtracking record of the DP tables.
struct DpChoice {
  std::size_t prev_prefix = 0;
  unsigned replicas = 0;
};

/// Rebuilds the mapping from the DP parents at final state (n, k_best):
/// intervals in chain order, processor ids dealt consecutively.
Mapping rebuild_mapping(const TaskChain& chain,
                        const std::vector<std::vector<DpChoice>>& parent,
                        std::size_t k_best);

inline constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

}  // namespace prts::detail
