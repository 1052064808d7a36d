#include "core/alloc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dp_detail.hpp"
#include "eval/evaluation.hpp"

namespace prts {
namespace {

/// Failure probability of one replica branch of interval j on processor u
/// (Eq. (9) inner term: comm-in, compute, comm-out in series).
double branch_failure_on(const TaskChain& chain, const Platform& platform,
                         const IntervalPartition& part, std::size_t j,
                         std::size_t u) {
  const double in_size = j == 0 ? 0.0 : part.out_size(chain, j - 1);
  return branch_reliability(platform, u, part.work(chain, j), in_size,
                            part.out_size(chain, j))
      .failure();
}

}  // namespace

std::vector<unsigned> algo_alloc_counts(std::span<const double> branch_failure,
                                        std::size_t processor_count,
                                        unsigned max_replication) {
  const std::size_t m = branch_failure.size();
  if (m > processor_count) return {};
  const std::size_t max_q =
      std::min<std::size_t>(max_replication, processor_count);
  std::vector<double> values(m * max_q);
  std::vector<const double*> rows(m);
  for (std::size_t j = 0; j < m; ++j) {
    rows[j] = values.data() + j * max_q;
    for (std::size_t q = 1; q <= max_q; ++q) {
      values[j * max_q + q - 1] = detail::stage_log_reliability(
          branch_failure[j], static_cast<unsigned>(q));
    }
  }
  std::vector<unsigned> counts(m);
  algo_alloc(rows, max_q, processor_count, counts);
  return counts;
}

void algo_alloc(std::span<const double* const> rows, std::size_t max_q,
                std::size_t processor_count, std::span<unsigned> counts) {
  const std::size_t m = rows.size();
  std::fill(counts.begin(), counts.end(), 1U);

  // log-reliability gain of going from q to q+1 replicas on interval j:
  // log1p(-f^(q+1)) - log1p(-f^q); Theorem 4 shows it decreases with q, so
  // the greedy argmax over intervals is optimal. No count reaches
  // processor_count while a processor is spare, so capping at max_q caps
  // at max_replication.
  for (std::size_t used = m; used < processor_count; ++used) {
    double best_gain = -1.0;
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      const unsigned q = counts[j];
      if (q >= max_q) continue;
      const double gain = rows[j][q] - rows[j][q - 1];
      if (gain > best_gain) {
        best_gain = gain;
        best_j = j;
      }
    }
    if (best_j == m) break;  // every interval already at K replicas
    ++counts[best_j];
  }
}

std::optional<Mapping> allocate_processors(const TaskChain& chain,
                                           const Platform& platform,
                                           const IntervalPartition& partition,
                                           const AllocOptions& options) {
  const std::size_t m = partition.interval_count();
  const std::size_t p = platform.processor_count();
  if (m > p) return std::nullopt;

  // Visit processors from most to least reliable per unit of work
  // (increasing lambda_u / s_u); ties broken by speed (faster first) so
  // the homogeneous case degenerates to an arbitrary but fixed order.
  std::vector<std::size_t> order(p);
  for (std::size_t u = 0; u < p; ++u) order[u] = u;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ka = platform.failure_rate(a) / platform.speed(a);
    const double kb = platform.failure_rate(b) / platform.speed(b);
    if (ka != kb) return ka < kb;
    if (platform.speed(a) != platform.speed(b)) {
      return platform.speed(a) > platform.speed(b);
    }
    return a < b;
  });

  auto fits = [&](std::size_t j, std::size_t u) {
    if (partition.work(chain, j) / platform.speed(u) > options.period_bound) {
      return false;
    }
    return options.constraints == nullptr ||
           options.constraints->interval_allowed(partition.interval(j), u);
  };

  std::vector<std::vector<std::size_t>> assigned(m);
  // Product of branch failures of the replicas currently on interval j
  // (1.0 while empty: the parallel group of zero branches always fails,
  // but we track the product separately from emptiness).
  std::vector<double> group_failure(m, 1.0);

  // Phase 1: one processor per interval — each processor, in reliability
  // order, serves the longest (largest weight) still-empty interval it can.
  std::size_t served = 0;
  std::vector<bool> used(p, false);
  for (std::size_t u : order) {
    if (served == m) break;
    double best_work = -1.0;
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!assigned[j].empty()) continue;
      if (!fits(j, u)) continue;
      const double work = partition.work(chain, j);
      if (work > best_work) {
        best_work = work;
        best_j = j;
      }
    }
    if (best_j == m) continue;  // this processor cannot serve any interval
    assigned[best_j].push_back(u);
    group_failure[best_j] =
        branch_failure_on(chain, platform, partition, best_j, u);
    used[u] = true;
    ++served;
  }
  if (served < m) return std::nullopt;

  // Phase 2: every remaining processor goes to the interval with the best
  // reliability ratio it can serve.
  for (std::size_t u : order) {
    if (used[u]) continue;
    double best_gain = -1.0;
    std::size_t best_j = m;
    double best_failure = 1.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (assigned[j].size() >= platform.max_replication()) continue;
      if (!fits(j, u)) continue;
      const double f_branch =
          branch_failure_on(chain, platform, partition, j, u);
      // ratio = (1 - F*f) / (1 - F), in log space for stability.
      const double g = std::log1p(-group_failure[j] * f_branch) -
                       std::log1p(-group_failure[j]);
      if (g > best_gain) {
        best_gain = g;
        best_j = j;
        best_failure = f_branch;
      }
    }
    if (best_j == m) continue;  // nowhere to put it: leave it unused
    assigned[best_j].push_back(u);
    group_failure[best_j] *= best_failure;
  }

  return Mapping(partition, std::move(assigned));
}

}  // namespace prts
