#include "core/reliability_dp.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dp_detail.hpp"

namespace prts {
namespace detail {

std::vector<std::vector<double>> interval_branch_failures(
    const TaskChain& chain, const Platform& platform) {
  const std::size_t n = chain.size();
  std::vector<std::vector<double>> failure(n + 1,
                                           std::vector<double>(n + 1, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i <= n; ++i) {
      const double in_size = j == 0 ? 0.0 : chain.out_size(j - 1);
      failure[j][i] = branch_reliability(platform, 0,
                                         chain.work_sum(j, i - 1), in_size,
                                         chain.out_size(i - 1))
                          .failure();
    }
  }
  return failure;
}

StageLogReliabilityTable::StageLogReliabilityTable(const TaskChain& chain,
                                                   const Platform& platform)
    : n_(chain.size()),
      max_q_(std::min<std::size_t>(platform.max_replication(),
                                   platform.processor_count())),
      values_(n_ * (n_ + 1) / 2 * max_q_) {
  const auto failure = interval_branch_failures(chain, platform);
  double* value = values_.data();
  for (std::size_t first = 0; first < n_; ++first) {
    for (std::size_t last = first; last < n_; ++last) {
      for (std::size_t q = 1; q <= max_q_; ++q) {
        *value++ = stage_log_reliability(failure[first][last + 1],
                                         static_cast<unsigned>(q));
      }
    }
  }
}

Mapping rebuild_mapping(const TaskChain& chain,
                        const std::vector<std::vector<DpChoice>>& parent,
                        std::size_t k_best) {
  // Walk the parents backwards to collect (interval, replicas) pairs.
  std::vector<std::pair<std::size_t, unsigned>> stages;  // (last+1, q)
  std::size_t i = chain.size();
  std::size_t k = k_best;
  while (i > 0) {
    const DpChoice& choice = parent[i][k];
    stages.emplace_back(i, choice.replicas);
    i = choice.prev_prefix;
    k -= choice.replicas;
  }
  std::reverse(stages.begin(), stages.end());

  std::vector<std::size_t> lasts;
  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  for (const auto& [end, q] : stages) {
    lasts.push_back(end - 1);
    std::vector<std::size_t> replica_set(q);
    for (unsigned r = 0; r < q; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  return Mapping(IntervalPartition::from_boundaries(lasts, chain.size()),
                 std::move(procs));
}

}  // namespace detail

DpSolution optimize_reliability(const TaskChain& chain,
                                const Platform& platform) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "optimize_reliability: Algorithm 1 requires a homogeneous platform "
        "(the heterogeneous problem is NP-complete, Theorem 5)");
  }
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const unsigned max_q = static_cast<unsigned>(
      std::min<std::size_t>(platform.max_replication(), p));

  const auto failure = detail::interval_branch_failures(chain, platform);

  // F[i][k]: best log-reliability for the first i tasks on exactly k
  // processors; -inf marks unreachable states.
  std::vector<std::vector<double>> F(
      n + 1, std::vector<double>(p + 1, detail::kMinusInf));
  std::vector<std::vector<detail::DpChoice>> parent(
      n + 1, std::vector<detail::DpChoice>(p + 1));
  F[0][0] = 0.0;

  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t k = 1; k <= p; ++k) {
      for (std::size_t j = 0; j < i; ++j) {
        const unsigned q_max = static_cast<unsigned>(
            std::min<std::size_t>(max_q, k));
        for (unsigned q = 1; q <= q_max; ++q) {
          const double before = F[j][k - q];
          if (before == detail::kMinusInf) continue;
          const double value =
              before + detail::stage_log_reliability(failure[j][i], q);
          if (value > F[i][k]) {
            F[i][k] = value;
            parent[i][k] = detail::DpChoice{j, q};
          }
        }
      }
    }
  }

  std::size_t k_best = 0;
  for (std::size_t k = 1; k <= p; ++k) {
    if (k_best == 0 || F[n][k] > F[n][k_best]) k_best = k;
  }
  return DpSolution{detail::rebuild_mapping(chain, parent, k_best),
                    LogReliability::from_log(F[n][k_best])};
}

}  // namespace prts
