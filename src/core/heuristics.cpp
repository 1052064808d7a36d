#include "core/heuristics.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

namespace prts {

IntervalPartition heur_l_partition(const TaskChain& chain,
                                   std::size_t interval_count) {
  const std::size_t n = chain.size();
  if (interval_count < 1 || interval_count > n) {
    throw std::invalid_argument("heur_l_partition: bad interval count");
  }
  // Candidate cut after task t costs o_t; pick the interval_count-1
  // cheapest cuts (ties by position, like the paper's stable sort).
  std::vector<std::size_t> cuts(n - 1);
  std::iota(cuts.begin(), cuts.end(), std::size_t{0});
  std::sort(cuts.begin(), cuts.end(), [&](std::size_t a, std::size_t b) {
    if (chain.out_size(a) != chain.out_size(b)) {
      return chain.out_size(a) < chain.out_size(b);
    }
    return a < b;
  });
  cuts.resize(interval_count - 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(n - 1);
  return IntervalPartition::from_boundaries(cuts, n);
}

namespace {

/// Algorithm 4's DP for every interval count up to `max_count` at once.
/// F(j, k) is the minimal max-contribution of the first j tasks split
/// into k intervals; a column never depends on the columns to its
/// right, so one table answers every count.
class HeurPTable {
 public:
  HeurPTable(const TaskChain& chain, std::size_t max_count, double speed,
             double bandwidth)
      : n_(chain.size()),
        columns_(max_count + 1),
        choice_((n_ + 1) * columns_, 0) {
    const auto inf = std::numeric_limits<double>::infinity();
    std::vector<double> best((n_ + 1) * columns_, inf);
    best[0] = 0.0;
    for (std::size_t j = 1; j <= n_; ++j) {
      const std::size_t k_hi = std::min(max_count, j);
      for (std::size_t prev = 0; prev < j; ++prev) {
        // Contribution of the interval covering tasks prev..j-1 to the
        // period: its computation time and its outgoing communication.
        const double contribution =
            std::max(chain.work_sum(prev, j - 1) / speed,
                     chain.out_size(j - 1) / bandwidth);
        // Each (j, k) still sees prev in ascending order, so the first
        // minimum wins as in the per-count DP.
        for (std::size_t k = 1; k <= std::min(k_hi, prev + 1); ++k) {
          const double before = best[prev * columns_ + k - 1];
          if (before == inf) continue;
          const double value = std::max(before, contribution);
          if (value < best[j * columns_ + k]) {
            best[j * columns_ + k] = value;
            choice_[j * columns_ + k] = prev;
          }
        }
      }
    }
  }

  /// The partition into `count` intervals (1 <= count <= max_count).
  IntervalPartition partition(std::size_t count) const {
    std::vector<std::size_t> lasts(count);
    std::size_t j = n_;
    for (std::size_t k = count; k >= 1; --k) {
      lasts[k - 1] = j - 1;
      j = choice_[j * columns_ + k];
    }
    return IntervalPartition::from_boundaries(lasts, n_);
  }

 private:
  std::size_t n_;
  std::size_t columns_;
  std::vector<std::size_t> choice_;
};

}  // namespace

IntervalPartition heur_p_partition(const TaskChain& chain,
                                   std::size_t interval_count, double speed,
                                   double bandwidth) {
  if (interval_count < 1 || interval_count > chain.size()) {
    throw std::invalid_argument("heur_p_partition: bad interval count");
  }
  return HeurPTable(chain, interval_count, speed, bandwidth)
      .partition(interval_count);
}

std::vector<HeuristicSolution> heuristic_candidates(
    const TaskChain& chain, const Platform& platform, HeuristicKind kind,
    const HeuristicOptions& options) {
  const std::size_t max_intervals =
      std::min(chain.size(), platform.processor_count());
  // Heur-P balances with the platform speed when it is meaningful (all
  // equal); otherwise the paper's unit-speed balancing applies.
  const double balance_speed =
      platform.is_homogeneous() ? platform.speed(0) : 1.0;

  AllocOptions alloc_options;
  alloc_options.period_bound = options.period_bound;
  alloc_options.constraints = options.constraints;

  std::optional<HeurPTable> heur_p;
  if (kind == HeuristicKind::kHeurP) {
    heur_p.emplace(chain, max_intervals, balance_speed, platform.bandwidth());
  }

  std::vector<HeuristicSolution> candidates;
  for (std::size_t i = 1; i <= max_intervals; ++i) {
    IntervalPartition partition = kind == HeuristicKind::kHeurL
                                      ? heur_l_partition(chain, i)
                                      : heur_p->partition(i);
    auto mapping =
        allocate_processors(chain, platform, partition, alloc_options);
    if (!mapping) continue;
    MappingMetrics metrics = evaluate(chain, platform, *mapping);
    candidates.push_back(HeuristicSolution{std::move(*mapping), metrics});
  }
  return candidates;
}

const HeuristicSolution* best_heuristic_candidate(
    std::span<const HeuristicSolution> candidates, double period_bound,
    double latency_bound, bool use_expected_metrics,
    double log_reliability_floor) {
  const HeuristicSolution* best = nullptr;
  for (const HeuristicSolution& candidate : candidates) {
    // Warm-start cut: strictly below a proven-achievable floor a
    // candidate can neither win nor tie, so skipping keeps the
    // first-winner selection identical.
    if (candidate.metrics.reliability.log() < log_reliability_floor) {
      continue;
    }
    const double period = use_expected_metrics
                              ? candidate.metrics.expected_period
                              : candidate.metrics.worst_period;
    const double latency = use_expected_metrics
                               ? candidate.metrics.expected_latency
                               : candidate.metrics.worst_latency;
    if (period > period_bound || latency > latency_bound) continue;
    if (best == nullptr ||
        candidate.metrics.reliability > best->metrics.reliability) {
      best = &candidate;
    }
  }
  return best;
}

std::optional<HeuristicSolution> run_heuristic(const TaskChain& chain,
                                               const Platform& platform,
                                               HeuristicKind kind,
                                               const HeuristicOptions& options) {
  const auto candidates =
      heuristic_candidates(chain, platform, kind, options);
  const HeuristicSolution* best = best_heuristic_candidate(
      candidates, options.period_bound, options.latency_bound,
      options.use_expected_metrics);
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace prts
