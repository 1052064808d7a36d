#include "core/exact.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/alloc.hpp"
#include "core/dp_detail.hpp"

namespace prts {

HomogeneousExactSolver::HomogeneousExactSolver(const TaskChain& chain,
                                               const Platform& platform)
    : chain_(chain), platform_(platform) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: exact tri-criteria optimization is only "
        "polynomial-by-enumeration on homogeneous platforms");
  }
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const std::size_t max_intervals = std::min(n, p);
  const double speed = platform.speed(0);
  const detail::StageLogReliabilityTable stages(chain, platform);

  // Size the arena exactly (growing it instead nearly doubles the
  // prepare): C(n-1, m-1) partitions have m intervals. The counts are
  // exact in a double for any instance small enough to enumerate; the
  // cap keeps the casts defined for any other.
  double partitions = 1.0;  // C(n-1, m-1)
  double record_total = 0.0;
  double interval_total = 0.0;
  for (std::size_t m = 1; m <= max_intervals; ++m) {
    record_total += partitions;
    interval_total += static_cast<double>(m) * partitions;
    partitions = partitions * static_cast<double>(n - m) /
                 static_cast<double>(m);
  }
  const auto records = static_cast<std::size_t>(std::min(record_total, 1e18));
  const auto intervals =
      static_cast<std::size_t>(std::min(interval_total, 1e18));
  period_.reserve(records);
  latency_.reserve(records);
  log_reliability_.reserve(records);
  offsets_.reserve(records + 1);
  lasts_.reserve(intervals);
  replicas_.reserve(intervals);
  offsets_.push_back(0);

  // The partition being built: its interval ends and their stage rows.
  std::vector<std::size_t> lasts;
  std::vector<const double*> rows;
  lasts.reserve(max_intervals);
  rows.reserve(max_intervals);

  auto add_record = [&](double period, double latency) {
    const std::size_t begin = lasts_.size();
    const std::size_t m = lasts.size();
    lasts_.insert(lasts_.end(), lasts.begin(), lasts.end());
    replicas_.resize(begin + m);
    const std::span<unsigned> counts(replicas_.data() + begin, m);
    algo_alloc(rows, stages.max_q(), p, counts);
    double log_rel = 0.0;
    for (std::size_t j = 0; j < m; ++j) log_rel += rows[j][counts[j] - 1];
    period_.push_back(period);
    latency_.push_back(latency);
    log_reliability_.push_back(log_rel);
    offsets_.push_back(lasts_.size());
  };

  // Depth-first over interval ends, so records keep the order that
  // decides ties between equal optima; the period and latency of a prefix
  // accumulate along the path.
  auto recurse = [&](auto&& self, std::size_t first, double period,
                     double latency) -> void {
    if (lasts.size() == max_intervals) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform.comm_time(chain.out_size(last));
      const double next_latency = latency + (work + comm);
      const double next_period = std::max({period, work, comm});
      lasts.push_back(last);
      rows.push_back(stages.row(first, last));
      if (last + 1 == n) {
        add_record(next_period, next_latency);
      } else {
        self(self, last + 1, next_period, next_latency);
      }
      lasts.pop_back();
      rows.pop_back();
    }
  };
  recurse(recurse, 0, 0.0, 0.0);
}

HomogeneousExactSolver::PartitionRecord HomogeneousExactSolver::record(
    std::size_t i) const noexcept {
  const std::size_t begin = offsets_[i];
  const std::size_t m = offsets_[i + 1] - begin;
  return PartitionRecord{
      std::span<const std::size_t>(lasts_.data() + begin, m),
      std::span<const unsigned>(replicas_.data() + begin, m), period_[i],
      latency_[i], log_reliability_[i]};
}

std::optional<std::size_t> HomogeneousExactSolver::best_record(
    double period_bound, double latency_bound,
    double log_reliability_floor) const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < period_.size(); ++i) {
    // Warm-start cut: a record strictly below a proven-achievable floor
    // can neither win nor tie with the winner, so skipping it keeps the
    // first-winner-on-ties selection identical to the unpruned scan.
    if (log_reliability_[i] < log_reliability_floor) continue;
    if (period_[i] > period_bound || latency_[i] > latency_bound) continue;
    if (!best || log_reliability_[i] > log_reliability_[*best]) best = i;
  }
  return best;
}

std::optional<double> HomogeneousExactSolver::best_log_reliability(
    double period_bound, double latency_bound) const {
  const auto best = best_record(period_bound, latency_bound,
                                -std::numeric_limits<double>::infinity());
  if (!best) return std::nullopt;
  return log_reliability_[*best];
}

std::optional<ExactSolution> HomogeneousExactSolver::solve(
    double period_bound, double latency_bound,
    double log_reliability_floor) const {
  const auto best =
      best_record(period_bound, latency_bound, log_reliability_floor);
  if (!best) return std::nullopt;

  const PartitionRecord winner = record(*best);
  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  for (unsigned q : winner.replicas) {
    std::vector<std::size_t> replica_set(q);
    for (unsigned r = 0; r < q; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  Mapping mapping(IntervalPartition::from_boundaries(winner.lasts,
                                                     chain_.size()),
                  std::move(procs));
  MappingMetrics metrics = evaluate(chain_, platform_, mapping);
  return ExactSolution{std::move(mapping), metrics};
}

std::optional<double> exact_dp_log_reliability(const TaskChain& chain,
                                               const Platform& platform,
                                               double period_bound,
                                               double latency_bound) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "exact_dp_log_reliability: homogeneous platforms only");
  }
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const double speed = platform.speed(0);
  const unsigned max_q =
      static_cast<unsigned>(std::min<std::size_t>(
          platform.max_replication(), p));

  // The latency dimension requires integral interval durations.
  auto as_index = [](double value) -> std::size_t {
    const double rounded = std::round(value);
    if (std::abs(value - rounded) > 1e-9) {
      throw std::invalid_argument(
          "exact_dp_log_reliability: interval durations must be integral");
    }
    return static_cast<std::size_t>(rounded);
  };

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += chain.work(i) / speed + platform.comm_time(chain.out_size(i));
  }
  const std::size_t max_latency = std::min(
      as_index(std::ceil(total)),
      latency_bound == std::numeric_limits<double>::infinity()
          ? as_index(std::ceil(total))
          : static_cast<std::size_t>(std::floor(latency_bound)));

  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);

  // F[i][k][l]: best log-reliability for the first i tasks on exactly k
  // processors with accumulated latency exactly l.
  const std::size_t lat_states = max_latency + 1;
  std::vector<double> F((n + 1) * (p + 1) * lat_states, detail::kMinusInf);
  auto at = [&](std::size_t i, std::size_t k, std::size_t l) -> double& {
    return F[(i * (p + 1) + k) * lat_states + l];
  };
  at(0, 0, 0) = 0.0;

  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double work = chain.work_sum(j, i - 1) / speed;
      const double comm = platform.comm_time(chain.out_size(i - 1));
      if (work > period_bound || comm > period_bound) continue;
      const std::size_t duration = as_index(work + comm);
      for (std::size_t k = 1; k <= p; ++k) {
        const unsigned q_hi =
            static_cast<unsigned>(std::min<std::size_t>(max_q, k));
        for (unsigned q = 1; q <= q_hi; ++q) {
          const double stage =
              detail::stage_log_reliability(branch_failure[j][i], q);
          for (std::size_t l = duration; l <= max_latency; ++l) {
            const double before = at(j, k - q, l - duration);
            if (before == detail::kMinusInf) continue;
            double& cell = at(i, k, l);
            cell = std::max(cell, before + stage);
          }
        }
      }
    }
  }

  double best = detail::kMinusInf;
  for (std::size_t k = 1; k <= p; ++k) {
    for (std::size_t l = 0; l <= max_latency; ++l) {
      best = std::max(best, at(n, k, l));
    }
  }
  if (best == detail::kMinusInf) return std::nullopt;
  return best;
}

}  // namespace prts
