#include "eval/evaluation.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace prts {
namespace {

/// Data size entering interval j: the output of the previous interval, or
/// 0 for the first interval (o_0 = 0, hence r_comm,0 = 1).
double incoming_size(const TaskChain& chain, const IntervalPartition& part,
                     std::size_t j) noexcept {
  return j == 0 ? 0.0 : part.out_size(chain, j - 1);
}

}  // namespace

double expected_computation_time(const Platform& platform, double work,
                                 std::span<const std::size_t> procs) noexcept {
  std::vector<std::size_t> order;
  return expected_computation_time(platform, work, procs, order);
}

double expected_computation_time(const Platform& platform, double work,
                                 std::span<const std::size_t> procs,
                                 std::vector<std::size_t>& order) noexcept {
  // Eq. (3): processors ordered fastest first; the u-th term is the case
  // where the u-1 faster replicas fail and the u-th succeeds, conditioned
  // on at least one success.
  order.assign(procs.begin(), procs.end());
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (platform.speed(a) != platform.speed(b)) {
                return platform.speed(a) > platform.speed(b);
              }
              return a < b;
            });
  double numerator = 0.0;
  double all_fail = 1.0;  // prod of failure probabilities so far
  for (std::size_t u : order) {
    const double duration = work / platform.speed(u);
    const double fail = failure_from_rate(platform.failure_rate(u), duration);
    numerator += (1.0 / platform.speed(u)) * (1.0 - fail) * all_fail;
    all_fail *= fail;
  }
  const double denominator = 1.0 - all_fail;
  if (!(denominator > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  return work * numerator / denominator;
}

double worst_computation_time(const Platform& platform, double work,
                              std::span<const std::size_t> procs) noexcept {
  double slowest = std::numeric_limits<double>::infinity();
  for (std::size_t u : procs) slowest = std::min(slowest, platform.speed(u));
  return work / slowest;
}

LogReliability branch_reliability(const Platform& platform, std::size_t proc,
                                  double work, double in_size,
                                  double out_size) noexcept {
  const double lambda_link = platform.link_failure_rate();
  LogReliability r = LogReliability::exp_failure(
      platform.failure_rate(proc), work / platform.speed(proc));
  if (in_size > 0.0) {
    r *= LogReliability::exp_failure(lambda_link,
                                     platform.comm_time(in_size));
  }
  if (out_size > 0.0) {
    r *= LogReliability::exp_failure(lambda_link,
                                     platform.comm_time(out_size));
  }
  return r;
}

LogReliability interval_reliability(const Platform& platform,
                                    std::span<const std::size_t> procs,
                                    double work, double in_size,
                                    double out_size) noexcept {
  double group_failure = 1.0;
  for (std::size_t u : procs) {
    group_failure *=
        branch_reliability(platform, u, work, in_size, out_size).failure();
  }
  return LogReliability::from_failure(group_failure);
}

LogReliability mapping_reliability(const TaskChain& chain,
                                   const Platform& platform,
                                   const Mapping& mapping) noexcept {
  const IntervalPartition& part = mapping.partition();
  LogReliability total;
  for (std::size_t j = 0; j < part.interval_count(); ++j) {
    total *= interval_reliability(platform, mapping.processors(j),
                                  part.work(chain, j),
                                  incoming_size(chain, part, j),
                                  part.out_size(chain, j));
  }
  return total;
}

MappingMetrics evaluate(const TaskChain& chain, const Platform& platform,
                        const Mapping& mapping) noexcept {
  const IntervalPartition& part = mapping.partition();
  MappingMetrics metrics;
  metrics.interval_count = part.interval_count();
  metrics.processors_used = mapping.processors_used();
  metrics.replication_level = mapping.replication_level();

  std::vector<std::size_t> order;  // expected_computation_time's buffer
  LogReliability reliability;
  double expected_latency = 0.0;
  double worst_latency = 0.0;
  double expected_period = 0.0;
  double worst_period = 0.0;
  for (std::size_t j = 0; j < part.interval_count(); ++j) {
    const double work = part.work(chain, j);
    const double out = part.out_size(chain, j);
    const auto procs = mapping.processors(j);

    reliability *= interval_reliability(platform, procs, work,
                                        incoming_size(chain, part, j), out);

    const double ec = expected_computation_time(platform, work, procs, order);
    const double wc = worst_computation_time(platform, work, procs);
    const double comm = platform.comm_time(out);
    expected_latency += ec + comm;
    worst_latency += wc + comm;
    expected_period = std::max({expected_period, ec, comm});
    worst_period = std::max({worst_period, wc, comm});
  }
  metrics.reliability = reliability;
  metrics.failure = reliability.failure();
  metrics.expected_latency = expected_latency;
  metrics.worst_latency = worst_latency;
  metrics.expected_period = expected_period;
  metrics.worst_period = worst_period;
  return metrics;
}

double homogeneous_partition_latency(
    const TaskChain& chain, const Platform& platform,
    const IntervalPartition& partition) noexcept {
  const double speed = platform.speed(0);
  double latency = 0.0;
  for (std::size_t j = 0; j < partition.interval_count(); ++j) {
    latency += partition.work(chain, j) / speed +
               platform.comm_time(partition.out_size(chain, j));
  }
  return latency;
}

double homogeneous_partition_period(
    const TaskChain& chain, const Platform& platform,
    const IntervalPartition& partition) noexcept {
  const double speed = platform.speed(0);
  double period = 0.0;
  for (std::size_t j = 0; j < partition.interval_count(); ++j) {
    period = std::max({period, partition.work(chain, j) / speed,
                       platform.comm_time(partition.out_size(chain, j))});
  }
  return period;
}

}  // namespace prts
