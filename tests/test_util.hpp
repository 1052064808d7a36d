// Shared helpers for randomized cross-validation tests: small random
// instances, random mappings, and tiny brute-force oracles.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"
#include "solver/solver.hpp"

namespace prts::testutil {

/// FNV-1a over 64-bit words: a digest of exact bit patterns.
class BitDigest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value_ ^= (word >> (8 * byte)) & 0xffU;
      value_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0xcbf29ce484222325ULL;
};

/// Mean processor speed of `platform`.
inline double mean_speed(const Platform& platform) {
  double sum = 0.0;
  for (std::size_t u = 0; u < platform.processor_count(); ++u) {
    sum += platform.speed(u);
  }
  return sum / static_cast<double>(platform.processor_count());
}

/// cold_sweep's ladder: period U(0.3, 0.6) times the work, latency from
/// 2.5 down to 1.0 times the work in 16 steps; the work is the chain's
/// total work over `speed`.
inline std::vector<solver::Bounds> sweep_ladder(Rng& rng,
                                                const TaskChain& chain,
                                                double speed) {
  constexpr std::size_t kSteps = 16;
  const double work = chain.total_work() / speed;
  const double period = work * rng.uniform_real(0.3, 0.6);
  std::vector<solver::Bounds> ladder;
  for (std::size_t step = 0; step < kSteps; ++step) {
    solver::Bounds bounds;
    bounds.period_bound = period;
    bounds.latency_bound =
        work * (2.5 - 1.5 * static_cast<double>(step) /
                          static_cast<double>(kSteps - 1));
    ladder.push_back(bounds);
  }
  return ladder;
}

/// Random chain with n tasks, integer works in [1, 20] and integer output
/// sizes in [0, 5]; last output forced to 0 (paper convention).
inline TaskChain small_chain(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    Task task;
    task.work = static_cast<double>(rng.uniform_int(1, 20));
    task.out_size = i + 1 == n
                        ? 0.0
                        : static_cast<double>(rng.uniform_int(0, 5));
    tasks.push_back(task);
  }
  return TaskChain(std::move(tasks));
}

/// Homogeneous platform with aggressive failure rates so Monte-Carlo and
/// brute-force differences are visible.
inline Platform small_hom_platform(std::size_t p, unsigned k,
                                   double lambda = 0.01,
                                   double link_lambda = 0.02) {
  return Platform::homogeneous(p, 1.0, lambda, 1.0, link_lambda, k);
}

/// Heterogeneous platform with random speeds in [1, 10] and random failure
/// rates around `lambda`.
inline Platform small_het_platform(Rng& rng, std::size_t p, unsigned k,
                                   double lambda = 0.01,
                                   double link_lambda = 0.02) {
  std::vector<Processor> procs;
  for (std::size_t u = 0; u < p; ++u) {
    Processor proc;
    proc.speed = static_cast<double>(rng.uniform_int(1, 10));
    proc.failure_rate = lambda * rng.uniform_real(0.2, 3.0);
    procs.push_back(proc);
  }
  return Platform(std::move(procs), 1.0, link_lambda, k);
}

/// Random partition of n tasks into m intervals (1 <= m <= n).
inline IntervalPartition random_partition(Rng& rng, std::size_t n,
                                          std::size_t m) {
  std::vector<std::size_t> cuts(n - 1);
  std::iota(cuts.begin(), cuts.end(), std::size_t{0});
  // Partial Fisher-Yates to pick m-1 distinct cut positions.
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(cuts.size() - 1)));
    std::swap(cuts[i], cuts[j]);
  }
  std::vector<std::size_t> lasts(cuts.begin(),
                                 cuts.begin() + static_cast<std::ptrdiff_t>(
                                                    m - 1));
  std::sort(lasts.begin(), lasts.end());
  lasts.push_back(n - 1);
  return IntervalPartition::from_boundaries(lasts, n);
}

/// Random valid mapping: random partition with m <= min(n, p) intervals,
/// each replicated 1..K times with disjoint processors.
inline Mapping random_mapping(Rng& rng, const TaskChain& chain,
                              const Platform& platform) {
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const std::size_t m = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(std::min(n, p))));
  IntervalPartition partition = random_partition(rng, n, m);

  std::vector<std::size_t> pool(p);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  // Shuffle the processor pool.
  for (std::size_t i = p; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(pool[i - 1], pool[j]);
  }
  std::size_t next = 0;
  std::size_t spare = p - m;  // processors beyond the mandatory one each
  std::vector<std::vector<std::size_t>> procs;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t extra_cap =
        std::min<std::size_t>(platform.max_replication() - 1, spare);
    const auto extra = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(extra_cap)));
    spare -= extra;
    std::vector<std::size_t> replica_set;
    for (std::size_t r = 0; r < 1 + extra; ++r) {
      replica_set.push_back(pool[next++]);
    }
    procs.push_back(std::move(replica_set));
  }
  return Mapping(std::move(partition), std::move(procs));
}

}  // namespace prts::testutil
