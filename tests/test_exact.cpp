#include "core/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/heuristics.hpp"
#include "core/reliability_dp.hpp"
#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "solver/solver.hpp"
#include "test_oracle.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExactSolver, RejectsHeterogeneous) {
  Rng rng(1);
  const TaskChain chain = testutil::small_chain(rng, 4);
  const Platform platform = testutil::small_het_platform(rng, 4, 2);
  EXPECT_THROW(HomogeneousExactSolver(chain, platform),
               std::invalid_argument);
}

TEST(ExactSolver, EnumeratesAllPartitions) {
  Rng rng(2);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(6, 2);
  const HomogeneousExactSolver solver(chain, platform);
  // All 2^(n-1) = 16 partitions fit within min(n,p) = 5 intervals... the
  // 1 partition with 5 intervals included.
  EXPECT_EQ(solver.records().size(), 16u);
}

TEST(ExactSolver, LimitsIntervalCountToProcessors) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(2, 2);
  const HomogeneousExactSolver solver(chain, platform);
  for (const auto& record : solver.records()) {
    EXPECT_LE(record.lasts.size(), 2u);
  }
}

TEST(ExactSolver, UnboundedMatchesAlgorithm1) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(5, 2);
    const HomogeneousExactSolver solver(chain, platform);
    const auto best = solver.best_log_reliability(kInf, kInf);
    const auto dp = optimize_reliability(chain, platform);
    ASSERT_TRUE(best.has_value());
    EXPECT_NEAR(*best, dp.reliability.log(), 1e-10);
  }
}

class ExactSolverOptimality : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverOptimality, MatchesBruteForceUnderBothBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 600);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const TaskChain chain = testutil::small_chain(rng, n);
  const Platform platform = testutil::small_hom_platform(p, 2);
  const double period_bound = rng.uniform_real(5.0, 40.0);
  const double latency_bound = rng.uniform_real(15.0, 90.0);
  const HomogeneousExactSolver solver(chain, platform);
  const auto fast =
      solver.best_log_reliability(period_bound, latency_bound);
  const auto oracle = testutil::brute_force_best_log_reliability(
      chain, platform, period_bound, latency_bound);
  ASSERT_EQ(fast.has_value(), oracle.has_value())
      << "P=" << period_bound << " L=" << latency_bound;
  if (fast) {
    EXPECT_NEAR(*fast, *oracle, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSolverOptimality,
                         ::testing::Range(0, 40));

TEST(ExactSolver, SolveReturnsConsistentMapping) {
  Rng rng(5);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const HomogeneousExactSolver solver(chain, platform);
  const auto solution = solver.solve(30.0, 80.0);
  if (!solution) GTEST_SKIP() << "bounds infeasible for this seed";
  ASSERT_FALSE(solution->mapping.validate(platform).has_value());
  EXPECT_LE(solution->metrics.worst_period, 30.0 + 1e-9);
  EXPECT_LE(solution->metrics.worst_latency, 80.0 + 1e-9);
  const auto best = solver.best_log_reliability(30.0, 80.0);
  EXPECT_NEAR(solution->metrics.reliability.log(), *best, 1e-10);
}

TEST(ExactSolver, NeverWorseThanHeuristics) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(6, 3);
    const double period_bound = rng.uniform_real(10.0, 50.0);
    const double latency_bound = rng.uniform_real(30.0, 100.0);
    const HomogeneousExactSolver solver(chain, platform);
    const auto exact =
        solver.best_log_reliability(period_bound, latency_bound);
    HeuristicOptions options;
    options.period_bound = period_bound;
    options.latency_bound = latency_bound;
    for (HeuristicKind kind :
         {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
      const auto heuristic = run_heuristic(chain, platform, kind, options);
      if (heuristic) {
        ASSERT_TRUE(exact.has_value());
        EXPECT_GE(*exact, heuristic->metrics.reliability.log() - 1e-9);
      }
    }
  }
}

TEST(ExactDp, AgreesWithEnumerationOnIntegerInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(5, 2);
    const double period_bound = std::floor(rng.uniform_real(5.0, 40.0));
    const double latency_bound = std::floor(rng.uniform_real(15.0, 90.0));
    const HomogeneousExactSolver solver(chain, platform);
    const auto via_enum =
        solver.best_log_reliability(period_bound, latency_bound);
    const auto via_dp = exact_dp_log_reliability(chain, platform,
                                                 period_bound,
                                                 latency_bound);
    ASSERT_EQ(via_enum.has_value(), via_dp.has_value());
    if (via_enum) {
      EXPECT_NEAR(*via_enum, *via_dp, 1e-9);
    }
  }
}

TEST(ExactDp, RejectsNonIntegralDurations) {
  const TaskChain chain({{1.5, 0.0}});
  const Platform platform = Platform::homogeneous(1, 1.0, 0.01, 1.0, 0.0, 1);
  EXPECT_THROW(exact_dp_log_reliability(chain, platform, kInf, kInf),
               std::invalid_argument);
}

TEST(ExactSolver, PaperScaleCompletesQuickly) {
  Rng rng(8);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  const HomogeneousExactSolver solver(chain, platform);
  // All partitions with <= 10 intervals out of 2^14.
  EXPECT_GT(solver.records().size(), 14000u);
  EXPECT_LE(solver.records().size(), 16384u);
  const auto best = solver.best_log_reliability(250.0, 750.0);
  // A mid-range bound pair from the paper's sweeps is usually feasible.
  if (best) {
    EXPECT_LT(*best, 0.0);
  }
}

TEST(ExactSolver, PrepareAllocatesPerSessionNotPerRecord) {
  Rng rng(8);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  const obs::AllocScope scope;
  const HomogeneousExactSolver solver(chain, platform);
  const std::uint64_t allocations = scope.delta().count;
  // 14,913 records in one arena: the prepare makes 27 allocations here
  // (failure matrix, stage table, six arena arrays, two enumeration
  // stacks), not two per record.
  EXPECT_EQ(solver.records().size(), 14913u);
  EXPECT_LT(allocations, 300u);
}

using testutil::BitDigest;

/// Every record's interval ends, replica counts and the bits of its
/// period, latency and log-reliability, in enumeration order.
std::uint64_t record_digest(const HomogeneousExactSolver& solver) {
  BitDigest digest;
  digest.add(std::uint64_t{solver.records().size()});
  for (const auto& record : solver.records()) {
    digest.add(std::uint64_t{record.lasts.size()});
    for (std::size_t last : record.lasts) digest.add(std::uint64_t{last});
    for (unsigned q : record.replicas) digest.add(std::uint64_t{q});
    digest.add(record.period);
    digest.add(record.latency);
    digest.add(record.log_reliability);
  }
  return digest.value();
}

void add_answer(BitDigest& digest, const std::optional<ExactSolution>& answer) {
  if (!answer) {
    digest.add(std::uint64_t{0xdead});
    return;
  }
  const Mapping& mapping = answer->mapping;
  digest.add(std::uint64_t{mapping.interval_count()});
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    digest.add(std::uint64_t{mapping.partition().interval(j).last});
    for (std::size_t u : mapping.processors(j)) digest.add(std::uint64_t{u});
  }
  const MappingMetrics& metrics = answer->metrics;
  digest.add(metrics.reliability.log());
  digest.add(metrics.failure);
  digest.add(metrics.expected_latency);
  digest.add(metrics.worst_latency);
  digest.add(metrics.expected_period);
  digest.add(metrics.worst_period);
  digest.add(std::uint64_t{metrics.interval_count});
  digest.add(std::uint64_t{metrics.processors_used});
  digest.add(metrics.replication_level);
}

/// solve() over a 16-step latency ladder from work plus every output
/// (a cut after each task, at speed and bandwidth 1) down to the work
/// alone, with a period bound that tightens along it so the answer moves:
/// loose to tight with no floor, then tight to loose with each feasible
/// answer's warm floor cut applied to the next rung.
std::uint64_t answer_digest(const HomogeneousExactSolver& solver,
                            const TaskChain& chain, double period_share) {
  constexpr std::size_t kSteps = 16;
  const double work = chain.total_work();
  double outputs = 0.0;
  for (std::size_t i = 0; i < chain.size(); ++i) outputs += chain.out_size(i);
  auto period = [&](std::size_t step) {
    return work * (period_share - 0.02 * static_cast<double>(step));
  };
  auto latency = [&](std::size_t step) {
    return work + outputs * (1.0 - static_cast<double>(step) /
                                       static_cast<double>(kSteps - 1));
  };
  BitDigest digest;
  std::vector<std::optional<ExactSolution>> cold;
  for (std::size_t step = 0; step < kSteps; ++step) {
    cold.push_back(solver.solve(period(step), latency(step)));
    add_answer(digest, cold.back());
  }
  double floor = -kInf;
  for (std::size_t step = kSteps; step-- > 0;) {
    const auto warm = solver.solve(period(step), latency(step), floor);
    add_answer(digest, warm);
    EXPECT_EQ(warm.has_value(), cold[step].has_value()) << "step " << step;
    if (warm && cold[step]) {
      EXPECT_EQ(warm->metrics, cold[step]->metrics) << "step " << step;
    }
    if (warm) floor = solver::warm_floor_cut(warm->metrics.reliability.log());
  }
  return digest.value();
}

struct PinnedInstance {
  const char* name;
  TaskChain chain;
  Platform platform;
  double period_share;
  std::uint64_t record_digest;
  std::uint64_t answer_digest;
};

// The digests were taken from the per-record implementation the arena
// replaced: the enumeration order and every double's bits must not move.
TEST(ExactSolver, RecordsAndAnswersArePinnedBitForBit) {
  std::vector<PinnedInstance> pins;
  const std::uint64_t section81[][2] = {
      {0xd9525838b88d6fe3ULL, 0x0293f649fc347b05ULL},
      {0x8b09e801d92528f8ULL, 0x6f95f40c5b020831ULL},
      {0x08943a7b118f2046ULL, 0x5ffa1bcfd1f2a0d5ULL},
  };
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    pins.push_back({"section 8.1", paper::chain(rng), paper::hom_platform(),
                    0.5 - 0.05 * static_cast<double>(seed - 11),
                    section81[seed - 11][0], section81[seed - 11][1]});
  }
  Rng small(14);
  // p < n with no replication at all.
  pins.push_back({"p < n, K = 1", testutil::small_chain(small, 12),
                  testutil::small_hom_platform(5, 1), 0.5,
                  0x0faec9781d806e5eULL, 0xb60432d91f3233adULL});
  // K far above p: the stage table must cap q at p, not at K.
  pins.push_back({"K = 1000, p = 4", testutil::small_chain(small, 9),
                  testutil::small_hom_platform(4, 1000), 0.5,
                  0xfe42dde2372c754aULL, 0x55c38423bfdd712dULL});
  // Interval ends past 64 rule out a bitmask shortcut.
  ChainConfig long_chain;
  long_chain.task_count = 70;
  pins.push_back({"70 tasks on 3", random_chain(small, long_chain),
                  Platform::homogeneous(3, paper::kHomSpeed,
                                        paper::kProcessorFailureRate,
                                        paper::kBandwidth,
                                        paper::kLinkFailureRate,
                                        paper::kMaxReplication),
                  0.6, 0x69c4469106a9725cULL, 0xecf9bc2a9d15dd75ULL});

  for (const PinnedInstance& pin : pins) {
    const HomogeneousExactSolver solver(pin.chain, pin.platform);
    EXPECT_EQ(record_digest(solver), pin.record_digest) << pin.name;
    EXPECT_EQ(answer_digest(solver, pin.chain, pin.period_share),
              pin.answer_digest)
        << pin.name;
  }
  const HomogeneousExactSolver long_solver(pins.back().chain,
                                           pins.back().platform);
  EXPECT_EQ(long_solver.records().size(), 2416u);
  std::size_t max_last = 0;
  for (const auto& record : long_solver.records()) {
    for (std::size_t last : record.lasts) max_last = std::max(max_last, last);
  }
  EXPECT_GT(max_last, 64u);
}

}  // namespace
}  // namespace prts
