#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/reliability_dp.hpp"
#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "solver/registry.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LocalSearch, NeverWorsensTheStart) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_het_platform(rng, 6, 3);
    const Mapping start = testutil::random_mapping(rng, chain, platform);
    const auto improved = improve_mapping(chain, platform, start);
    ASSERT_TRUE(improved.has_value());
    EXPECT_GE(improved->metrics.reliability.log(),
              mapping_reliability(chain, platform, start).log() - 1e-12);
    EXPECT_FALSE(improved->mapping.validate(platform).has_value());
  }
}

TEST(LocalSearch, RespectsBounds) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_het_platform(rng, 6, 2);
    HeuristicOptions heuristic_options;
    heuristic_options.period_bound = rng.uniform_real(8.0, 40.0);
    heuristic_options.latency_bound = rng.uniform_real(25.0, 120.0);
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurP,
                                     heuristic_options);
    if (!start) continue;
    LocalSearchOptions options;
    options.period_bound = heuristic_options.period_bound;
    options.latency_bound = heuristic_options.latency_bound;
    const auto improved =
        improve_mapping(chain, platform, start->mapping, options);
    ASSERT_TRUE(improved.has_value());
    EXPECT_LE(improved->metrics.worst_period,
              options.period_bound + 1e-9);
    EXPECT_LE(improved->metrics.worst_latency,
              options.latency_bound + 1e-9);
    EXPECT_GE(improved->metrics.reliability.log(),
              start->metrics.reliability.log() - 1e-12);
  }
}

TEST(LocalSearch, InfeasibleStartRejected) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const Mapping start = testutil::random_mapping(rng, chain, platform);
  LocalSearchOptions options;
  options.period_bound = 1e-9;  // nothing satisfies this
  EXPECT_FALSE(improve_mapping(chain, platform, start, options).has_value());
}

TEST(LocalSearch, ReachesOptimumFromPoorStartOnSmallInstances) {
  // Hill climbing will not always reach the global optimum, but from a
  // deliberately poor start (everything in one interval on one slow
  // processor pair) it must close most of the gap; on many small
  // homogeneous instances it lands exactly on the optimum.
  Rng rng(4);
  std::size_t exact_hits = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 5);
    const Platform platform = testutil::small_hom_platform(6, 3);
    const Mapping start(IntervalPartition::single(5), {{0}});
    const auto improved = improve_mapping(chain, platform, start);
    ASSERT_TRUE(improved.has_value());
    const auto optimum = optimize_reliability(chain, platform);
    EXPECT_LE(improved->metrics.reliability.log(),
              optimum.reliability.log() + 1e-12);
    if (improved->metrics.reliability.log() >=
        optimum.reliability.log() - 1e-9) {
      ++exact_hits;
    }
    // The start had one replica on one interval; any improvement implies
    // the climb worked at all.
    EXPECT_GT(improved->metrics.reliability.log(),
              mapping_reliability(chain, platform, start).log());
  }
  EXPECT_GE(exact_hits, static_cast<std::size_t>(trials / 2));
}

TEST(LocalSearch, ImprovesHeuristicsOnHeterogeneousInstances) {
  // Aggregate check: across instances, local search starting from the
  // best heuristic result is never worse and sometimes strictly better.
  Rng rng(5);
  std::size_t strict_improvements = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 7);
    const Platform platform = testutil::small_het_platform(rng, 7, 3);
    HeuristicOptions heuristic_options;
    heuristic_options.period_bound = 30.0;
    heuristic_options.latency_bound = 150.0;
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurP,
                                     heuristic_options);
    if (!start) continue;
    LocalSearchOptions options;
    options.period_bound = heuristic_options.period_bound;
    options.latency_bound = heuristic_options.latency_bound;
    const auto improved =
        improve_mapping(chain, platform, start->mapping, options);
    ASSERT_TRUE(improved.has_value());
    if (improved->metrics.reliability.log() >
        start->metrics.reliability.log() + 1e-9) {
      ++strict_improvements;
    }
  }
  EXPECT_GT(strict_improvements, 0u);
}

TEST(LocalSearch, HonorsAllocationConstraints) {
  Rng rng(6);
  const TaskChain chain = testutil::small_chain(rng, 4);
  const Platform platform = testutil::small_hom_platform(4, 2);
  auto constraints = AllocationConstraints::all_allowed(4, 4);
  // Task 0 may only run on processor 0.
  for (std::size_t u : {1u, 2u, 3u}) constraints.forbid(0, u);
  const Mapping start(IntervalPartition::single(4), {{0}});
  LocalSearchOptions options;
  options.constraints = &constraints;
  const auto improved = improve_mapping(chain, platform, start, options);
  ASSERT_TRUE(improved.has_value());
  // Whatever the result, the interval containing task 0 only uses P0.
  const std::size_t j =
      improved->mapping.partition().interval_of(0);
  for (std::size_t u : improved->mapping.processors(j)) {
    EXPECT_EQ(u, 0u);
  }
}

TEST(LocalSearch, TerminatesWithinRoundLimit) {
  Rng rng(7);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_het_platform(rng, 6, 3);
  const Mapping start = testutil::random_mapping(rng, chain, platform);
  LocalSearchOptions options;
  options.max_rounds = 2;
  const auto improved = improve_mapping(chain, platform, start, options);
  ASSERT_TRUE(improved.has_value());
  EXPECT_LE(improved->rounds, 2u);
}

TEST(LocalSearch, UnboundedSearchOnHomInstancesMatchesAlgorithm1Often) {
  Rng rng(8);
  std::size_t matches = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(6, 2);
    HeuristicOptions heuristic_options;
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurL,
                                     heuristic_options);
    ASSERT_TRUE(start.has_value());
    const auto improved =
        improve_mapping(chain, platform, start->mapping);
    ASSERT_TRUE(improved.has_value());
    const auto optimum = optimize_reliability(chain, platform);
    if (improved->metrics.reliability.log() >=
        optimum.reliability.log() - 1e-9) {
      ++matches;
    }
  }
  EXPECT_GE(matches, static_cast<std::size_t>(trials * 2 / 3));
}

// ------------------------------------------------------ pinned answers

using testutil::BitDigest;
using testutil::mean_speed;
using testutil::sweep_ladder;

void add_mapping(BitDigest& digest, const Mapping& mapping) {
  digest.add(std::uint64_t{mapping.interval_count()});
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    digest.add(std::uint64_t{mapping.partition().interval(j).last});
    digest.add(std::uint64_t{mapping.processors(j).size()});
    for (std::size_t u : mapping.processors(j)) digest.add(std::uint64_t{u});
  }
}

void add_metrics(BitDigest& digest, const MappingMetrics& metrics) {
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

void add_result(BitDigest& digest,
                const std::optional<LocalSearchResult>& result) {
  if (!result) {
    digest.add(std::uint64_t{0xdead});
    return;
  }
  add_mapping(digest, result->mapping);
  add_metrics(digest, result->metrics);
  digest.add(std::uint64_t{result->rounds});
  digest.add(std::uint64_t{result->moves_accepted});
}

void add_solution(BitDigest& digest,
                  const std::optional<solver::Solution>& solution) {
  if (!solution) {
    digest.add(std::uint64_t{0xdead});
    return;
  }
  add_mapping(digest, solution->mapping);
  add_metrics(digest, solution->metrics);
}

/// Both heuristics' best candidate, polished at every ladder point under
/// `base`'s metric choice and constraints; with `solvers`, also the
/// heur-l+ls and heur-p+ls answers at the same points.
std::uint64_t ladder_digest(const TaskChain& chain, const Platform& platform,
                            const std::vector<solver::Bounds>& ladder,
                            const LocalSearchOptions& base, bool solvers) {
  BitDigest digest;
  for (const HeuristicKind kind :
       {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
    for (const solver::Bounds& bounds : ladder) {
      HeuristicOptions heuristic;
      heuristic.period_bound = bounds.period_bound;
      heuristic.latency_bound = bounds.latency_bound;
      heuristic.use_expected_metrics = base.use_expected_metrics;
      heuristic.constraints = base.constraints;
      const auto start = run_heuristic(chain, platform, kind, heuristic);
      if (!start) {
        digest.add(std::uint64_t{0xbeef});
        continue;
      }
      LocalSearchOptions options = base;
      options.period_bound = bounds.period_bound;
      options.latency_bound = bounds.latency_bound;
      add_result(digest,
                 improve_mapping(chain, platform, start->mapping, options));
    }
  }
  if (solvers) {
    const Instance instance{chain, platform};
    for (const char* name : {"heur-l+ls", "heur-p+ls"}) {
      const auto engine = solver::SolverRegistry::builtin().find(name);
      for (const solver::Bounds& bounds : ladder) {
        add_solution(digest, engine->solve(instance, bounds));
      }
    }
  }
  return digest.value();
}

// The digests pin the move order, the replica order each move sees and
// every double's bits of the search and of the +ls engines' answers.
TEST(LocalSearch, AnswersArePinnedBitForBit) {
  const LocalSearchOptions defaults;
  const std::uint64_t section81[] = {0x9b3b367584e8a11fULL,
                                     0xe18dbcd7b2e1b521ULL,
                                     0x817b7c5961ddb4ffULL};
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    const auto ladder = sweep_ladder(rng, chain, paper::kHomSpeed);
    EXPECT_EQ(ladder_digest(chain, paper::hom_platform(), ladder, defaults,
                            true),
              section81[seed - 21])
        << "section 8.1 seed " << seed;
  }
  const std::uint64_t section82[] = {0xe5484e948839855fULL,
                                     0xeb2da107a9542aecULL,
                                     0x2ad86bfb16f7d07dULL};
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    const Platform platform = paper::het_platform(rng);
    // At the mean speed the heuristics' answer is already a local
    // optimum on most rungs; 1.3 times it makes the search move on all
    // three platforms.
    const auto ladder =
        sweep_ladder(rng, chain, 1.3 * mean_speed(platform));
    EXPECT_EQ(ladder_digest(chain, platform, ladder, defaults, true),
              section82[seed - 31])
        << "section 8.2 seed " << seed;
  }

  Rng rng(41);
  {
    // Forbidden placements on a platform whose failure rates differ too.
    const TaskChain chain = paper::chain(rng);
    const Platform platform = testutil::small_het_platform(rng, 10, 3, 1e-4,
                                                           1e-5);
    auto constraints = AllocationConstraints::all_allowed(chain.size(), 10);
    for (std::size_t t = 0; t < chain.size(); ++t) {
      constraints.forbid(t, (3 * t) % 10);
      constraints.forbid(t, (7 * t + 1) % 10);
    }
    LocalSearchOptions options;
    options.constraints = &constraints;
    const auto ladder =
        sweep_ladder(rng, chain, mean_speed(platform));
    EXPECT_EQ(ladder_digest(chain, platform, ladder, options, false),
              0xa21d1f032e5b1310ULL)
        << "forbidden placements";
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform = testutil::small_het_platform(rng, 10, 3, 1e-3,
                                                           1e-4);
    LocalSearchOptions options;
    options.use_expected_metrics = true;
    const auto ladder =
        sweep_ladder(rng, chain, mean_speed(platform));
    EXPECT_EQ(ladder_digest(chain, platform, ladder, options, false),
              0x0f3d4e06f370bac5ULL)
        << "expected metrics";
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform = Platform::homogeneous(
        10, 1.0, paper::kProcessorFailureRate, paper::kBandwidth,
        paper::kLinkFailureRate, 1);
    const auto ladder = sweep_ladder(rng, chain, 1.0);
    EXPECT_EQ(ladder_digest(chain, platform, ladder, defaults, true),
              0xbb6c8921e5540e53ULL)
        << "K = 1";
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform = testutil::small_het_platform(rng, 4, 3, 1e-4,
                                                           1e-5);
    const auto ladder =
        sweep_ladder(rng, chain, mean_speed(platform));
    EXPECT_EQ(ladder_digest(chain, platform, ladder, defaults, true),
              0x757b3b94b817f8c5ULL)
        << "p < n";
  }
  {
    // A replica set exactly 10 wide: every split of it is still tried.
    const TaskChain chain = testutil::small_chain(rng, 8);
    const Platform platform =
        testutil::small_het_platform(rng, 12, 10, 0.1, 1e-3);
    const Mapping start(IntervalPartition::single(8),
                        {{9, 0, 8, 1, 7, 2, 6, 3, 5, 4}});
    const MappingMetrics at_start = evaluate(chain, platform, start);
    BitDigest digest;
    for (const double share : {kInf, 1.2, 1.0}) {
      LocalSearchOptions options;
      options.period_bound = at_start.worst_period * share;
      options.latency_bound = at_start.worst_latency * share;
      add_result(digest, improve_mapping(chain, platform, start, options));
    }
    EXPECT_EQ(digest.value(), 0x686ea8d95f1f8052ULL) << "10-wide replica set";
  }
}

// ------------------------------------------------------- replay floor

/// Everything a search returns, its replay floor included, as one digest
/// of exact bits.
std::uint64_t result_bits(const std::optional<LocalSearchResult>& result) {
  BitDigest digest;
  add_result(digest, result);
  if (result) {
    digest.add(result->floor_period);
    digest.add(result->floor_latency);
  }
  return digest.value();
}

/// A seeded point of [lo, hi]; past an infinite `hi`, of [lo, 3 lo].
double between(Rng& rng, double lo, double hi) {
  return rng.uniform_real(lo, std::isinf(hi) ? 3.0 * lo : hi);
}

/// Replays a search and counts what it compared.
struct ReplayCheck {
  Rng rng{97};
  std::size_t searches = 0;  ///< first searches whose start passed
  std::size_t moved = 0;     ///< ...of which took a move and have a
                             ///< floor below their bounds
  std::size_t replays = 0;   ///< searches compared with their first

  /// Searches `start` under `options`, then again at the three other
  /// corners of [floor, bounds] and at four seeded points inside it:
  /// each must return the first result bit for bit, floor included.
  void run(const TaskChain& chain, const Platform& platform,
           const Mapping& start, const LocalSearchOptions& options,
           const std::string& context) {
    const auto first = improve_mapping(chain, platform, start, options);
    if (!first) return;
    ++searches;
    const double floor_p = first->floor_period;
    const double floor_l = first->floor_latency;
    const double bound_p = options.period_bound;
    const double bound_l = options.latency_bound;
    ASSERT_LE(floor_p, bound_p) << context;
    ASSERT_LE(floor_l, bound_l) << context;
    if (first->moves_accepted > 0 &&
        (floor_p < bound_p || floor_l < bound_l)) {
      ++moved;
    }
    std::vector<std::pair<double, double>> points{
        {floor_p, floor_l}, {floor_p, bound_l}, {bound_p, floor_l}};
    for (int i = 0; i < 4; ++i) {
      points.emplace_back(between(rng, floor_p, bound_p),
                          between(rng, floor_l, bound_l));
    }
    const std::uint64_t expected = result_bits(first);
    for (const auto& [period, latency] : points) {
      LocalSearchOptions at = options;
      at.period_bound = period;
      at.latency_bound = latency;
      EXPECT_EQ(result_bits(improve_mapping(chain, platform, start, at)),
                expected)
          << context << " replayed at period " << period << ", latency "
          << latency << " (searched at " << bound_p << ", " << bound_l
          << ")";
      ++replays;
    }
  }

  /// Both heuristics' picks at every rung of `ladder`, searched there,
  /// plus `random` seeded valid mappings searched under bounds at 1,
  /// 1.3 and infinitely many times their worst-case metrics.
  void ladder(const TaskChain& chain, const Platform& platform,
              const std::vector<solver::Bounds>& ladder,
              const LocalSearchOptions& base, int random,
              const std::string& context) {
    for (const HeuristicKind kind :
         {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
      for (const solver::Bounds& bounds : ladder) {
        HeuristicOptions heuristic;
        heuristic.period_bound = bounds.period_bound;
        heuristic.latency_bound = bounds.latency_bound;
        heuristic.use_expected_metrics = base.use_expected_metrics;
        heuristic.constraints = base.constraints;
        const auto pick = run_heuristic(chain, platform, kind, heuristic);
        if (!pick) continue;
        LocalSearchOptions options = base;
        options.period_bound = bounds.period_bound;
        options.latency_bound = bounds.latency_bound;
        run(chain, platform, pick->mapping, options, context);
      }
    }
    for (int i = 0; i < random; ++i) {
      const Mapping start = testutil::random_mapping(rng, chain, platform);
      const MappingMetrics at = evaluate(chain, platform, start);
      for (const double share : {1.0, 1.3, kInf}) {
        LocalSearchOptions options = base;
        options.period_bound = at.worst_period * share;
        options.latency_bound = at.worst_latency * share;
        run(chain, platform, start, options, context + " random start");
      }
    }
  }
};

// A search replayed under any bounds between its floor and its own
// returns the same mapping, metric bits, rounds, moves_accepted and
// floor: the property the +ls sessions answer from.
TEST(LocalSearch, ReplaysBitForBitBetweenItsFloorAndItsBounds) {
  ReplayCheck check;
  const LocalSearchOptions defaults;
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    check.ladder(chain, paper::hom_platform(),
                 sweep_ladder(rng, chain, paper::kHomSpeed), defaults, 4,
                 "section 8.1 seed " + std::to_string(seed));
  }
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    const Platform platform = paper::het_platform(rng);
    check.ladder(chain, platform,
                 sweep_ladder(rng, chain, 1.3 * mean_speed(platform)),
                 defaults, 4, "section 8.2 seed " + std::to_string(seed));
  }
  Rng rng(43);
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform = Platform::homogeneous(
        10, 1.0, paper::kProcessorFailureRate, paper::kBandwidth,
        paper::kLinkFailureRate, 1);
    check.ladder(chain, platform, sweep_ladder(rng, chain, 1.0), defaults, 4,
                 "K = 1");
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform =
        testutil::small_het_platform(rng, 4, 3, 1e-4, 1e-5);
    check.ladder(chain, platform,
                 sweep_ladder(rng, chain, mean_speed(platform)), defaults, 4,
                 "p < n");
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform =
        testutil::small_het_platform(rng, 10, 3, 1e-3, 1e-4);
    LocalSearchOptions options;
    options.use_expected_metrics = true;
    check.ladder(chain, platform,
                 sweep_ladder(rng, chain, mean_speed(platform)), options, 4,
                 "expected metrics");
  }
  {
    const TaskChain chain = paper::chain(rng);
    const Platform platform =
        testutil::small_het_platform(rng, 10, 3, 1e-4, 1e-5);
    auto constraints = AllocationConstraints::all_allowed(chain.size(), 10);
    for (std::size_t t = 0; t < chain.size(); ++t) {
      constraints.forbid(t, (3 * t) % 10);
      constraints.forbid(t, (7 * t + 1) % 10);
    }
    LocalSearchOptions options;
    options.constraints = &constraints;
    check.ladder(chain, platform,
                 sweep_ladder(rng, chain, mean_speed(platform)), options, 4,
                 "forbidden placements");
  }
  {
    // The 10-wide replica set of AnswersArePinnedBitForBit, and seeded
    // 10-wide sets of the same platform.
    const TaskChain chain = testutil::small_chain(rng, 8);
    const Platform platform =
        testutil::small_het_platform(rng, 12, 10, 0.1, 1e-3);
    std::vector<Mapping> starts{Mapping(IntervalPartition::single(8),
                                        {{9, 0, 8, 1, 7, 2, 6, 3, 5, 4}})};
    for (int i = 0; i < 4; ++i) {
      std::vector<std::size_t> order(12);
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t j = order.size(); j > 1; --j) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(j - 1)));
        std::swap(order[j - 1], order[pick]);
      }
      order.resize(10);
      starts.emplace_back(IntervalPartition::single(8),
                          std::vector<std::vector<std::size_t>>{order});
    }
    for (const Mapping& start : starts) {
      const MappingMetrics at = evaluate(chain, platform, start);
      for (const double share : {kInf, 1.2, 1.0}) {
        LocalSearchOptions options;
        options.period_bound = at.worst_period * share;
        options.latency_bound = at.worst_latency * share;
        check.run(chain, platform, start, options, "10-wide replica set");
      }
    }
  }
  // Not vacuous: most searches moved under a box wider than a point.
  EXPECT_GT(check.searches, 500u);
  EXPECT_GT(check.moved * 2, check.searches);
  RecordProperty("searches", static_cast<int>(check.searches));
  RecordProperty("replays", static_cast<int>(check.replays));
  RecordProperty("moved", static_cast<int>(check.moved));
}

TEST(LocalSearch, SearchAllocatesPerRunNotPerNeighbour) {
  Rng rng(21);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  const solver::Bounds bounds = sweep_ladder(rng, chain, 1.0)[4];
  HeuristicOptions heuristic;
  heuristic.period_bound = bounds.period_bound;
  heuristic.latency_bound = bounds.latency_bound;
  const auto start =
      run_heuristic(chain, platform, HeuristicKind::kHeurP, heuristic);
  ASSERT_TRUE(start.has_value());
  LocalSearchOptions options;
  options.period_bound = bounds.period_bound;
  options.latency_bound = bounds.latency_bound;
  const obs::AllocScope scope;
  const auto improved =
      improve_mapping(chain, platform, start->mapping, options);
  const std::uint64_t allocations = scope.delta().count;
  ASSERT_TRUE(improved.has_value());
  EXPECT_GT(improved->moves_accepted, 0u);
  // Scoring a neighbour allocates nothing: the search makes 26
  // allocations here (its reusable buffers, the final mapping and its
  // evaluation), however many neighbours it scores.
  EXPECT_LT(allocations, 200u);
}

TEST(LocalSearch, WideReplicaSetsFinishPromptly) {
  // Every 2-way division of a k-wide replica set is 2^k - 2 splits per
  // cut; past 10 replicas only the k - 1 cuts of the stored order are
  // tried, so p = K = 64 neither hangs nor shifts by 64 bits.
  Rng rng(61);
  const Instance instance{
      paper::chain(rng),
      Platform::homogeneous(64, 1.0, paper::kProcessorFailureRate,
                            paper::kBandwidth, paper::kLinkFailureRate, 64)};
  const auto start = std::chrono::steady_clock::now();
  const auto solution = solver::SolverRegistry::builtin()
                            .find("heur-p+ls")
                            ->solve(instance, solver::Bounds{});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(solution.has_value());
  EXPECT_FALSE(solution->mapping.validate(instance.platform).has_value());
  EXPECT_LT(seconds, 1.0);
}

}  // namespace
}  // namespace prts
