#include "solver/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/local_search.hpp"
#include "model/generator.hpp"
#include "solver/adapters.hpp"
#include "test_util.hpp"

namespace prts::solver {
namespace {

Instance small_hom_instance(std::uint64_t seed = 3) {
  Rng rng(seed);
  return Instance{testutil::small_chain(rng, 8),
                  testutil::small_hom_platform(6, 3)};
}

Instance small_het_instance(std::uint64_t seed = 5) {
  Rng rng(seed);
  TaskChain chain = testutil::small_chain(rng, 8);
  return Instance{std::move(chain), testutil::small_het_platform(rng, 6, 3)};
}

TEST(SolverRegistry, BuiltinContainsEveryEngine) {
  const SolverRegistry& registry = SolverRegistry::builtin();
  for (const char* name :
       {"exact", "ilp", "dp", "dp-period", "heur-l", "heur-p", "heur-l+ls",
        "heur-p+ls", "baseline", "portfolio"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    ASSERT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.find(name)->name(), name);
  }
  EXPECT_EQ(registry.size(), 10u);
}

TEST(SolverRegistry, NamesAreSortedAndComplete) {
  const auto names = SolverRegistry::builtin().names();
  EXPECT_EQ(names.size(), SolverRegistry::builtin().size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(SolverRegistry::builtin().find("no-such-solver"), nullptr);
  EXPECT_FALSE(SolverRegistry::builtin().contains("no-such-solver"));
}

TEST(SolverRegistry, RejectsDuplicateNames) {
  SolverRegistry registry;
  registry.add(make_exact_solver());
  EXPECT_THROW(registry.add(make_exact_solver()), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SolverRegistry, RejectsNullSolver) {
  SolverRegistry registry;
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
}

TEST(SolverAdapters, ExactMatchesUnderlyingEngine) {
  const Instance instance = small_hom_instance();
  const auto solver = SolverRegistry::builtin().find("exact");
  Bounds bounds;
  bounds.period_bound = 30.0;
  bounds.latency_bound = 90.0;
  const auto solution = solver->solve(instance, bounds);

  const HomogeneousExactSolver reference(instance.chain, instance.platform);
  const auto expected = reference.best_log_reliability(
      bounds.period_bound, bounds.latency_bound);
  ASSERT_EQ(solution.has_value(), expected.has_value());
  if (solution) {
    EXPECT_DOUBLE_EQ(solution->metrics.reliability.log(), *expected);
    EXPECT_LE(solution->metrics.worst_period, bounds.period_bound);
    EXPECT_LE(solution->metrics.worst_latency, bounds.latency_bound);
  }
}

TEST(SolverAdapters, HomogeneousOnlyEnginesRejectHetInstances) {
  const Instance het = small_het_instance();
  for (const char* name : {"exact", "ilp", "dp", "dp-period"}) {
    const auto solver = SolverRegistry::builtin().find(name);
    EXPECT_FALSE(solver->supports(het)) << name;
    EXPECT_FALSE(solver->solve(het, Bounds{}).has_value()) << name;
  }
  for (const char* name :
       {"heur-l", "heur-p", "heur-l+ls", "heur-p+ls", "baseline",
        "portfolio"}) {
    EXPECT_TRUE(SolverRegistry::builtin().find(name)->supports(het)) << name;
  }
}

TEST(SolverAdapters, HeuristicMatchesRunHeuristic) {
  const Instance instance = small_het_instance(11);
  Bounds bounds;
  bounds.period_bound = 25.0;
  bounds.latency_bound = 80.0;
  const auto solution =
      SolverRegistry::builtin().find("heur-p")->solve(instance, bounds);

  HeuristicOptions options;
  options.period_bound = bounds.period_bound;
  options.latency_bound = bounds.latency_bound;
  const auto expected = run_heuristic(instance.chain, instance.platform,
                                      HeuristicKind::kHeurP, options);
  ASSERT_EQ(solution.has_value(), expected.has_value());
  if (solution) {
    EXPECT_EQ(solution->mapping, expected->mapping);
  }
}

/// What `name` answers at `bounds`, computed without the adapters: the
/// exact enumeration's own scan, or the heuristic run under the bounds
/// and, for the +ls engines, polished by the local search under them.
std::optional<Solution> reference_answer(const std::string& name,
                                         const Instance& instance,
                                         const Bounds& bounds) {
  if (name == "exact") {
    auto solution = HomogeneousExactSolver(instance.chain, instance.platform)
                        .solve(bounds.period_bound, bounds.latency_bound);
    if (!solution) return std::nullopt;
    return Solution{std::move(solution->mapping), solution->metrics};
  }
  HeuristicOptions options;
  options.period_bound = bounds.period_bound;
  options.latency_bound = bounds.latency_bound;
  auto heuristic = run_heuristic(
      instance.chain, instance.platform,
      name.starts_with("heur-l") ? HeuristicKind::kHeurL
                                 : HeuristicKind::kHeurP,
      options);
  if (!heuristic) return std::nullopt;
  if (name.ends_with("+ls")) {
    LocalSearchOptions search;
    search.period_bound = bounds.period_bound;
    search.latency_bound = bounds.latency_bound;
    auto improved = improve_mapping(instance.chain, instance.platform,
                                    heuristic->mapping, search);
    if (improved) {
      return Solution{std::move(improved->mapping), improved->metrics};
    }
  }
  return Solution{std::move(heuristic->mapping), heuristic->metrics};
}

TEST(SolverAdapters, PreparedSessionAgreesWithDirectSolve) {
  // Every prepared session and every direct solve must give the reference
  // answer at every bound, metrics bit for bit: the campaign engine and
  // the solve service answer through sessions, and a homogeneous session
  // filters a bounds-free candidate list where the reference runs the
  // heuristic under the query's bounds.
  struct Case {
    Instance instance;
    std::vector<Bounds> bounds;
  };
  std::vector<Case> cases;
  {
    Rng rng(29);
    Instance instance = small_hom_instance(17);
    auto bounds = testutil::sweep_ladder(rng, instance.chain, 1.0);
    for (double period : {8.0, 15.0, 30.0, 1e9}) {
      Bounds extra;
      extra.period_bound = period;
      extra.latency_bound = 120.0;
      bounds.push_back(extra);
    }
    cases.push_back({std::move(instance), std::move(bounds)});
  }
  for (std::uint64_t seed = 17; seed <= 19; ++seed) {
    Rng rng(seed);
    TaskChain chain = paper::chain(rng);
    auto ladder = testutil::sweep_ladder(rng, chain, paper::kHomSpeed);
    cases.push_back(
        {Instance{std::move(chain), paper::hom_platform()}, std::move(ladder)});
  }
  for (std::uint64_t seed = 27; seed <= 28; ++seed) {
    Rng rng(seed);
    TaskChain chain = paper::chain(rng);
    Platform platform = paper::het_platform(rng);
    // At 1.3 times the mean speed the bounds veto some of the polish's
    // moves, so a polish under other bounds than the query's shows.
    auto ladder = testutil::sweep_ladder(
        rng, chain, 1.3 * testutil::mean_speed(platform));
    cases.push_back({Instance{std::move(chain), std::move(platform)},
                     std::move(ladder)});
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Instance& instance = cases[c].instance;
    for (const std::string name :
         {"exact", "heur-l", "heur-p", "heur-l+ls", "heur-p+ls"}) {
      const auto solver = SolverRegistry::builtin().find(name);
      if (!solver->supports(instance)) continue;
      const auto session = solver->prepare(instance);
      for (std::size_t q = 0; q < cases[c].bounds.size(); ++q) {
        const Bounds& bounds = cases[c].bounds[q];
        const auto expected = reference_answer(name, instance, bounds);
        const auto from_session = session->solve(bounds);
        const auto from_solver = solver->solve(instance, bounds);
        for (const auto* answer : {&from_session, &from_solver}) {
          const char* path = answer == &from_session ? "session" : "solve";
          ASSERT_EQ(answer->has_value(), expected.has_value())
              << name << " " << path << " case " << c << " query " << q;
          if (!expected) continue;
          EXPECT_EQ((*answer)->mapping, expected->mapping)
              << name << " " << path << " case " << c << " query " << q;
          EXPECT_EQ((*answer)->metrics, expected->metrics)
              << name << " " << path << " case " << c << " query " << q;
        }
      }
    }
  }
}

/// `solution`'s mapping and every metric's bits as one digest.
std::uint64_t answer_bits(const std::optional<Solution>& solution) {
  testutil::BitDigest digest;
  if (!solution) {
    digest.add(std::uint64_t{0xdead});
    return digest.value();
  }
  const Mapping& mapping = solution->mapping;
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    digest.add(std::uint64_t{mapping.partition().interval(j).last});
    for (std::size_t u : mapping.processors(j)) digest.add(std::uint64_t{u});
    digest.add(std::uint64_t{0xffff});
  }
  const MappingMetrics& metrics = solution->metrics;
  for (const double value :
       {metrics.reliability.log(), metrics.failure, metrics.expected_latency,
        metrics.worst_latency, metrics.expected_period, metrics.worst_period,
        metrics.replication_level}) {
    digest.add(value);
  }
  digest.add(std::uint64_t{metrics.interval_count});
  digest.add(std::uint64_t{metrics.processors_used});
  return digest.value();
}

/// An instance's cold_sweep ladder loose to tight, tight to loose and
/// shuffled, then 16 seeded points with random periods: one session
/// answers them in that order.
std::vector<Bounds> replay_queries(Rng& rng, const TaskChain& chain) {
  const std::vector<Bounds> ladder =
      testutil::sweep_ladder(rng, chain, paper::kHomSpeed);
  std::vector<Bounds> queries = ladder;
  queries.insert(queries.end(), ladder.rbegin(), ladder.rend());
  std::vector<Bounds> shuffled = ladder;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  queries.insert(queries.end(), shuffled.begin(), shuffled.end());
  const double work = chain.total_work() / paper::kHomSpeed;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    Bounds random;
    random.period_bound = work * rng.uniform_real(0.2, 0.7);
    random.latency_bound = work * rng.uniform_real(1.0, 2.5);
    queries.push_back(random);
  }
  return queries;
}

/// Section 8.1 instances, then K = 1 and p < n platforms.
std::vector<Instance> replay_instances() {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 100; seed < 150; ++seed) {
    Rng rng(seed);
    instances.push_back({paper::chain(rng), paper::hom_platform()});
  }
  for (std::uint64_t seed = 150; seed < 154; ++seed) {
    Rng rng(seed);
    const unsigned k = seed % 2 == 0 ? 1 : paper::kMaxReplication;
    const std::size_t p = seed % 2 == 0 ? paper::kProcessorCount : 4;
    instances.push_back(
        {paper::chain(rng),
         Platform::homogeneous(p, paper::kHomSpeed,
                               paper::kProcessorFailureRate,
                               paper::kBandwidth, paper::kLinkFailureRate,
                               k)});
  }
  return instances;
}

TEST(SolverAdapters, PolishedSessionAnswersEqualFreshSearches) {
  // A +ls session answers a query inside its last search's replay box
  // without searching; each answer must still be the one a fresh search
  // from run_heuristic's pick gives, whatever order the queries come in.
  std::size_t compared = 0;
  const std::vector<Instance> instances = replay_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    Rng rng(1000 + i);
    const std::vector<Bounds> queries = replay_queries(rng, instance.chain);
    for (const std::string name : {"heur-l+ls", "heur-p+ls"}) {
      const auto session = SolverRegistry::builtin().find(name)->prepare(
          instance);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(answer_bits(session->solve(queries[q])),
                  answer_bits(reference_answer(name, instance, queries[q])))
            << name << " instance " << i << " query " << q;
        ++compared;
      }
    }
  }
  RecordProperty("compared", static_cast<int>(compared));
}

TEST(SolverAdapters, PolishedSessionSharedByFourThreads) {
  // Four threads answer shuffled ladders on one session at once: the
  // replay slots are shared, and every answer must still be the fresh
  // search's.
  const std::vector<Instance> instances = replay_instances();
  for (std::size_t i = 0; i < 4; ++i) {
    const Instance& instance = instances[i];
    Rng rng(2000 + i);
    const std::vector<Bounds> queries = replay_queries(rng, instance.chain);
    for (const std::string name : {"heur-l+ls", "heur-p+ls"}) {
      std::vector<std::uint64_t> expected;
      for (const Bounds& bounds : queries) {
        expected.push_back(
            answer_bits(reference_answer(name, instance, bounds)));
      }
      const auto session = SolverRegistry::builtin().find(name)->prepare(
          instance);
      std::atomic<std::size_t> mismatches{0};
      std::vector<std::thread> threads;
      for (std::uint64_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          Rng order(3000 + t);
          std::vector<std::size_t> picks(queries.size());
          std::iota(picks.begin(), picks.end(), std::size_t{0});
          for (int pass = 0; pass < 4; ++pass) {
            std::shuffle(picks.begin(), picks.end(), order);
            for (const std::size_t q : picks) {
              if (answer_bits(session->solve(queries[q])) != expected[q]) {
                ++mismatches;
              }
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      EXPECT_EQ(mismatches.load(), 0u) << name << " instance " << i;
    }
  }
}

TEST(SolverAdapters, LocalSearchNeverWorseThanPlainHeuristic) {
  const Instance instance = small_het_instance(23);
  Bounds bounds;
  bounds.period_bound = 40.0;
  bounds.latency_bound = 120.0;
  const auto plain =
      SolverRegistry::builtin().find("heur-l")->solve(instance, bounds);
  const auto polished =
      SolverRegistry::builtin().find("heur-l+ls")->solve(instance, bounds);
  ASSERT_EQ(plain.has_value(), polished.has_value());
  if (plain) {
    EXPECT_GE(polished->metrics.reliability.log(),
              plain->metrics.reliability.log());
    EXPECT_LE(polished->metrics.worst_period, bounds.period_bound);
    EXPECT_LE(polished->metrics.worst_latency, bounds.latency_bound);
  }
}

TEST(SolverAdapters, InfeasibleBoundsReturnNothing) {
  const Instance instance = small_hom_instance();
  Bounds impossible;
  impossible.period_bound = 1e-6;
  impossible.latency_bound = 1e-6;
  for (const std::string& name : SolverRegistry::builtin().names()) {
    const auto solution = SolverRegistry::builtin().find(name)->solve(
        instance, impossible);
    EXPECT_FALSE(solution.has_value()) << name;
  }
}

TEST(SolverAdapters, TriCriteriaOrderingPrefersReliabilityFirst) {
  MappingMetrics a;
  a.reliability = LogReliability::from_log(-1e-6);
  a.worst_period = 100.0;
  MappingMetrics b;
  b.reliability = LogReliability::from_log(-1e-3);
  b.worst_period = 1.0;
  EXPECT_TRUE(tri_criteria_better(a, b));
  EXPECT_FALSE(tri_criteria_better(b, a));

  // Equal reliability: the faster mapping wins.
  b.reliability = a.reliability;
  EXPECT_TRUE(tri_criteria_better(b, a));
  EXPECT_FALSE(tri_criteria_better(a, b));

  // Fully equal metrics: neither is strictly better.
  EXPECT_FALSE(tri_criteria_better(a, a));
}

}  // namespace
}  // namespace prts::solver
