// Microbenchmarks of the optimization kernels: the Algorithm 1/2 dynamic
// programs (O(n^2 p K)), Algo-Alloc, the two interval heuristics, the
// Eq. (3)-(9) evaluator, and the heur-p+ls local search.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/alloc.hpp"
#include "core/heuristics.hpp"
#include "core/local_search.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"
#include "eval/evaluation.hpp"
#include "model/generator.hpp"
#include "solver/registry.hpp"

namespace {

using namespace prts;

TaskChain bench_chain(std::size_t n) {
  Rng rng(99);
  ChainConfig config;
  config.task_count = n;
  return random_chain(rng, config);
}

Platform bench_platform(std::size_t p) {
  return Platform::homogeneous(p, 1.0, 1e-8, 1.0, 1e-5, 3);
}

void BM_Algorithm1_Tasks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const TaskChain chain = bench_chain(n);
  const Platform platform = bench_platform(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_reliability(chain, platform));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Algorithm1_Tasks)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity(benchmark::oNSquared);

void BM_Algorithm1_Processors(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_reliability(chain, platform));
  }
}
BENCHMARK(BM_Algorithm1_Processors)->RangeMultiplier(2)->Range(4, 64);

void BM_Algorithm2(benchmark::State& state) {
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_reliability_period(chain, platform, 250.0));
  }
}
BENCHMARK(BM_Algorithm2);

void BM_PeriodMinimization(benchmark::State& state) {
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  const auto target = LogReliability::from_log(
      optimize_reliability(chain, platform).reliability.log() * 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_period_reliability(chain, platform, target));
  }
}
BENCHMARK(BM_PeriodMinimization);

void BM_AlgoAllocCounts(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> failures;
  for (std::size_t j = 0; j < m; ++j) {
    failures.push_back(rng.uniform_real(1e-6, 0.2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo_alloc_counts(failures, 3 * m, 3));
  }
}
BENCHMARK(BM_AlgoAllocCounts)->RangeMultiplier(4)->Range(4, 256);

void BM_AllocateProcessorsHet(benchmark::State& state) {
  Rng rng(7);
  const TaskChain chain = bench_chain(15);
  const Platform platform = random_het_platform(rng, HetPlatformConfig{});
  const IntervalPartition partition = heur_p_partition(chain, 5);
  AllocOptions options;
  options.period_bound = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocate_processors(chain, platform, partition, options));
  }
}
BENCHMARK(BM_AllocateProcessorsHet);

void BM_HeurLPartition(benchmark::State& state) {
  const TaskChain chain = bench_chain(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur_l_partition(chain, 8));
  }
}
BENCHMARK(BM_HeurLPartition)->RangeMultiplier(4)->Range(16, 1024);

void BM_HeurPPartition(benchmark::State& state) {
  const TaskChain chain = bench_chain(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur_p_partition(chain, 8));
  }
}
BENCHMARK(BM_HeurPPartition)->RangeMultiplier(4)->Range(16, 256);

void BM_EvaluateMapping(benchmark::State& state) {
  Rng rng(11);
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  const auto solution = optimize_reliability(chain, platform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(chain, platform, solution.mapping));
  }
}
BENCHMARK(BM_EvaluateMapping);

void BM_RunHeuristicHet(benchmark::State& state) {
  Rng rng(13);
  const TaskChain chain = bench_chain(15);
  const Platform platform = random_het_platform(rng, HetPlatformConfig{});
  HeuristicOptions options;
  options.period_bound = 50.0;
  options.latency_bound = 150.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_heuristic(chain, platform, HeuristicKind::kHeurP, options));
  }
}
BENCHMARK(BM_RunHeuristicHet);

/// cold_sweep's ladder on `chain`: period U(0.3, 0.6) times the work
/// over `speed`, latency from 2.5 down to 1.0 times it in 16 steps.
std::vector<solver::Bounds> sweep_ladder(Rng& rng, const TaskChain& chain,
                                         double speed) {
  const double work = chain.total_work() / speed;
  const double period = work * rng.uniform_real(0.3, 0.6);
  std::vector<solver::Bounds> ladder(16);
  for (std::size_t step = 0; step < ladder.size(); ++step) {
    ladder[step].period_bound = period;
    ladder[step].latency_bound =
        work * (2.5 - 1.5 * static_cast<double>(step) / 15.0);
  }
  return ladder;
}

/// One heur-p+ls point of a cold_sweep ladder, answered by the session a
/// Section 8.1 instance prepares once (its queries cycle the ladder).
/// The session answers a rung inside its last search's replay box
/// without searching, so this measures mostly replays: one search per
/// cycle, at the loosest rung. BM_LocalSearchSection81Search times the
/// search itself.
void BM_LocalSearchSection81Point(benchmark::State& state) {
  Rng rng(17);
  const Instance instance{paper::chain(rng), paper::hom_platform()};
  const auto ladder = sweep_ladder(rng, instance.chain, paper::kHomSpeed);
  const auto session =
      solver::SolverRegistry::builtin().find("heur-p+ls")->prepare(instance);
  std::size_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->solve(ladder[step]));
    step = (step + 1) % ladder.size();
  }
}
BENCHMARK(BM_LocalSearchSection81Point);

/// One fresh local search from the pick a heur-p+ls session makes at a
/// rung of the same ladder (the rungs cycle; the picks are made
/// outside the timed loop): what a point cost before sessions replayed.
void BM_LocalSearchSection81Search(benchmark::State& state) {
  Rng rng(17);
  const Instance instance{paper::chain(rng), paper::hom_platform()};
  const auto ladder = sweep_ladder(rng, instance.chain, paper::kHomSpeed);
  const auto candidates = heuristic_candidates(
      instance.chain, instance.platform, HeuristicKind::kHeurP);
  std::vector<std::pair<Mapping, LocalSearchOptions>> rungs;
  for (const solver::Bounds& bounds : ladder) {
    const HeuristicSolution* pick = best_heuristic_candidate(
        candidates, bounds.period_bound, bounds.latency_bound);
    if (pick == nullptr) continue;
    LocalSearchOptions options;
    options.period_bound = bounds.period_bound;
    options.latency_bound = bounds.latency_bound;
    rungs.emplace_back(pick->mapping, options);
  }
  std::size_t step = 0;
  for (auto _ : state) {
    const auto& [start, options] = rungs[step];
    benchmark::DoNotOptimize(
        improve_mapping(instance.chain, instance.platform, start, options));
    step = (step + 1) % rungs.size();
  }
}
BENCHMARK(BM_LocalSearchSection81Search);

/// A fresh heur-p+ls session (its candidate list included) answering the
/// whole 16-step ladder loose to tight, per iteration: the cost of one
/// cold_sweep ladder's +ls half.
void BM_LocalSearchSection81Ladder(benchmark::State& state) {
  Rng rng(17);
  const Instance instance{paper::chain(rng), paper::hom_platform()};
  const auto ladder = sweep_ladder(rng, instance.chain, paper::kHomSpeed);
  const auto engine = solver::SolverRegistry::builtin().find("heur-p+ls");
  for (auto _ : state) {
    const auto session = engine->prepare(instance);
    for (const solver::Bounds& bounds : ladder) {
      benchmark::DoNotOptimize(session->solve(bounds));
    }
  }
}
BENCHMARK(BM_LocalSearchSection81Ladder);

/// The same on a Section 8.2 platform, where each query runs Heur-P and
/// the search (the allocation there depends on the bounds).
void BM_LocalSearchSection82Point(benchmark::State& state) {
  Rng rng(19);
  TaskChain chain = paper::chain(rng);
  const Instance instance{std::move(chain), paper::het_platform(rng)};
  const auto ladder = sweep_ladder(rng, instance.chain,
                                   paper::kHetComparisonHomSpeed);
  const auto engine = solver::SolverRegistry::builtin().find("heur-p+ls");
  std::size_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->solve(instance, ladder[step]));
    step = (step + 1) % ladder.size();
  }
}
BENCHMARK(BM_LocalSearchSection82Point);

/// heur-p+ls with no bounds on a homogeneous p = K = 64 platform: splits
/// of replica sets wider than 10 try only their stored order's cuts.
void BM_LocalSearchWideReplicaSets(benchmark::State& state) {
  Rng rng(61);
  const Instance instance{
      paper::chain(rng),
      Platform::homogeneous(64, 1.0, paper::kProcessorFailureRate,
                            paper::kBandwidth, paper::kLinkFailureRate, 64)};
  const auto engine = solver::SolverRegistry::builtin().find("heur-p+ls");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->solve(instance, solver::Bounds{}));
  }
}
BENCHMARK(BM_LocalSearchWideReplicaSets);

}  // namespace

BENCHMARK_MAIN();
