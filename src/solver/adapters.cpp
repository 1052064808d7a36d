#include "solver/adapters.hpp"

#include <mutex>
#include <utility>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/ilp.hpp"
#include "core/local_search.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"

namespace prts::solver {
namespace {

/// Wraps a mapping + metrics pair into a Solution after a bounds check.
std::optional<Solution> accept_if_within(Mapping mapping,
                                         const MappingMetrics& metrics,
                                         const Bounds& bounds) {
  if (!within_bounds(metrics, bounds)) return std::nullopt;
  return Solution{std::move(mapping), metrics};
}

// ------------------------------------------------------------------ exact

/// Session owning the partition enumeration; bound queries are linear
/// scans over the precomputed records.
class ExactSession final : public PreparedSolver {
 public:
  explicit ExactSession(const Instance& instance)
      : solver_(instance.chain, instance.platform) {}

  std::optional<Solution> solve(const Bounds& bounds) const override {
    auto solution = solver_.solve(bounds.period_bound, bounds.latency_bound);
    if (!solution) return std::nullopt;
    return Solution{std::move(solution->mapping), solution->metrics};
  }

  std::optional<Solution> solve(const Bounds& bounds,
                                const WarmStart& warm) const override {
    auto solution =
        solver_.solve(bounds.period_bound, bounds.latency_bound,
                      warm_floor_cut(warm.reliability_floor_log));
    // A feasible incumbent proves the cut scan cannot come up empty; if
    // it somehow did (a floor above every record, i.e. a caller bug or
    // rounding drift beyond the cut margin), fall back to the unpruned
    // scan rather than change the answer.
    if (!solution && warm.incumbent) return solve(bounds);
    if (!solution) return std::nullopt;
    return Solution{std::move(solution->mapping), solution->metrics};
  }

 private:
  HomogeneousExactSolver solver_;
};

class ExactAdapter final : public Solver {
 public:
  std::string name() const override { return "exact"; }
  std::string description() const override {
    return "exact partition enumeration + Algo-Alloc (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  bool bounds_monotone(const Instance& instance) const override {
    // First-max over the fixed partition-record list.
    return supports(instance);
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    return ExactSession(instance).solve(bounds);
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds,
                                const WarmStart& warm) const override {
    if (!supports(instance)) return std::nullopt;
    return ExactSession(instance).solve(bounds, warm);
  }
  std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const override {
    if (!supports(instance)) return Solver::prepare(instance);
    return std::make_unique<ExactSession>(instance);
  }
};

// -------------------------------------------------------------------- ilp

class IlpAdapter final : public Solver {
 public:
  std::string name() const override { return "ilp"; }
  std::string description() const override {
    return "Section 5.4 ILP via branch-and-bound (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    const IlpFormulation formulation(instance.chain, instance.platform,
                                     bounds.period_bound,
                                     bounds.latency_bound);
    auto solution = solve_ilp(formulation);
    if (!solution) return std::nullopt;
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution->mapping);
    return Solution{std::move(solution->mapping), metrics};
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds,
                                const WarmStart& warm) const override {
    if (!supports(instance)) return std::nullopt;
    const IlpFormulation formulation(instance.chain, instance.platform,
                                     bounds.period_bound,
                                     bounds.latency_bound);
    // The B&B objective is the Eq. (9) log reliability — the same scale
    // the floor certificate is expressed in.
    auto solution =
        solve_ilp(formulation, warm_floor_cut(warm.reliability_floor_log));
    // A feasible incumbent proves the cut search cannot come up empty;
    // fall back to the uncut search rather than change the answer.
    if (!solution && warm.incumbent) return solve(instance, bounds);
    if (!solution) return std::nullopt;
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution->mapping);
    return Solution{std::move(solution->mapping), metrics};
  }
};

// --------------------------------------------------------------------- dp

class DpAdapter final : public Solver {
 public:
  std::string name() const override { return "dp"; }
  std::string description() const override {
    return "Algorithm 1 reliability DP, bounds checked on the optimum "
           "(homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  bool bounds_monotone(const Instance& instance) const override {
    // The optimum is computed bounds-free and only *checked* against
    // the bounds — a one-candidate fixed set.
    return supports(instance);
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    auto solution = optimize_reliability(instance.chain, instance.platform);
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution.mapping);
    return accept_if_within(std::move(solution.mapping), metrics, bounds);
  }
};

class PeriodDpAdapter final : public Solver {
 public:
  std::string name() const override { return "dp-period"; }
  std::string description() const override {
    return "Algorithm 2 reliability-under-period DP, latency checked on "
           "the optimum (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    auto solution = optimize_reliability_period(
        instance.chain, instance.platform, bounds.period_bound);
    if (!solution) return std::nullopt;
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution->mapping);
    return accept_if_within(std::move(solution->mapping), metrics, bounds);
  }
};

// -------------------------------------------------------------- heuristics

/// A heuristic's answer and, when a local search produced it, the
/// search's replay floor (see core/local_search.hpp): from the same
/// pick, any bounds between the floor and the query's, component-wise,
/// give the same answer bit for bit.
struct HeuristicAnswer {
  Solution solution;
  std::optional<Bounds> floor;
};

/// A heuristic's pick as the answer; the +ls engines first improve it by
/// local search under the query's bounds. The one polish path, for the
/// homogeneous sessions and the heterogeneous per-query solve alike.
HeuristicAnswer heuristic_answer(const Instance& instance,
                                 const HeuristicSolution& pick,
                                 const Bounds& bounds, bool polish) {
  if (polish) {
    LocalSearchOptions search;
    search.period_bound = bounds.period_bound;
    search.latency_bound = bounds.latency_bound;
    auto improved = improve_mapping(instance.chain, instance.platform,
                                    pick.mapping, search);
    if (improved) {
      return {Solution{std::move(improved->mapping), improved->metrics},
              Bounds{improved->floor_period, improved->floor_latency}};
    }
  }
  return {Solution{pick.mapping, pick.metrics}, std::nullopt};
}

/// Homogeneous session: the allocation does not depend on the bounds, so
/// the candidate list (one per interval count) is computed once and each
/// query filters it — the same caching src/exp/runner.cpp used to
/// hand-roll per experiment. With `polish`, the query's winner is then
/// improved by the local search under the query's bounds, unless the
/// last search from that winner already answers them: each candidate
/// keeps its last polished answer, the bounds it was searched under and
/// its replay floor, and a query inside [floor, those bounds] returns
/// that answer, which the search would reproduce bit for bit. A ladder
/// answered loose to tight so runs about one search, not one per rung.
/// A slot is found by the query's pick, so an answer is only ever
/// replayed from its own start and rests on the search's proof alone.
/// The slots sit behind a mutex (a session stays safe to share); the
/// search itself runs outside it.
class HomHeuristicSession final : public PreparedSolver {
 public:
  HomHeuristicSession(const Instance& instance, HeuristicKind kind,
                      bool polish)
      : instance_(instance),
        candidates_(heuristic_candidates(instance.chain, instance.platform,
                                         kind)),
        polish_(polish),
        replays_(polish ? candidates_.size() : 0) {}

  std::optional<Solution> solve(const Bounds& bounds) const override {
    const HeuristicSolution* best = best_heuristic_candidate(
        candidates_, bounds.period_bound, bounds.latency_bound);
    if (best == nullptr) return std::nullopt;
    if (!polish_) return Solution{best->mapping, best->metrics};
    Replay& replay = replays_[static_cast<std::size_t>(
        best - candidates_.data())];
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (replay.covers(bounds)) return replay.answer;
    }
    HeuristicAnswer answer = heuristic_answer(instance_, *best, bounds, true);
    // A start that fails the search's own check ran no search: nothing
    // to replay.
    if (answer.floor) {
      Replay filled{answer.solution, *answer.floor, bounds};
      const std::lock_guard<std::mutex> lock(mutex_);
      replay = std::move(filled);
    }
    return std::move(answer.solution);
  }

  std::optional<Solution> solve(const Bounds& bounds,
                                const WarmStart& warm) const override {
    // A hill climb seeded elsewhere would end elsewhere: the polished
    // answer ignores the hint.
    if (polish_) return solve(bounds);
    const HeuristicSolution* best = best_heuristic_candidate(
        candidates_, bounds.period_bound, bounds.latency_bound,
        /*use_expected_metrics=*/false,
        warm_floor_cut(warm.reliability_floor_log));
    // A feasible incumbent proves the cut scan cannot come up empty;
    // fall back to the unpruned scan rather than change the answer.
    if (best == nullptr && warm.incumbent) return solve(bounds);
    if (best == nullptr) return std::nullopt;
    return Solution{best->mapping, best->metrics};
  }

 private:
  /// The last search from one candidate: its answer (nullopt until one
  /// ran), its replay floor and the bounds it ran under.
  struct Replay {
    std::optional<Solution> answer;
    Bounds floor;
    Bounds bounds;

    bool covers(const Bounds& query) const noexcept {
      return answer && floor.period_bound <= query.period_bound &&
             query.period_bound <= bounds.period_bound &&
             floor.latency_bound <= query.latency_bound &&
             query.latency_bound <= bounds.latency_bound;
    }
  };

  const Instance& instance_;
  std::vector<HeuristicSolution> candidates_;
  bool polish_;
  mutable std::mutex mutex_;
  mutable std::vector<Replay> replays_;  ///< one per candidate
};

class HeuristicAdapter final : public Solver {
 public:
  HeuristicAdapter(HeuristicKind kind, bool local_search)
      : kind_(kind), local_search_(local_search) {}

  std::string name() const override {
    std::string base = kind_ == HeuristicKind::kHeurL ? "heur-l" : "heur-p";
    return local_search_ ? base + "+ls" : base;
  }
  std::string description() const override {
    std::string base = kind_ == HeuristicKind::kHeurL
                           ? "Heur-L: cut at the cheapest communications"
                           : "Heur-P: balance interval loads (min-period "
                             "DP)";
    return local_search_ ? base + ", polished by local search" : base;
  }

  bool bounds_monotone(const Instance& instance) const override {
    // The cached-session path (the one whose answers the service
    // caches) is a first-max filter over the bounds-free candidate
    // list — monotone. With local-search polish the hill-climb
    // trajectory depends on which moves the bounds permit (a session
    // replays a search only inside the box that search proved, see
    // solver.hpp), and on heterogeneous platforms the allocator itself
    // is bounds-driven: neither answer transfers across bounds.
    return !local_search_ && instance.platform.is_homogeneous();
  }

  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (instance.platform.is_homogeneous()) {
      return HomHeuristicSession(instance, kind_, local_search_)
          .solve(bounds);
    }
    HeuristicOptions options;
    options.period_bound = bounds.period_bound;
    options.latency_bound = bounds.latency_bound;
    const auto heuristic =
        run_heuristic(instance.chain, instance.platform, kind_, options);
    if (!heuristic) return std::nullopt;
    return heuristic_answer(instance, *heuristic, bounds, local_search_)
        .solution;
  }

  std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const override {
    // The candidate list is only bounds-free where allocation ignores
    // the bounds (homogeneous platforms); there a query costs one filter
    // scan, plus for the +ls engines one local search or one replay of
    // the last. Heterogeneous platforms run the heuristic per query.
    if (instance.platform.is_homogeneous()) {
      return std::make_unique<HomHeuristicSession>(instance, kind_,
                                                   local_search_);
    }
    return Solver::prepare(instance);
  }

 private:
  HeuristicKind kind_;
  bool local_search_;
};

// --------------------------------------------------------------- baseline

class BaselineAdapter final : public Solver {
 public:
  std::string name() const override { return "baseline"; }
  std::string description() const override {
    return "one task per interval with Algo-Alloc replication (needs "
           "n <= p)";
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    AllocOptions options;
    options.period_bound = bounds.period_bound;
    auto solution =
        one_to_one_mapping(instance.chain, instance.platform, options);
    if (!solution) return std::nullopt;
    return accept_if_within(std::move(solution->mapping), solution->metrics,
                            bounds);
  }
};

}  // namespace

std::shared_ptr<const Solver> make_exact_solver() {
  return std::make_shared<ExactAdapter>();
}

std::shared_ptr<const Solver> make_ilp_solver() {
  return std::make_shared<IlpAdapter>();
}

std::shared_ptr<const Solver> make_dp_solver() {
  return std::make_shared<DpAdapter>();
}

std::shared_ptr<const Solver> make_period_dp_solver() {
  return std::make_shared<PeriodDpAdapter>();
}

std::shared_ptr<const Solver> make_heuristic_solver(HeuristicKind kind,
                                                    bool local_search) {
  return std::make_shared<HeuristicAdapter>(kind, local_search);
}

std::shared_ptr<const Solver> make_baseline_solver() {
  return std::make_shared<BaselineAdapter>();
}

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add(make_exact_solver());
  registry.add(make_ilp_solver());
  registry.add(make_dp_solver());
  registry.add(make_period_dp_solver());
  registry.add(make_heuristic_solver(HeuristicKind::kHeurL, false));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurP, false));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurL, true));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurP, true));
  registry.add(make_baseline_solver());
}

}  // namespace prts::solver
