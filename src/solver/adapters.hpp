// Adapters wrapping every existing optimization engine behind the
// uniform Solver interface:
//
//   exact       HomogeneousExactSolver partition enumeration (Section 5.4
//               role; homogeneous only)
//   ilp         the Section 5.4 ILP via in-house branch-and-bound
//               (homogeneous only)
//   dp          Algorithm 1 mono-criterion reliability DP (homogeneous
//               only; bounds checked on the result)
//   dp-period   Algorithm 2 reliability-under-period DP (homogeneous
//               only; latency checked on the result)
//   heur-l      Section 7 Heur-L (any platform)
//   heur-p      Section 7 Heur-P (any platform)
//   heur-l+ls   Heur-L polished by hill-climbing local search
//   heur-p+ls   Heur-P polished by hill-climbing local search
//   baseline    one task per interval with Algo-Alloc replication
//
// All adapters return nullopt (never throw) on unsupported instances or
// infeasible bounds.
//
// Prepared sessions: exact keeps its partition records; the four
// heuristics keep their bounds-free candidate list on homogeneous
// platforms (a direct solve there runs the same session once), and the
// +ls ones polish each query's pick by local search.
//
// Warm starts (solver::WarmStart, answer-preserving by contract): the
// exact adapter prunes partition records below the floor, the ILP
// adapter seeds its branch-and-bound pruning bound, and the homogeneous
// heuristic sessions skip candidates below the floor. The local-search
// variants deliberately ignore hints — a hill climb seeded elsewhere
// converges to a different local optimum, which the contract forbids —
// as do the bounds-driven DP/baseline engines. bounds_monotone() is
// true for exact, dp, and the plain heuristics on homogeneous
// platforms (first-max selections over fixed candidate sets).
#pragma once

#include <memory>
#include <vector>

#include "core/heuristics.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace prts::solver {

/// Factory for one built-in adapter; the full set is listed above.
std::shared_ptr<const Solver> make_exact_solver();
std::shared_ptr<const Solver> make_ilp_solver();
std::shared_ptr<const Solver> make_dp_solver();
std::shared_ptr<const Solver> make_period_dp_solver();
std::shared_ptr<const Solver> make_heuristic_solver(HeuristicKind kind,
                                                    bool local_search);
std::shared_ptr<const Solver> make_baseline_solver();

/// Registers every adapter above into `registry` (throws on collisions
/// with already-registered names).
void register_builtin_solvers(SolverRegistry& registry);

}  // namespace prts::solver
