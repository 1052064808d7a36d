// The uniform solver abstraction: every optimization engine in src/core/
// (exact enumeration, ILP branch-and-bound, the Section 5 dynamic
// programs, both Section 7 heuristics, local search, the one-to-one
// baseline) is exposed behind one interface, in the spirit of the
// black-box-solver framing of Wang et al. and the portfolio-of-methods
// view of Benoit et al.: a solver takes an instance plus (period,
// latency) bounds and returns the best mapping it can find, or nothing.
//
// Engines whose per-instance setup dominates per-query work (the
// homogeneous exact solver enumerates all 2^(n-1) partitions once and
// then answers any bound query by linear scan) additionally override
// prepare(), which returns a per-instance session answering many bound
// queries cheaply — the campaign engine (src/scenario/) drives every
// sweep through prepare() so the old hand-rolled per-method caching in
// src/exp/runner.cpp is subsumed rather than lost.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/serialize.hpp"

namespace prts::solver {

/// The tri-criteria query bounds (Section 2.6): maximize reliability
/// subject to worst-case period and latency caps. Infinity relaxes a
/// bound.
struct Bounds {
  double period_bound = std::numeric_limits<double>::infinity();
  double latency_bound = std::numeric_limits<double>::infinity();
};

/// A solver answer: the mapping and its full evaluation.
struct Solution {
  Mapping mapping;
  MappingMetrics metrics;
};

/// An optional hint passed alongside a bound query: a known-feasible
/// incumbent under the query's bounds and a proven-achievable
/// log-reliability floor (the tri-criteria objective is monotone in the
/// bounds, so a solution cached for *tighter* bounds certifies both).
///
/// Contract: a warm start is an accelerator, never an answer changer —
/// an engine may use it only to skip work that provably cannot affect
/// its result, so solve(bounds, warm) is bit-identical to solve(bounds)
/// for every engine. Engines that cannot prune safely ignore the hint
/// (the default), which satisfies the contract trivially. Exact
/// enumeration skips partition records strictly below the floor, the
/// ILP branch-and-bound seeds its pruning bound with it, and the
/// homogeneous heuristic sessions skip candidates that cannot beat it.
struct WarmStart {
  /// A solution feasible under the query's bounds, in the same
  /// processor labels as the instance being solved (the service passes
  /// canonical-space incumbents to canonical-space solves).
  std::optional<Solution> incumbent;

  /// log(reliability) proven achievable under the query's bounds
  /// (usually incumbent->metrics.reliability.log(); -inf when unknown).
  double reliability_floor_log = -std::numeric_limits<double>::infinity();

  bool empty() const noexcept {
    return !incumbent.has_value() && !std::isfinite(reliability_floor_log);
  }
};

/// The pruning cut engines derive from a floor: values strictly below
/// `floor - margin` cannot be (or tie with) the answer. The margin
/// absorbs the last-ulp disagreement between an engine's internal
/// objective accumulation and the evaluate() metrics a cached floor was
/// taken from — pruning too little is only slower, pruning the optimum
/// would change the answer.
double warm_floor_cut(double reliability_floor_log) noexcept;

/// True when the metrics satisfy both worst-case bounds.
bool within_bounds(const MappingMetrics& metrics,
                   const Bounds& bounds) noexcept;

/// True when either bound is NaN. Such a query has no answer: a NaN
/// compares false against every metric, which one solver reads as no
/// bound and another as no feasible mapping, so the service refuses it
/// before any cache or solver sees it.
inline bool has_nan_bound(const Bounds& bounds) noexcept {
  return std::isnan(bounds.period_bound) || std::isnan(bounds.latency_bound);
}

/// The tri-criteria preference order used for best-of selection across
/// solvers: higher reliability first, then lower worst-case period, then
/// lower worst-case latency, then fewer processors used. Returns true
/// when `a` is strictly preferred to `b`.
bool tri_criteria_better(const MappingMetrics& a,
                         const MappingMetrics& b) noexcept;

/// A per-instance solving session (see Solver::prepare). Sessions keep
/// references into the instance they were prepared from; the instance
/// and the parent solver must outlive the session.
///
/// A session's answer to a query depends only on the instance and the
/// query, never on the queries before it. A session may still reuse an
/// answer it computed for another query, when it has proved the two
/// equal bit for bit (the +ls sessions replay a local search inside its
/// replay box, core/local_search.hpp). Such state sits behind a lock:
/// a session stays safe to share between threads.
class PreparedSolver {
 public:
  virtual ~PreparedSolver() = default;

  /// Best solution under the bounds, or nullopt when the engine finds
  /// none.
  virtual std::optional<Solution> solve(const Bounds& bounds) const = 0;

  /// solve() with a warm-start hint. Bit-identical to solve(bounds) by
  /// the WarmStart contract; the default ignores the hint.
  virtual std::optional<Solution> solve(const Bounds& bounds,
                                        const WarmStart& warm) const {
    (void)warm;
    return solve(bounds);
  }
};

/// Runs `session.solve(bounds)` — with the hint when `warm` is
/// non-null and non-empty — and reports the wall-clock solve time
/// through `seconds`. One shared timing point, so the cache's per-entry
/// cost accounting and the telemetry histograms can never disagree
/// about what a solve cost.
std::optional<Solution> timed_solve(const PreparedSolver& session,
                                    const Bounds& bounds,
                                    const WarmStart* warm, double& seconds);

/// The uniform engine interface. Implementations are stateless and
/// thread-safe: concurrent solve()/prepare() calls on one solver object
/// are safe.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable registry key ("exact", "heur-l", ...).
  virtual std::string name() const = 0;

  /// One human-readable line for `prts_cli solvers`.
  virtual std::string description() const { return ""; }

  /// True when the engine can handle the instance (e.g. the homogeneous
  /// exact methods reject heterogeneous platforms). solve() on an
  /// unsupported instance returns nullopt instead of throwing.
  virtual bool supports(const Instance& instance) const {
    (void)instance;
    return true;
  }

  /// Best solution under the bounds, or nullopt (infeasible bounds or
  /// unsupported instance).
  virtual std::optional<Solution> solve(const Instance& instance,
                                        const Bounds& bounds) const = 0;

  /// solve() with a warm-start hint (see WarmStart: answer-preserving;
  /// ignored by default).
  virtual std::optional<Solution> solve(const Instance& instance,
                                        const Bounds& bounds,
                                        const WarmStart& warm) const {
    (void)warm;
    return solve(instance, bounds);
  }

  /// True when the engine's answer for `instance` is the argmax of a
  /// fixed preference order over a *fixed, bounds-filtered* candidate
  /// set (first winner kept on ties). For such engines the answer is
  /// bounds-monotone: the answer for looser bounds, when it satisfies
  /// tighter bounds, *is* the answer for the tighter bounds (the
  /// feasible set only shrinks, and a first-wins argmax of a superset
  /// that lies in the subset is the argmax of the subset) — and
  /// infeasibility at looser bounds implies infeasibility at tighter
  /// ones. The solve service uses this to answer near-miss cache
  /// lookups without invoking the solver at all. Engines whose search
  /// trajectory depends on the bounds (bounded DPs with tie-dependent
  /// reconstructions, bounds-driven heuristics, local search) must
  /// return false.
  ///
  /// The +ls engines stay false although their sessions replay a
  /// search across bounds: that replay holds only inside the box one
  /// search proved (between its replay floor and its own bounds), not
  /// for every tighter bound the looser answer satisfies, and the
  /// service's index knows neither the start nor the box. A tighter
  /// query whose search would be vetoed somewhere on the way to the
  /// looser answer ends elsewhere, though that answer fits it.
  virtual bool bounds_monotone(const Instance& instance) const {
    (void)instance;
    return false;
  }

  /// Per-instance session for answering many bound queries (sweeps).
  /// The default simply forwards to solve(); engines with expensive
  /// instance setup override it. The instance must outlive the session.
  virtual std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const;
};

}  // namespace prts::solver
