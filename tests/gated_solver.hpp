// A solver held behind a gate the test opens: the lever for tests that
// need a worker busy for as long as they say (dedup, batching, queue
// overflow), with no sleep and no race against a fast solve.
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "model/serialize.hpp"
#include "solver/adapters.hpp"
#include "solver/solver.hpp"

namespace prts::testutil {

/// A solver that blocks until the test opens its gate. Delegates the
/// actual answer to heur-p so solutions are real.
class GatedSolver final : public solver::Solver {
 public:
  explicit GatedSolver(std::shared_future<void> gate)
      : gate_(std::move(gate)),
        inner_(solver::make_heuristic_solver(HeuristicKind::kHeurP, false)) {}

  std::string name() const override { return "gated"; }

  std::optional<solver::Solution> solve(
      const Instance& instance, const solver::Bounds& bounds) const override {
    gate_.wait();
    return inner_->solve(instance, bounds);
  }

 private:
  std::shared_future<void> gate_;
  std::shared_ptr<const solver::Solver> inner_;
};

/// Opens `gate` at open() or on scope exit, whichever comes first: a
/// test that fails early must not leave a worker (and so the service's
/// destructor) waiting behind the gate.
class GateOpener {
 public:
  explicit GateOpener(std::promise<void>& gate) : gate_(gate) {}
  ~GateOpener() { open(); }
  GateOpener(const GateOpener&) = delete;
  GateOpener& operator=(const GateOpener&) = delete;

  void open() {
    if (!opened_) gate_.set_value();
    opened_ = true;
  }

 private:
  std::promise<void>& gate_;
  bool opened_ = false;
};

}  // namespace prts::testutil
