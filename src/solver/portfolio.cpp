#include "solver/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace prts::solver {
namespace {

/// Best in-budget feasible answer, ties to the earliest slot (so
/// selection is deterministic for a fixed member order).
std::optional<Solution> select_best(
    std::vector<std::optional<Solution>>& answers, const Bounds& bounds) {
  std::optional<Solution> best;
  for (std::optional<Solution>& answer : answers) {
    if (!answer || !within_bounds(answer->metrics, bounds)) continue;
    if (!best || tri_criteria_better(answer->metrics, best->metrics)) {
      best = std::move(answer);
    }
  }
  return best;
}

/// One prepared member session per supported engine, raced over a pool
/// that lives as long as the session (no per-query pool churn inside
/// campaign workers).
class PortfolioSession final : public PreparedSolver {
 public:
  PortfolioSession(const std::vector<PortfolioMember>& members,
                   const Instance& instance, std::size_t threads) {
    for (const PortfolioMember& member : members) {
      if (!member.solver->supports(instance)) continue;
      entries_.push_back(Entry{member.solver->prepare(instance),
                               member.time_budget_seconds});
    }
    if (!entries_.empty()) {
      // Never more workers than members: portfolios run nested inside
      // campaign worker threads, where a hardware-sized pool per
      // session would explode the thread count.
      const std::size_t workers =
          threads == 0 ? entries_.size()
                       : std::min(threads, entries_.size());
      pool_ = std::make_unique<ThreadPool>(workers);
    }
  }

  std::optional<Solution> solve(const Bounds& bounds) const override {
    if (entries_.empty()) return std::nullopt;
    std::vector<std::optional<Solution>> answers(entries_.size());
    pool_->parallel_for(entries_.size(), [&](std::size_t i) {
      const Entry& entry = entries_[i];
      const auto start = std::chrono::steady_clock::now();
      auto answer = entry.session->solve(bounds);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      // Engines are uninterruptible black boxes: the budget gates which
      // answers count, not how long the race takes.
      if (elapsed > entry.time_budget_seconds) return;
      answers[i] = std::move(answer);
    });
    return select_best(answers, bounds);
  }

 private:
  struct Entry {
    std::unique_ptr<PreparedSolver> session;
    double time_budget_seconds;
  };

  std::vector<Entry> entries_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

PortfolioSolver::PortfolioSolver(std::string name,
                                 std::vector<PortfolioMember> members,
                                 std::size_t threads)
    : name_(std::move(name)),
      members_(std::move(members)),
      threads_(threads) {
  for (const PortfolioMember& member : members_) {
    if (!member.solver) {
      throw std::invalid_argument("PortfolioSolver: null member solver");
    }
  }
}

std::string PortfolioSolver::description() const {
  std::string text = "portfolio of";
  for (const PortfolioMember& member : members_) {
    text += ' ';
    text += member.solver->name();
  }
  return text;
}

bool PortfolioSolver::supports(const Instance& instance) const {
  for (const PortfolioMember& member : members_) {
    if (member.solver->supports(instance)) return true;
  }
  return false;
}

std::optional<Solution> PortfolioSolver::solve(const Instance& instance,
                                               const Bounds& bounds) const {
  return PortfolioSession(members_, instance, threads_).solve(bounds);
}

std::unique_ptr<PreparedSolver> PortfolioSolver::prepare(
    const Instance& instance) const {
  return std::make_unique<PortfolioSession>(members_, instance, threads_);
}

std::shared_ptr<const Solver> make_portfolio(
    const SolverRegistry& registry, const std::string& name,
    const std::vector<std::string>& member_names, double time_budget_seconds,
    std::size_t threads) {
  if (member_names.empty()) {
    throw std::invalid_argument("make_portfolio: empty member list");
  }
  std::vector<PortfolioMember> members;
  members.reserve(member_names.size());
  for (const std::string& member_name : member_names) {
    auto solver = registry.find(member_name);
    if (!solver) {
      throw std::invalid_argument("make_portfolio: unknown solver '" +
                                  member_name + "'");
    }
    members.push_back(PortfolioMember{std::move(solver),
                                      time_budget_seconds});
  }
  return std::make_shared<PortfolioSolver>(name, std::move(members),
                                           threads);
}

}  // namespace prts::solver
