// Allocation of processors to a fixed interval partition.
//
// Homogeneous platforms (Section 5.5): the greedy Algo-Alloc is optimal
// (Theorem 4) — allocate one processor per interval, then repeatedly give
// the next processor to the interval whose reliability ratio
// (reliability with one more replica / current reliability) is largest.
//
// Heterogeneous platforms (Section 7.2): the natural extension — visit
// processors from most to least reliable (increasing lambda_u / s_u, the
// failure exponent per unit of work); first give one processor to the
// longest unserved interval it can serve within the period bound, then
// give every remaining processor to the interval with the best
// reliability ratio among those it can serve. Optional task-processor
// allocation constraints are honored.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "model/constraints.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// Options for the allocator.
struct AllocOptions {
  /// Worst-case period bound: a processor is never assigned to an
  /// interval whose computation time on it exceeds the bound.
  double period_bound = std::numeric_limits<double>::infinity();

  /// Optional task-processor eligibility (nullptr: everything allowed).
  const AllocationConstraints* constraints = nullptr;
};

/// Allocates the platform's processors to the partition's intervals,
/// maximizing the Eq. (9) reliability. Returns nullopt when some interval
/// cannot receive any processor (more intervals than processors, period
/// bound too tight, or constraints unsatisfiable).
///
/// On homogeneous platforms with no period bound and no constraints this
/// is exactly Algo-Alloc and the result is optimal (Theorem 4); in
/// general it is the Section 7.2 heuristic.
std::optional<Mapping> allocate_processors(const TaskChain& chain,
                                           const Platform& platform,
                                           const IntervalPartition& partition,
                                           const AllocOptions& options = {});

/// Replication counts only, for homogeneous platforms: the greedy
/// Algo-Alloc on interval branch-failure probabilities. `branch_failure[j]`
/// is the failure probability of one replica of interval j (Eq. (9) inner
/// term); the result is the per-interval replica count summing to at most
/// `processor_count`, each between 1 and `max_replication`, maximizing
/// sum_j log(1 - branch_failure[j]^q_j). Returns an empty vector when
/// interval_count > processor_count.
std::vector<unsigned> algo_alloc_counts(std::span<const double> branch_failure,
                                        std::size_t processor_count,
                                        unsigned max_replication);

/// The greedy behind algo_alloc_counts, on precomputed stage
/// log-reliabilities: `rows[j][q - 1]` is log(1 - f_j^q) of interval j
/// for q = 1..max_q, where max_q = min(max_replication, processor_count).
/// Writes interval j's replica count to `counts[j]`. Requires
/// counts.size() == rows.size() <= processor_count.
void algo_alloc(std::span<const double* const> rows, std::size_t max_q,
                std::size_t processor_count, std::span<unsigned> counts);

}  // namespace prts
