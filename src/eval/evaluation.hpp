// Evaluation of a given mapping (Section 4): reliability via the
// serial-parallel RBD with routing operations (Eq. (9)), expected and
// worst-case computation times of replicated intervals (Eqs. (3)-(4)),
// and the four latency/period objectives (Eqs. (5)-(8)).
//
// All reliability values are carried as LogReliability; see
// common/prob.hpp for the numerical-stability rationale.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/prob.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// Expected computation time of an interval of weight `work` replicated on
/// `procs` (Eq. (3)): the completion time of the fastest surviving replica,
/// conditioned on at least one replica surviving. Returns +inf when no
/// replica can succeed.
double expected_computation_time(const Platform& platform, double work,
                                 std::span<const std::size_t> procs) noexcept;

/// The same, ordering the replicas fastest first in `order`, a buffer the
/// caller keeps across calls so that repeated calls allocate nothing.
double expected_computation_time(const Platform& platform, double work,
                                 std::span<const std::size_t> procs,
                                 std::vector<std::size_t>& order) noexcept;

/// Worst-case computation time of an interval of weight `work` replicated
/// on `procs` (Eq. (4)): the completion time of the slowest replica.
double worst_computation_time(const Platform& platform, double work,
                              std::span<const std::size_t> procs) noexcept;

/// Reliability of one replica branch of interval j (the serial block
/// comm-in -> compute -> comm-out of Figure 5): Eq. (9) inner term
/// r_comm,j-1 * r_u,Ij * r_comm,j. `in_size`/`out_size` are the data sizes
/// of the incoming and outgoing communications (0 disables the hop).
LogReliability branch_reliability(const Platform& platform, std::size_t proc,
                                  double work, double in_size,
                                  double out_size) noexcept;

/// Reliability of interval j replicated on `procs` (Eq. (9) factor):
/// 1 - prod_u (1 - branch reliability on u), multiplied in the order of
/// `procs` (ascending labels, as a Mapping stores them).
LogReliability interval_reliability(const Platform& platform,
                                    std::span<const std::size_t> procs,
                                    double work, double in_size,
                                    double out_size) noexcept;

/// Reliability of a whole mapping (Eq. (9)). Routing operations have
/// reliability 1 and do not appear.
LogReliability mapping_reliability(const TaskChain& chain,
                                   const Platform& platform,
                                   const Mapping& mapping) noexcept;

/// All objectives of Section 2.6 for a mapping, computed in one pass.
struct MappingMetrics {
  LogReliability reliability;      ///< Eq. (9)
  double failure = 0.0;            ///< 1 - reliability, full precision
  double expected_latency = 0.0;   ///< EL, Eq. (5)
  double worst_latency = 0.0;      ///< WL, Eq. (7)
  double expected_period = 0.0;    ///< EP, Eq. (6)
  double worst_period = 0.0;       ///< WP, Eq. (8)
  std::size_t interval_count = 0;  ///< m
  std::size_t processors_used = 0;
  double replication_level = 0.0;  ///< processors_used / m

  /// Exact (bitwise on the doubles) equality — what the service cache's
  /// bit-identical-replay guarantee is stated in terms of.
  bool operator==(const MappingMetrics&) const noexcept = default;
};

/// Evaluates every objective for a mapping. The mapping is assumed valid
/// for the platform (see Mapping::validate).
MappingMetrics evaluate(const TaskChain& chain, const Platform& platform,
                        const Mapping& mapping) noexcept;

/// On homogeneous platforms expected and worst-case coincide; these
/// helpers compute the period/latency of a bare partition there, where
/// neither depends on the processor assignment (Section 5.5).
double homogeneous_partition_latency(const TaskChain& chain,
                                     const Platform& platform,
                                     const IntervalPartition& partition)
    noexcept;
double homogeneous_partition_period(const TaskChain& chain,
                                    const Platform& platform,
                                    const IntervalPartition& partition)
    noexcept;

}  // namespace prts
