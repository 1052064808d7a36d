#include "core/local_search.hpp"

#include <algorithm>
#include <vector>

namespace prts {
namespace {

/// Replica sets up to this wide try every 2-way division in a split
/// (2^k - 2 per cut); a wider set tries only the k - 1 cuts of its stored
/// order, so the move stays polynomial in K.
constexpr std::size_t kExhaustiveSplitWidth = 10;

/// Marks a candidate interval whose terms must be computed afresh.
constexpr std::size_t kFresh = static_cast<std::size_t>(-1);

/// One interval's share of the objectives: the computation time the
/// bounds are checked on (expected or worst case), the outgoing
/// communication time and the Eq. (9) factor.
struct IntervalTerms {
  double compute = 0.0;
  double comm = 0.0;
  LogReliability reliability;
};

/// A mapping as flat arrays: interval ends, replica offsets and the
/// replicas in stored order (the order the moves built them in). An
/// interval copied unchanged from the current state records its source
/// index there, and its terms are reused instead of recomputed.
struct Layout {
  std::vector<std::size_t> lasts;
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> procs;
  std::vector<std::size_t> source;
  std::vector<IntervalTerms> terms;

  void reserve(std::size_t intervals, std::size_t processors) {
    lasts.reserve(intervals);
    offsets.reserve(intervals + 1);
    procs.reserve(processors);
    source.reserve(intervals);
    terms.reserve(intervals);
  }

  std::size_t size() const noexcept { return lasts.size(); }

  std::size_t first(std::size_t j) const noexcept {
    return j == 0 ? 0 : lasts[j - 1] + 1;
  }

  std::span<const std::size_t> replicas(std::size_t j) const noexcept {
    return {procs.data() + offsets[j], offsets[j + 1] - offsets[j]};
  }

  void clear() noexcept {
    lasts.clear();
    offsets.resize(1);
    procs.clear();
    source.clear();
  }

  void push(std::size_t last, std::span<const std::size_t> replicas,
            std::size_t from) {
    lasts.push_back(last);
    procs.insert(procs.end(), replicas.begin(), replicas.end());
    offsets.push_back(procs.size());
    source.push_back(from);
  }

  /// Adds a replica to the interval pushed last.
  void append(std::size_t u) {
    procs.push_back(u);
    ++offsets.back();
  }
};

/// Hill-climbing state. A neighbour is built in the candidate layout and
/// scored from the current intervals' cached terms plus the terms of the
/// (at most two) intervals the move changed, with the same arithmetic
/// and order as evaluate(), so an accepted move's totals carry
/// evaluate()'s bits.
class Search {
 public:
  Search(const TaskChain& chain, const Platform& platform,
         const LocalSearchOptions& options)
      : chain_(chain), platform_(platform), options_(options) {
    const std::size_t intervals =
        std::min(chain.size(), platform.processor_count()) + 1;
    const std::size_t p = platform.processor_count();
    current_.reserve(intervals, p);
    candidate_.reserve(intervals, p);
    for (auto* buffer : {&left_, &right_, &merged_, &sorted_, &order_,
                         &idle_}) {
      buffer->reserve(p);
    }
    used_.reserve(p);
  }

  /// Takes `mapping` as the current state; false when it breaks a
  /// constraint or a bound.
  bool start(const Mapping& mapping) {
    candidate_.clear();
    for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
      candidate_.push(mapping.partition().interval(j).last,
                      mapping.processors(j), kFresh);
    }
    LogReliability total;
    if (!score(total)) return false;
    std::swap(current_, candidate_);
    reliability_ = total;
    return true;
  }

  /// Climbs until no move improves or `max_rounds` sweeps ran; returns
  /// the sweeps run.
  std::size_t climb();

  std::size_t moves_accepted() const noexcept { return moves_accepted_; }

  /// The largest period and latency a passing bound check compared.
  double floor_period() const noexcept { return floor_period_; }
  double floor_latency() const noexcept { return floor_latency_; }

  Mapping mapping() const {
    std::vector<std::vector<std::size_t>> procs;
    procs.reserve(current_.size());
    for (std::size_t j = 0; j < current_.size(); ++j) {
      const auto replicas = current_.replicas(j);
      procs.emplace_back(replicas.begin(), replicas.end());
    }
    return Mapping(
        IntervalPartition::from_boundaries(current_.lasts, chain_.size()),
        std::move(procs));
  }

 private:
  /// Fills the candidate's terms and its Eq. (9) total; false when it
  /// breaks a constraint or a bound. The period and latency are checked
  /// before any reliability factor is computed; a passing check raises
  /// the replay floor to them. This is the search's only bound check.
  bool score(LogReliability& total) {
    const std::size_t m = candidate_.size();
    candidate_.terms.resize(m);
    double latency = 0.0;
    double period = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      IntervalTerms& terms = candidate_.terms[j];
      if (candidate_.source[j] != kFresh) {
        terms = current_.terms[candidate_.source[j]];
      } else if (!time_terms(j, terms)) {
        return false;
      }
      latency += terms.compute + terms.comm;
      period = std::max({period, terms.compute, terms.comm});
    }
    if (period > options_.period_bound || latency > options_.latency_bound) {
      return false;
    }
    floor_period_ = std::max(floor_period_, period);
    floor_latency_ = std::max(floor_latency_, latency);
    total = LogReliability();
    for (std::size_t j = 0; j < m; ++j) {
      IntervalTerms& terms = candidate_.terms[j];
      if (candidate_.source[j] == kFresh) terms.reliability = reliability(j);
      total *= terms.reliability;
    }
    return true;
  }

  /// Computation and communication times of fresh candidate interval j;
  /// false when a replica is not allowed there.
  bool time_terms(std::size_t j, IntervalTerms& terms) {
    const Interval interval{candidate_.first(j), candidate_.lasts[j]};
    const auto replicas = candidate_.replicas(j);
    if (options_.constraints != nullptr) {
      for (std::size_t u : replicas) {
        if (!options_.constraints->interval_allowed(interval, u)) {
          return false;
        }
      }
    }
    const double work = chain_.work_sum(interval.first, interval.last);
    terms.compute =
        options_.use_expected_metrics
            ? expected_computation_time(platform_, work, replicas, order_)
            : worst_computation_time(platform_, work, replicas);
    terms.comm = platform_.comm_time(chain_.out_size(interval.last));
    return true;
  }

  /// Eq. (9) factor of fresh candidate interval j. evaluate() sees the
  /// replicas in ascending labels (a Mapping sorts them), so they are
  /// multiplied in that order here too, not in stored order.
  LogReliability reliability(std::size_t j) {
    const std::size_t first = candidate_.first(j);
    const std::size_t last = candidate_.lasts[j];
    const auto replicas = candidate_.replicas(j);
    sorted_.assign(replicas.begin(), replicas.end());
    std::sort(sorted_.begin(), sorted_.end());
    return interval_reliability(
        platform_, sorted_, chain_.work_sum(first, last),
        first == 0 ? 0.0 : chain_.out_size(first - 1),
        chain_.out_size(last));
  }

  /// Scores the candidate and makes it current when it is strictly more
  /// reliable.
  bool try_candidate() {
    LogReliability total;
    if (!score(total)) return false;
    if (total.log() <= reliability_.log() + 1e-15) return false;
    std::swap(current_, candidate_);
    reliability_ = total;
    ++moves_accepted_;
    return true;
  }

  /// Flags in used_ the processors the current state maps to.
  void mark_used() {
    used_.assign(platform_.processor_count(), 0);
    for (std::size_t u : current_.procs) used_[u] = 1;
  }

  /// Copies current intervals [from, to) into the candidate unchanged.
  void copy(std::size_t from, std::size_t to) {
    for (std::size_t j = from; j < to; ++j) {
      candidate_.push(current_.lasts[j], current_.replicas(j), j);
    }
  }

  bool recruit();
  bool split();
  bool merge();
  bool move_replica();
  bool swap_sets();
  bool shift_boundary();

  const TaskChain& chain_;
  const Platform& platform_;
  const LocalSearchOptions& options_;
  Layout current_;
  Layout candidate_;
  LogReliability reliability_;  ///< Eq. (9) of the current state
  std::size_t moves_accepted_ = 0;
  double floor_period_ = 0.0;
  double floor_latency_ = 0.0;
  std::vector<std::size_t> left_;
  std::vector<std::size_t> right_;
  std::vector<std::size_t> merged_;
  std::vector<std::size_t> sorted_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> idle_;
  std::vector<char> used_;
};

std::size_t Search::climb() {
  std::size_t rounds = 0;
  while (rounds < options_.max_rounds) {
    ++rounds;
    // First improvement in a fixed move order: a sweep ends at the first
    // accepted move.
    if (!(recruit() || split() || merge() || move_replica() ||
          swap_sets() || shift_boundary())) {
      break;  // local optimum
    }
  }
  return rounds;
}

// Move 0: recruit an idle processor as an extra replica (always a
// reliability gain; may be vetoed by the worst-case bounds).
bool Search::recruit() {
  const unsigned max_k = platform_.max_replication();
  mark_used();
  for (std::size_t u = 0; u < used_.size(); ++u) {
    if (used_[u] != 0) continue;
    for (std::size_t j = 0; j < current_.size(); ++j) {
      if (current_.replicas(j).size() >= max_k) continue;
      candidate_.clear();
      copy(0, j);
      candidate_.push(current_.lasts[j], current_.replicas(j), kFresh);
      candidate_.append(u);
      copy(j + 1, current_.size());
      if (try_candidate()) return true;
    }
  }
  return false;
}

// Move 1: split interval j at an inner boundary, dividing its replicas
// between the halves, first refilling both halves with idle processors
// up to K, then without. Up to kExhaustiveSplitWidth replicas every
// division is tried (by bitmask over the stored order); a wider set tries
// its stored order's prefix/suffix cuts.
bool Search::split() {
  const unsigned max_k = platform_.max_replication();
  const std::size_t m = current_.size();
  // Idle processors ordered most-reliable-per-work first, used to refill
  // both halves (a raw split loses redundancy and almost never improves
  // on its own — the refilled macro-move jumps that valley).
  mark_used();
  idle_.clear();
  for (std::size_t u = 0; u < used_.size(); ++u) {
    if (used_[u] == 0) idle_.push_back(u);
  }
  std::sort(idle_.begin(), idle_.end(), [&](std::size_t a, std::size_t b) {
    const double ka = platform_.failure_rate(a) / platform_.speed(a);
    const double kb = platform_.failure_rate(b) / platform_.speed(b);
    if (ka != kb) return ka < kb;
    return a < b;
  });
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t first = current_.first(j);
    const std::size_t last = current_.lasts[j];
    const auto replicas = current_.replicas(j);
    const std::size_t k = replicas.size();
    if (first == last || k < 2) continue;
    const bool exhaustive = k <= kExhaustiveSplitWidth;
    const std::size_t divisions =
        exhaustive ? (std::size_t{1} << k) - 2 : k - 1;
    for (std::size_t cut = first; cut < last; ++cut) {
      for (std::size_t d = 0; d < divisions; ++d) {
        for (const bool refill : {true, false}) {
          left_.clear();
          right_.clear();
          for (std::size_t bit = 0; bit < k; ++bit) {
            const bool to_left =
                exhaustive ? (((d + 1) >> bit) & 1U) != 0 : bit <= d;
            (to_left ? left_ : right_).push_back(replicas[bit]);
          }
          if (refill) {
            for (std::size_t next = 0;
                 next < idle_.size() &&
                 (left_.size() < max_k || right_.size() < max_k);
                 ++next) {
              // Top up the thinner half first.
              auto& target =
                  left_.size() <= right_.size() && left_.size() < max_k
                      ? left_
                      : right_;
              target.push_back(idle_[next]);
            }
          } else if (idle_.empty()) {
            break;  // the same candidate as the refilled one
          }
          candidate_.clear();
          copy(0, j);
          candidate_.push(cut, left_, kFresh);
          candidate_.push(last, right_, kFresh);
          copy(j + 1, m);
          if (try_candidate()) return true;
        }
      }
    }
  }
  return false;
}

// Move 2: merge adjacent intervals, keeping the most reliable <= K
// replicas of the union (the rest go idle).
bool Search::merge() {
  const unsigned max_k = platform_.max_replication();
  const std::size_t m = current_.size();
  for (std::size_t j = 0; j + 1 < m; ++j) {
    const auto left = current_.replicas(j);
    const auto right = current_.replicas(j + 1);
    merged_.assign(left.begin(), left.end());
    merged_.insert(merged_.end(), right.begin(), right.end());
    const double work =
        chain_.work_sum(current_.first(j), current_.lasts[j + 1]);
    // Most reliable first: smallest branch failure on the merged work.
    std::sort(merged_.begin(), merged_.end(),
              [&](std::size_t a, std::size_t b) {
                const double fa = platform_.failure_rate(a) *
                                  (work / platform_.speed(a));
                const double fb = platform_.failure_rate(b) *
                                  (work / platform_.speed(b));
                if (fa != fb) return fa < fb;
                return a < b;
              });
    if (merged_.size() > max_k) merged_.resize(max_k);
    candidate_.clear();
    copy(0, j);
    candidate_.push(current_.lasts[j + 1], merged_, kFresh);
    copy(j + 2, m);
    if (try_candidate()) return true;
  }
  return false;
}

// Move 3: move one replica from interval a to interval b.
bool Search::move_replica() {
  const unsigned max_k = platform_.max_replication();
  const std::size_t m = current_.size();
  for (std::size_t a = 0; a < m; ++a) {
    const auto from = current_.replicas(a);
    if (from.size() < 2) continue;
    for (std::size_t b = 0; b < m; ++b) {
      if (a == b || current_.replicas(b).size() >= max_k) continue;
      for (std::size_t idx = 0; idx < from.size(); ++idx) {
        candidate_.clear();
        for (std::size_t j = 0; j < m; ++j) {
          if (j == a) {
            candidate_.push(current_.lasts[a], from.first(idx), kFresh);
            for (std::size_t u : from.subspan(idx + 1)) {
              candidate_.append(u);
            }
          } else if (j == b) {
            candidate_.push(current_.lasts[b], current_.replicas(b), kFresh);
            candidate_.append(from[idx]);
          } else {
            copy(j, j + 1);
          }
        }
        if (try_candidate()) return true;
      }
    }
  }
  return false;
}

// Move 4: swap the replica sets of two intervals.
bool Search::swap_sets() {
  const std::size_t m = current_.size();
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      candidate_.clear();
      copy(0, a);
      candidate_.push(current_.lasts[a], current_.replicas(b), kFresh);
      copy(a + 1, b);
      candidate_.push(current_.lasts[b], current_.replicas(a), kFresh);
      copy(b + 1, m);
      if (try_candidate()) return true;
    }
  }
  return false;
}

// Move 5: shift the boundary between adjacent intervals by one task in
// either direction (classic partition refinement). Both intervals
// change: the right one's work and its incoming data size.
bool Search::shift_boundary() {
  const std::size_t m = current_.size();
  auto shifted = [&](std::size_t j, std::size_t last) {
    candidate_.clear();
    copy(0, j);
    candidate_.push(last, current_.replicas(j), kFresh);
    candidate_.push(current_.lasts[j + 1], current_.replicas(j + 1),
                    kFresh);
    copy(j + 2, m);
    return try_candidate();
  };
  for (std::size_t j = 0; j + 1 < m; ++j) {
    const std::size_t last = current_.lasts[j];
    // The left interval keeps >= 1 task, the right one too.
    if (last > current_.first(j) && shifted(j, last - 1)) return true;
    if (last + 1 < current_.lasts[j + 1] && shifted(j, last + 1)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<LocalSearchResult> improve_mapping(
    const TaskChain& chain, const Platform& platform, const Mapping& start,
    const LocalSearchOptions& options) {
  if (start.validate(platform).has_value()) return std::nullopt;
  Search search(chain, platform, options);
  if (!search.start(start)) return std::nullopt;
  const std::size_t rounds = search.climb();
  Mapping mapping = search.mapping();
  const MappingMetrics metrics = evaluate(chain, platform, mapping);
  return LocalSearchResult{std::move(mapping), metrics, rounds,
                           search.moves_accepted(), search.floor_period(),
                           search.floor_latency()};
}

}  // namespace prts
