// The request engine (third layer of src/service/): an async, batched
// front end that turns the solver library into a long-running solve
// service.
//
// A submit() call canonicalizes the request, then takes the cheapest
// path that answers it:
//   1. cache hit  -> the reply future is ready immediately;
//   1b. near-miss hit: no entry under the exact key, but the
//      bounds-monotone index (service/cache.hpp) holds an answer for
//      *looser* bounds of the same (instance, solver) that transfers —
//      a feasible solution already satisfying the tighter request, or a
//      looser-bounds infeasibility. For engines declaring
//      Solver::bounds_monotone this is bit-identical to a cold solve,
//      so it is served like a cache hit (and promoted under the exact
//      key). Otherwise a cached solution for *tighter* bounds that fits
//      the request becomes a solver::WarmStart (feasible incumbent +
//      reliability floor) attached to the query — engines prune with
//      it, answers stay byte-identical by the WarmStart contract;
//   2. an identical request is already in flight -> the new caller is
//      attached to it (deduplication: one solve, many futures);
//   3. otherwise the request joins the open *batch* of its
//      (canonical instance, solver) pair — requests differing only in
//      bounds share one prepared solver session (Solver::prepare), the
//      access pattern of design-space sweeps — and the batch is fanned
//      out across the shared ThreadPool. Workers pick up open batches
//      in *earliest-waiter-deadline* order, not FIFO: under backlog a
//      tight-deadline request is served before patient ones that were
//      submitted earlier, instead of expiring in the queue behind them.
//
// Admission control: a queue-depth limit rejects new work outright
// (kRejectedQueue) when the backlog is full, and a per-request deadline
// measured from submission either rejects late requests or downgrades
// them to a fast heuristic solver (config.fallback_solver) when the
// batch worker finally reaches them. Downgraded answers are *not*
// cached — they would poison the key of the solver actually requested.
//
// Every solve runs on the canonical instance, so isomorphic requests
// receive bit-identical metrics and label-translated copies of one
// mapping whether served cold, deduplicated, or from the cache.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// What to do with a request whose deadline elapsed while it queued.
enum class DeadlinePolicy {
  kReject,     ///< fail with kRejectedDeadline
  kDowngrade,  ///< answer with config.fallback_solver instead
};

struct SolveRequest {
  SolveRequest() = default;
  // Not an aggregate: the trailing members default without tripping
  // -Wmissing-field-initializers at the many shorter call sites.
  explicit SolveRequest(
      Instance instance, std::string solver = "portfolio",
      solver::Bounds bounds = {},
      double deadline_seconds = std::numeric_limits<double>::infinity(),
      DeadlinePolicy deadline_policy = DeadlinePolicy::kDowngrade,
      std::optional<solver::WarmStart> warm_start = {})
      : instance(std::move(instance)),
        solver(std::move(solver)),
        bounds(bounds),
        deadline_seconds(deadline_seconds),
        deadline_policy(deadline_policy),
        warm_start(std::move(warm_start)) {}

  Instance instance;
  std::string solver = "portfolio";  ///< registry name
  solver::Bounds bounds;

  /// Seconds from submission the caller is willing to wait before the
  /// solve *starts*; <= 0 expires immediately, +inf never.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  DeadlinePolicy deadline_policy = DeadlinePolicy::kDowngrade;

  /// Optional caller-supplied warm start in *canonical* processor
  /// labels (the shard router forwards its best local near-miss this
  /// way). Merged with — and superseded by — anything stronger the
  /// local near-miss index turns up; never changes the answer.
  std::optional<solver::WarmStart> warm_start;

  /// Externally minted trace id (the remote half of a forwarded solve
  /// records its spans under the id carried on the wire). 0 = mint one
  /// locally.
  std::uint64_t trace_id = 0;
};

enum class ReplyStatus {
  kSolved,            ///< solution present
  kInfeasible,        ///< solver found no mapping under the bounds
  kRejectedQueue,     ///< admission control: backlog full
  kRejectedDeadline,  ///< deadline elapsed, policy kReject
  kError,             ///< unknown solver or solver exception (see error)
};

/// "solved", "infeasible", ... (the line protocol's status column).
const char* reply_status_name(ReplyStatus status) noexcept;

struct EngineStats;

/// Writes an EngineStats snapshot as one JSON object (the line
/// protocol's '# engine' payload and the fabric's stats frames).
void write_engine_stats_json(std::ostream& out, const EngineStats& stats);

struct SolveReply {
  ReplyStatus status = ReplyStatus::kError;
  std::optional<solver::Solution> solution;  ///< request's own labels
  bool cache_hit = false;
  bool near_miss = false;     ///< served via the bounds-monotone index
  bool deduplicated = false;  ///< attached to an in-flight twin
  bool downgraded = false;    ///< answered by the fallback solver
  std::string solver_used;    ///< empty when nothing was solved
  CanonicalHash key;          ///< the request's cache key
  /// Recorded solve cost of the answer (0 when unknown): rides the wire
  /// so a requesting rank's replica tier can scale its TTL with it.
  double cost_seconds = 0.0;
  std::string error;          ///< set iff status == kError
  /// The trace this reply was recorded under.
  std::uint64_t trace_id = 0;
  /// Spans the *answering* rank recorded for a forwarded solve, decoded
  /// off the wire reply; the origin shifts them by the wire span's
  /// start and merges them into its own trace.
  std::vector<obs::Span> remote_spans;
};

/// A future already holding `reply` — for paths (cache hits,
/// rejections, replica hits) that answer without touching a worker.
std::future<SolveReply> ready_reply_future(SolveReply reply);

/// A snapshot of the engine's registry counters (SolveService::stats).
/// Field <f> is stored in engine_<f>_total, except `submitted`, which
/// is engine_requests_total.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;        ///< exact-key hits
  std::uint64_t dominating_hits = 0;   ///< near-miss answers (no solve)
  std::uint64_t warm_started = 0;      ///< solves run with a warm hint
  std::uint64_t solver_invocations = 0;  ///< session solves executed
  std::uint64_t deduplicated = 0;
  std::uint64_t batches = 0;           ///< batch tasks executed
  std::uint64_t batched_requests = 0;  ///< requests that shared a batch
  std::uint64_t downgraded = 0;
  std::uint64_t rejected_queue = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t errors = 0;
};

/// Writes the per-tier hit breakdown as one JSON object:
///   {"exact":..,"dominating":..,"warm_start":..,"miss":..}
/// exact = exact-key cache hits, dominating = near-miss answers served
/// without a solve, warm_start = solves accelerated by a hint, miss =
/// cold solves (solver_invocations - warm_started).
void write_hit_tiers_json(std::ostream& out, const EngineStats& stats);

struct ServiceConfig {
  /// Solver lookup table; the built-in registry when null.
  const solver::SolverRegistry* registry = nullptr;

  std::size_t threads = 0;  ///< worker pool size, hardware when 0

  bool cache_enabled = true;
  ShardedSolutionCache::Config cache;

  /// Near-miss reuse (requires the cache): bounds-monotone dominating
  /// hits answer without a solve, other near misses warm-start the
  /// solver. Both are answer-preserving, so this defaults on; turning
  /// it off (`--near-miss off`) is for A/B measurement.
  bool near_miss = true;

  /// Maximum number of accepted-but-unfinished requests (dedup waiters
  /// and cache hits do not count); 0 rejects everything.
  std::size_t max_queue_depth = 4096;

  /// Deadline downgrade target; must answer on any platform.
  std::string fallback_solver = "heur-p";

  /// Per-rank telemetry: the registry every engine counter lives in,
  /// plus the tracer, profiler and watchdog. Must outlive the service.
  /// nullptr makes the service own one; telemetry is never off.
  obs::Telemetry* telemetry = nullptr;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});

  /// Drains every accepted request, then stops the pool.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits a request; the future is ready immediately on a cache hit
  /// or rejection, and resolves from a worker thread otherwise. Never
  /// throws on solver-level failures — they arrive as reply statuses.
  std::future<SolveReply> submit(SolveRequest request);

  /// submit() for callers that already canonicalized the request (the
  /// shard router does, to pick the owner shard) — skips the second
  /// canonicalization on the hot path. `canonical` MUST be
  /// canonicalize(request.instance) and `key` its request_key.
  std::future<SolveReply> submit_canonicalized(
      SolveRequest request,
      std::shared_ptr<const CanonicalInstance> canonical,
      const CanonicalHash& key);

  /// The first half of submit(): canonicalize(request.instance) and its
  /// request_key, sampled as the profiler's "canonicalize" component.
  std::pair<std::shared_ptr<const CanonicalInstance>, CanonicalHash>
  canonicalize_request(const SolveRequest& request);

  /// The exact-hit path for a request that carries its own key (a
  /// forwarded solve): the entry under `key` as it is stored, without
  /// the instance. A forwarded instance is canonical — a fixed point of
  /// canonicalize — so the stored canonical labels ARE the request's
  /// labels and the reply is byte-identical to submit()'s. Rendered by
  /// the same routine as submit()'s cache hits (stats, cache_lookup
  /// span, latency, allocations, adoption of `trace_id`). nullopt on a
  /// miss, which counts nothing: the caller then submits the parsed
  /// request, and that counts it once. Dominating hits are not served
  /// here — bounds_monotone is a property of the decoded instance.
  std::optional<SolveReply> answer_by_key(const CanonicalHash& key,
                                          const std::string& solver,
                                          std::uint64_t trace_id);

  /// Blocks until every accepted request has been answered.
  void wait_idle();

  /// Relaxed reads of the registry counters; takes no lock.
  EngineStats stats() const;
  CacheStats cache_stats() const;
  ShardedSolutionCache& cache() noexcept { return cache_; }
  const ServiceConfig& config() const noexcept { return config_; }
  /// The configured telemetry, or the service's own.
  obs::Telemetry& telemetry() const noexcept { return telemetry_; }

 private:
  /// One caller attached to a pending query. Each waiter keeps its own
  /// canonical form (isomorphic twins need their own label translation)
  /// and its own deadline/policy (a duplicate must not be rejected or
  /// downgraded on a stranger's options).
  struct Waiter {
    std::promise<SolveReply> promise;
    std::shared_ptr<const CanonicalInstance> canonical;
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    std::chrono::steady_clock::time_point submitted;
    bool deduplicated;
    std::uint64_t trace_id = 0;  ///< this waiter's own trace
  };

  struct PendingQuery {
    std::shared_ptr<const CanonicalInstance> canonical;
    solver::Bounds bounds;
    CanonicalHash key;
    /// Warm hint harvested at submission (canonical labels); refreshed
    /// against the index again at solve time — earlier queries of the
    /// same batch may have produced stronger floors by then.
    std::optional<solver::WarmStart> warm;
    std::vector<Waiter> waiters;  ///< [0] = first submitter
  };

  struct Batch {
    std::shared_ptr<const CanonicalInstance> canonical;
    std::string solver_name;
    CanonicalHash key;  ///< batch key
    std::vector<std::unique_ptr<PendingQuery>> queries;
    /// Earliest absolute deadline over the queries' first submitters,
    /// maintained on insertion so pickup never rescans waiters. (A
    /// dedup waiter attaching to an in-flight query does not raise an
    /// open batch's urgency — pickup order is a scheduling heuristic;
    /// per-waiter deadline *semantics* are enforced in run_next_batch.)
    std::chrono::steady_clock::time_point earliest_deadline =
        std::chrono::steady_clock::time_point::max();
    /// Creation order, the tie-break: equal deadlines (the common
    /// all-infinite case) are served FIFO, not in map-iteration order.
    std::uint64_t sequence = 0;
  };

  /// What run_batch concluded for one query; finish_query renders it
  /// into per-waiter replies (statuses can differ per waiter when every
  /// waiter's deadline expired under mixed policies).
  struct QueryOutcome {
    enum class Kind {
      kError,     ///< unknown solver / solver exception
      kAnswered,  ///< solved with the requested solver
      kFallback,  ///< all deadlines expired; fallback answer available
      kRejected,  ///< all deadlines expired, every policy was kReject
    };
    Kind kind = Kind::kError;
    std::optional<solver::Solution> canonical_solution;
    std::string solver_used;
    std::string error;
    bool cache_hit = false;    ///< answered from cache at solve time
    bool near_miss = false;    ///< ... via the bounds-monotone index
    bool warm_started = false; ///< solve ran with a warm hint
    bool invoked = false;      ///< a session solve actually executed
    double cost_seconds = 0.0; ///< recorded cost of the answer

    /// Work phases recorded while the batch worker ran this query, in
    /// absolute time: finish_query converts them into per-waiter span
    /// offsets (each waiter has its own submit time and trace), with
    /// their cpu/alloc attribution.
    struct TimedSpan {
      const char* name;
      std::chrono::steady_clock::time_point start;
      double duration_seconds;
      double cpu_seconds;
      std::uint64_t alloc_count;
      std::uint64_t alloc_bytes;
    };
    std::vector<TimedSpan> spans;
    std::chrono::steady_clock::time_point processing_started{};
  };

  /// One pool task: picks the open batch whose most urgent waiter has
  /// the earliest absolute deadline (deadline-aware pickup — FIFO would
  /// let a tight-deadline request expire behind patient backlog) and
  /// runs it to completion. Exactly one task is enqueued per batch
  /// created, so every task finds a batch to run.
  void run_next_batch();
  void finish_query(PendingQuery& query, const QueryOutcome& outcome);

  /// One request's arrival, trace id and submit-path profile.
  struct Intake;
  /// Starts the submit-path profile (exact allocations; clocks 1-in-N).
  void start_profile(Intake& intake);
  /// Counts the request and opens (or adopts) its trace.
  void admit(Intake& intake, const std::string& solver,
             const CanonicalHash& key);
  /// Renders one cache-served answer — exact or dominating — for both
  /// submit_canonicalized and answer_by_key: the reply, its lookup
  /// span, the latency histogram, the profile and the counters. A null
  /// `canonical` serves the stored canonical labels unchanged.
  SolveReply serve_cached(Intake& intake, CachedSolution cached,
                          const CanonicalHash& key, const std::string& solver,
                          const CanonicalInstance* canonical, bool near_miss);

  bool near_miss_enabled() const noexcept {
    return config_.cache_enabled && config_.near_miss;
  }

  /// find_dominating + promotion under the request's own key, so the
  /// next identical request is an exact hit. nullopt when the index
  /// holds nothing transferable (or near-miss reuse is off).
  std::optional<CachedSolution> dominating_answer(
      const CanonicalHash& bkey, const CanonicalHash& key,
      const solver::Bounds& bounds);

  /// Strengthens `warm` with the index's best feasible incumbent for
  /// (bkey, bounds), keeping whichever floor is higher.
  void merge_warm_hint(const CanonicalHash& bkey,
                       const solver::Bounds& bounds,
                       std::optional<solver::WarmStart>& warm);

  ServiceConfig config_;
  /// Owned iff config.telemetry was null; telemetry_ names it then.
  std::unique_ptr<obs::Telemetry> own_telemetry_;
  obs::Telemetry& telemetry_;
  ShardedSolutionCache cache_;

  /// The engine's central lock, contention-profiled as "engine_queue".
  mutable obs::ProfiledMutex mutex_;
  /// _any: idle_cv_ waits on the ProfiledMutex above.
  std::condition_variable_any idle_cv_;
  std::size_t outstanding_ = 0;  ///< accepted, not yet answered
  std::unordered_map<CanonicalHash, PendingQuery*, CanonicalKeyHasher> in_flight_;
  std::unordered_map<CanonicalHash, std::shared_ptr<Batch>, CanonicalKeyHasher>
      open_batches_;
  std::uint64_t next_batch_sequence_ = 0;

  /// EngineStats' only store: one registry counter per field, resolved
  /// once and bumped lock-free.
  struct Counters {
    explicit Counters(obs::Registry& metrics);
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& cache_hits;
    obs::Counter& dominating_hits;
    obs::Counter& warm_started;
    obs::Counter& solver_invocations;
    obs::Counter& deduplicated;
    obs::Counter& batches;
    obs::Counter& batched_requests;
    obs::Counter& downgraded;
    obs::Counter& rejected_queue;
    obs::Counter& rejected_deadline;
    obs::Counter& errors;
  };
  Counters counters_;

  /// Telemetry handles resolved once at construction (registration
  /// locks the registry); every record afterward is a lock-free add.
  /// Submit-path allocation bill: totals plus the derived
  /// engine_allocs_per_request gauge (allocs_total / requests_total) —
  /// the zero-allocation rebuild's headline number.
  obs::Counter& request_allocs_counter_;
  obs::Counter& request_alloc_bytes_counter_;
  obs::Gauge& allocs_per_request_gauge_;
  obs::Histogram& request_latency_hist_;
  obs::Histogram& batch_wait_hist_;
  obs::Histogram& solver_run_hist_;
  /// Profiler component handles (profile_<name>_* counters).
  obs::Profiler::Component& prof_canonicalize_;
  obs::Profiler::Component& prof_submit_;
  obs::Profiler::Component& prof_cache_lookup_;
  obs::Profiler::Component& prof_near_miss_;
  obs::Profiler::Component& prof_solver_run_;
  obs::Profiler::Component& prof_fallback_;
  obs::Profiler::Component& prof_batch_wait_;
  /// Contention probes (stable addresses the mutexes point at): the
  /// engine's own queue lock, one shared probe over every cache shard,
  /// and the worker pool's queue lock.
  obs::ProfiledMutex::Probe queue_probe_;
  obs::ProfiledMutex::Probe cache_probe_;
  obs::ProfiledMutex::Probe pool_probe_;
  /// Sampled to outstanding_ on submit and completion — the queue depth
  /// a scrape or flight-recorder tick sees is the instantaneous one.
  obs::Gauge& queue_depth_gauge_;
  /// "engine" liveness: load mirrors outstanding_; beats come from the
  /// batch runner so a wedged runner under continuous arrivals still
  /// ages out and trips the watchdog.
  obs::Heartbeat& heartbeat_;

  /// Declared last: destroyed first, so draining batch tasks still see
  /// a live mutex, cache and maps during ~SolveService.
  ThreadPool pool_;
};

}  // namespace prts::service
