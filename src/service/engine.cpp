#include "service/engine.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

namespace prts::service {
namespace {

using Clock = std::chrono::steady_clock;

/// RAII profile of one submit-path exit: however submit_canonicalized
/// returns (cache hit, dedup, rejection, batch scheduled), the
/// per-request allocation counters advance exactly once. Allocation
/// accounting (two relaxed TLS loads) runs on every request so
/// engine_allocs_per_request stays exact; the dual-clock component
/// sample costs CPU-clock syscalls and is taken only when the
/// profiler's 1-in-N gate says so. Inert until start(), which the
/// service calls with every handle set.
struct SubmitProfile {
  obs::Profiler::Component* component = nullptr;
  obs::Counter* allocs_total = nullptr;
  obs::Counter* alloc_bytes_total = nullptr;
  obs::Counter* requests_total = nullptr;
  obs::Gauge* per_request = nullptr;
  std::optional<obs::AllocScope> allocs;
  std::optional<obs::ScopedSample> sample;

  void start(bool sampled) {
    allocs.emplace();
    if (sampled) sample.emplace();
  }

  /// Back to inert: a probe that found nothing to serve bills nothing
  /// (the path that then serves the request bills it).
  void cancel() noexcept {
    allocs.reset();
    sample.reset();
  }

  /// The probes' current reading (for span attribution mid-path).
  /// Unsampled requests still report their exact allocation delta; the
  /// clock fields stay zero rather than paying the syscalls.
  obs::WorkSample snapshot() const noexcept {
    if (sample) return sample->finish();
    obs::WorkSample work;
    if (allocs) {
      const obs::AllocCounts delta = allocs->delta();
      work.alloc_count = delta.count;
      work.alloc_bytes = delta.bytes;
    }
    return work;
  }

  ~SubmitProfile() {
    if (!allocs) return;
    const obs::AllocCounts delta = allocs->delta();
    allocs_total->add(delta.count);
    alloc_bytes_total->add(delta.bytes);
    const std::uint64_t requests = requests_total->value();
    if (requests > 0) {
      per_request->set(static_cast<double>(allocs_total->value()) /
                       static_cast<double>(requests));
    }
    if (sample) obs::Profiler::record(*component, sample->finish());
  }
};

/// True when a deadline measured from `submitted` has elapsed at `now`.
bool deadline_expired(double deadline_seconds, Clock::time_point submitted,
                      Clock::time_point now) noexcept {
  if (deadline_seconds <= 0.0) return true;
  if (!std::isfinite(deadline_seconds)) return false;
  const double elapsed =
      std::chrono::duration<double>(now - submitted).count();
  return elapsed >= deadline_seconds;
}

/// The absolute time a waiter's deadline elapses; max() when it never
/// does (infinite or clock-range-exceeding deadlines must not overflow
/// the time_point arithmetic).
Clock::time_point waiter_deadline(double deadline_seconds,
                                  Clock::time_point submitted) noexcept {
  if (!std::isfinite(deadline_seconds)) return Clock::time_point::max();
  if (deadline_seconds <= 0.0) return submitted;
  const std::chrono::duration<double> wait(deadline_seconds);
  if (wait > Clock::time_point::max() - submitted) {
    return Clock::time_point::max();
  }
  return submitted + std::chrono::duration_cast<Clock::duration>(wait);
}

}  // namespace

std::future<SolveReply> ready_reply_future(SolveReply reply) {
  std::promise<SolveReply> promise;
  std::future<SolveReply> future = promise.get_future();
  promise.set_value(std::move(reply));
  return future;
}

const char* reply_status_name(ReplyStatus status) noexcept {
  switch (status) {
    case ReplyStatus::kSolved:
      return "solved";
    case ReplyStatus::kInfeasible:
      return "infeasible";
    case ReplyStatus::kRejectedQueue:
      return "rejected-queue";
    case ReplyStatus::kRejectedDeadline:
      return "rejected-deadline";
    case ReplyStatus::kError:
      return "error";
  }
  return "error";
}

void write_engine_stats_json(std::ostream& out, const EngineStats& stats) {
  out << "{\"submitted\":" << stats.submitted
      << ",\"completed\":" << stats.completed
      << ",\"cache_hits\":" << stats.cache_hits
      << ",\"dominating_hits\":" << stats.dominating_hits
      << ",\"warm_started\":" << stats.warm_started
      << ",\"solver_invocations\":" << stats.solver_invocations
      << ",\"deduplicated\":" << stats.deduplicated
      << ",\"batches\":" << stats.batches
      << ",\"batched_requests\":" << stats.batched_requests
      << ",\"downgraded\":" << stats.downgraded
      << ",\"rejected_queue\":" << stats.rejected_queue
      << ",\"rejected_deadline\":" << stats.rejected_deadline
      << ",\"errors\":" << stats.errors << "}";
}

void write_hit_tiers_json(std::ostream& out, const EngineStats& stats) {
  const std::uint64_t miss =
      stats.solver_invocations > stats.warm_started
          ? stats.solver_invocations - stats.warm_started
          : 0;
  out << "{\"exact\":" << stats.cache_hits
      << ",\"dominating\":" << stats.dominating_hits
      << ",\"warm_start\":" << stats.warm_started << ",\"miss\":" << miss
      << "}";
}

/// Seconds between two steady-clock points, floored at zero (span
/// offsets are measured from a waiter's submit time, and a span that
/// began before the waiter attached must not go negative).
static double seconds_since(Clock::time_point from,
                            Clock::time_point to) noexcept {
  const double elapsed = std::chrono::duration<double>(to - from).count();
  return elapsed < 0.0 ? 0.0 : elapsed;
}

/// One request's admission: its arrival (every span offset is
/// measured from it), its trace and its submit-path profile.
struct SolveService::Intake {
  explicit Intake(std::uint64_t trace) noexcept : trace_id(trace) {}
  const Clock::time_point arrival = Clock::now();
  std::uint64_t trace_id;
  SubmitProfile profile;
};

SolveService::Counters::Counters(obs::Registry& metrics)
    : submitted(metrics.counter("engine_requests_total")),
      completed(metrics.counter("engine_completed_total")),
      cache_hits(metrics.counter("engine_cache_hits_total")),
      dominating_hits(metrics.counter("engine_dominating_hits_total")),
      warm_started(metrics.counter("engine_warm_started_total")),
      solver_invocations(metrics.counter("engine_solver_invocations_total")),
      deduplicated(metrics.counter("engine_deduplicated_total")),
      batches(metrics.counter("engine_batches_total")),
      batched_requests(metrics.counter("engine_batched_requests_total")),
      downgraded(metrics.counter("engine_downgraded_total")),
      rejected_queue(metrics.counter("engine_rejected_queue_total")),
      rejected_deadline(metrics.counter("engine_rejected_deadline_total")),
      errors(metrics.counter("engine_errors_total")) {}

SolveService::SolveService(ServiceConfig config)
    : config_(std::move(config)),
      own_telemetry_(config_.telemetry ? nullptr
                                       : std::make_unique<obs::Telemetry>()),
      telemetry_(config_.telemetry ? *config_.telemetry : *own_telemetry_),
      cache_(config_.cache),
      counters_(telemetry_.metrics),
      request_allocs_counter_(
          telemetry_.metrics.counter("engine_request_allocs_total")),
      request_alloc_bytes_counter_(
          telemetry_.metrics.counter("engine_request_alloc_bytes_total")),
      allocs_per_request_gauge_(
          telemetry_.metrics.gauge("engine_allocs_per_request")),
      request_latency_hist_(
          telemetry_.metrics.histogram("engine_request_latency_seconds")),
      batch_wait_hist_(
          telemetry_.metrics.histogram("engine_batch_wait_seconds")),
      solver_run_hist_(
          telemetry_.metrics.histogram("engine_solver_run_seconds")),
      prof_canonicalize_(telemetry_.profiler.component("canonicalize")),
      prof_submit_(telemetry_.profiler.component("submit_path")),
      prof_cache_lookup_(telemetry_.profiler.component("cache_lookup")),
      prof_near_miss_(telemetry_.profiler.component("near_miss_lookup")),
      prof_solver_run_(telemetry_.profiler.component("solver_run")),
      prof_fallback_(telemetry_.profiler.component("fallback_solve")),
      prof_batch_wait_(telemetry_.profiler.component("batch_wait")),
      queue_probe_(
          obs::ProfiledMutex::make_probe(telemetry_.metrics, "engine_queue")),
      cache_probe_(
          obs::ProfiledMutex::make_probe(telemetry_.metrics, "cache_shard")),
      pool_probe_(
          obs::ProfiledMutex::make_probe(telemetry_.metrics, "engine_pool")),
      queue_depth_gauge_(telemetry_.metrics.gauge("engine_queue_depth")),
      heartbeat_(telemetry_.watchdog.component("engine")),
      pool_(config_.threads) {
  config_.telemetry = &telemetry_;
  mutex_.attach(&queue_probe_);
  cache_.attach_mutex_probe(&cache_probe_);
  pool_.attach_mutex_probe(&pool_probe_);
}

SolveService::~SolveService() { wait_idle(); }

const solver::SolverRegistry& SolveService::registry() const noexcept {
  return config_.registry ? *config_.registry
                          : solver::SolverRegistry::builtin();
}

std::pair<std::shared_ptr<const CanonicalInstance>, CanonicalHash>
SolveService::canonicalize_request(const SolveRequest& request) {
  // Canonicalization runs on every submit, so its dual-clock sample is
  // 1-in-N — two CPU-clock syscalls per request would dominate the warm
  // path's own cost.
  const bool sampled = telemetry_.profiler.should_sample();
  std::optional<obs::ScopedSample> sample;
  if (sampled) sample.emplace();
  auto canonical = std::make_shared<const CanonicalInstance>(
      canonicalize(request.instance));
  const CanonicalHash key =
      request_key(*canonical, request.solver, request.bounds);
  if (sampled) obs::Profiler::record(prof_canonicalize_, sample->finish());
  return {std::move(canonical), key};
}

void SolveService::submit(SolveRequest request, SolveCompletion done) {
  auto [canonical, key] = canonicalize_request(request);
  submit_canonicalized(std::move(request), std::move(canonical), key,
                       std::move(done));
}

std::future<SolveReply> SolveService::submit(SolveRequest request) {
  auto [canonical, key] = canonicalize_request(request);
  return submit_canonicalized(std::move(request), std::move(canonical), key);
}

void SolveService::submit_canonicalized(
    SolveRequest request, std::shared_ptr<const CanonicalInstance> canonical,
    const CanonicalHash& key, SolveCompletion done) {
  std::optional<SolveReply> reply;
  {
    // The submit-path profile ends before the completion runs: the
    // caller's work is not the engine's.
    Intake intake(request.trace_id);
    reply = submit_body(intake, request, std::move(canonical), key,
                        [&done] { return std::move(done); });
  }
  if (reply) done(std::move(*reply));
}

std::future<SolveReply> SolveService::submit_canonicalized(
    SolveRequest request, std::shared_ptr<const CanonicalInstance> canonical,
    const CanonicalHash& key) {
  // The profile covers the ready future too: a hit through this form
  // bills the future's shared state to engine_request_allocs_total.
  Intake intake(request.trace_id);
  std::future<SolveReply> future;
  if (auto reply =
          submit_body(intake, request, std::move(canonical), key, [&future] {
            // std::function needs a copyable target, so the promise is
            // shared with the completion.
            auto promise = std::make_shared<std::promise<SolveReply>>();
            future = promise->get_future();
            return SolveCompletion([promise](SolveReply answer) {
              promise->set_value(std::move(answer));
            });
          })) {
    return ready_reply_future(std::move(*reply));
  }
  return future;
}

void SolveService::start_profile(Intake& intake) {
  SubmitProfile& profile = intake.profile;
  profile.component = &prof_submit_;
  profile.allocs_total = &request_allocs_counter_;
  profile.alloc_bytes_total = &request_alloc_bytes_counter_;
  profile.requests_total = &counters_.submitted;
  profile.per_request = &allocs_per_request_gauge_;
  profile.start(telemetry_.profiler.should_sample());
}

void SolveService::admit(Intake& intake, const std::string& solver,
                         const CanonicalHash& key) {
  counters_.submitted.add();
  // A carried id (forwarded solve) is adopted so the origin's trace id
  // resolves on this rank too; otherwise one is minted.
  char buffer[kKeyLabelChars];
  const std::string_view label = key_label(solver, key, buffer);
  if (intake.trace_id == 0) {
    intake.trace_id = telemetry_.tracer.start(label);
  } else {
    telemetry_.tracer.start_with_id(intake.trace_id, label);
  }
}

SolveReply SolveService::serve_cached(Intake& intake, CachedSolution cached,
                                      const CanonicalHash& key,
                                      const std::string& solver,
                                      const CanonicalInstance* canonical,
                                      bool near_miss) {
  SolveReply reply;
  reply.key = key;
  reply.cache_hit = true;
  reply.near_miss = near_miss;
  reply.solver_used = solver;
  reply.cost_seconds = cached.cost_seconds;
  reply.trace_id = intake.trace_id;
  if (cached.solution) {
    reply.status = ReplyStatus::kSolved;
    reply.solution = canonical != nullptr
                         ? to_original_labels(*cached.solution, *canonical)
                         : std::move(cached.solution);
  } else {
    reply.status = ReplyStatus::kInfeasible;
  }
  const double elapsed = seconds_since(intake.arrival, Clock::now());
  const obs::WorkSample work = intake.profile.snapshot();
  obs::Span span;
  span.name = near_miss ? "near_miss_lookup" : "cache_lookup";
  span.rank = telemetry_.rank;
  span.duration_seconds = elapsed;
  span.cpu_seconds = work.cpu_seconds < elapsed ? work.cpu_seconds : elapsed;
  span.alloc_count = work.alloc_count;
  span.alloc_bytes = work.alloc_bytes;
  telemetry_.tracer.record(intake.trace_id, std::move(span));
  telemetry_.tracer.finish(intake.trace_id, elapsed);
  request_latency_hist_.record(elapsed);
  if (intake.profile.sample) {
    obs::Profiler::record(near_miss ? prof_near_miss_ : prof_cache_lookup_,
                          work);
  }
  (near_miss ? counters_.dominating_hits : counters_.cache_hits).add();
  counters_.completed.add();
  return reply;
}

std::optional<SolveReply> SolveService::answer_by_key(
    const CanonicalHash& key, const std::string& solver,
    std::uint64_t trace_id) {
  if (!config_.cache_enabled) return std::nullopt;
  Intake intake(trace_id);
  start_profile(intake);
  std::optional<CachedSolution> cached = cache_.probe(key);
  if (!cached) {
    intake.profile.cancel();
    return std::nullopt;
  }
  admit(intake, solver, key);
  return serve_cached(intake, std::move(*cached), key, solver,
                      /*canonical=*/nullptr, /*near_miss=*/false);
}

template <typename MakeCompletion>
std::optional<SolveReply> SolveService::submit_body(
    Intake& intake, SolveRequest& request,
    std::shared_ptr<const CanonicalInstance> canonical,
    const CanonicalHash& key, MakeCompletion&& make_completion) {
  // Submit-path attribution: one profile covering the caller's scope
  // however this exits, feeding submit_path and the
  // allocations-per-request gauge.
  start_profile(intake);
  admit(intake, request.solver, key);
  const Clock::time_point arrival = intake.arrival;
  const std::uint64_t trace_id = intake.trace_id;

  // A NaN bound has no answer: refused before the cache or any solver
  // can read it one way or the other.
  if (solver::has_nan_bound(request.bounds)) {
    counters_.errors.add();
    counters_.completed.add();
    SolveReply reply;
    reply.status = ReplyStatus::kError;
    reply.error = "NaN bound";
    reply.key = key;
    reply.trace_id = trace_id;
    telemetry_.tracer.finish(trace_id, seconds_since(arrival, Clock::now()));
    return reply;
  }

  // An entry that arrived without an instance (handed off, or loaded
  // from a snapshot) and does not fit this one is a miss.
  if (config_.cache_enabled) {
    if (auto cached = cache_.lookup(key);
        cached && cached->fits(canonical->instance)) {
      return serve_cached(intake, std::move(*cached), key, request.solver,
                          canonical.get(), /*near_miss=*/false);
    }
  }

  // Near-miss path: the exact key missed, but the bounds-monotone index
  // may hold an answer for this (instance, solver) at other bounds.
  const auto engine = registry().find(request.solver);
  const CanonicalHash bkey = batch_key(*canonical, request.solver);
  std::optional<solver::WarmStart> warm = std::move(request.warm_start);
  // A caller-supplied hint is only a hint when its incumbent is
  // actually feasible under *these* bounds — otherwise its floor is
  // unproven and the downgrade path could leak a bound-violating
  // answer. Drop it rather than trust it.
  if (warm && (!warm->incumbent ||
               !fits_instance(warm->incumbent->mapping, canonical->instance) ||
               !solver::within_bounds(warm->incumbent->metrics,
                                      request.bounds))) {
    warm.reset();
  }
  if (near_miss_enabled() && engine) {
    if (engine->bounds_monotone(canonical->instance)) {
      if (auto near = dominating_answer(bkey, key, request.bounds,
                                        canonical->instance)) {
        return serve_cached(intake, std::move(*near), key, request.solver,
                            canonical.get(), /*near_miss=*/true);
      }
    }
    merge_warm_hint(bkey, request.bounds, canonical->instance, warm);
  }

  std::unique_lock<obs::ProfiledMutex> lock(mutex_);

  // Deduplication: attach to an identical in-flight request. The waiter
  // carries its own canonical form and deadline options — the shared
  // solve must not leak the first submitter's labels or policy.
  if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
    counters_.deduplicated.add();
    it->second->waiters.push_back(
        Waiter{make_completion(), canonical, request.deadline_seconds,
               request.deadline_policy, Clock::now(), true, trace_id});
    return std::nullopt;
  }

  // Admission control: bounded backlog.
  if (outstanding_ >= config_.max_queue_depth) {
    counters_.rejected_queue.add();
    counters_.completed.add();
    lock.unlock();
    SolveReply reply;
    reply.status = ReplyStatus::kRejectedQueue;
    reply.key = key;
    reply.trace_id = trace_id;
    const double elapsed = seconds_since(arrival, Clock::now());
    telemetry_.tracer.record(trace_id, "rejected_queue", telemetry_.rank, 0.0,
                             elapsed);
    telemetry_.tracer.finish(trace_id, elapsed);
    return reply;
  }
  ++outstanding_;
  queue_depth_gauge_.set(static_cast<double>(outstanding_));
  // The idle→busy transition beats once so the runner gets a full stall
  // threshold to pick the work up; after that only the runner's own
  // progress resets the age.
  if (outstanding_ == 1) heartbeat_.beat();
  heartbeat_.set_load(static_cast<std::int64_t>(outstanding_));

  auto query = std::make_unique<PendingQuery>();
  query->canonical = canonical;
  query->bounds = request.bounds;
  query->key = key;
  query->warm = std::move(warm);
  query->waiters.push_back(Waiter{make_completion(), canonical,
                                  request.deadline_seconds,
                                  request.deadline_policy, Clock::now(),
                                  false, trace_id});
  in_flight_.emplace(key, query.get());

  // Batching: requests sharing (canonical instance, solver) ride one
  // prepared session. The key's batch takes the query whether it is
  // still open or already running: a running batch's worker reaches it
  // after the queries it holds, on the session it already prepared.
  const Clock::time_point query_deadline = waiter_deadline(
      request.deadline_seconds, query->waiters.back().submitted);
  if (const auto it = batches_.find(bkey); it != batches_.end()) {
    counters_.batched_requests.add();
    Batch& batch = *it->second;
    batch.queries.push_back(std::move(query));
    batch.earliest_deadline = std::min(batch.earliest_deadline, query_deadline);
    return std::nullopt;
  }
  auto batch = std::make_unique<Batch>();
  batch->canonical = std::move(canonical);
  batch->solver_name = request.solver;
  batch->key = bkey;
  batch->queries.push_back(std::move(query));
  batch->earliest_deadline = query_deadline;
  batch->sequence = next_batch_sequence_++;
  batches_.emplace(bkey, std::move(batch));
  lock.unlock();

  // One task per batch that becomes open; each task picks the currently
  // most urgent open batch, so pickup order is deadline-driven, not FIFO.
  pool_.submit([this] { run_next_batch(); });
  return std::nullopt;
}

std::optional<CachedSolution> SolveService::dominating_answer(
    const CanonicalHash& bkey, const CanonicalHash& key,
    const solver::Bounds& bounds, const Instance& instance) {
  if (!near_miss_enabled()) return std::nullopt;
  auto near = cache_.find_dominating(bkey, bounds);
  if (near && !near->fits(instance)) {
    // A misfit would hide the entries behind it: drop the batch's
    // misfits and look again.
    cache_.drop_misfits(bkey, instance);
    near = cache_.find_dominating(bkey, bounds);
  }
  if (!near || !near->fits(instance)) return std::nullopt;
  // Promote under the request's own key: the next identical request is
  // an exact hit, and the entry (indexed under this request's bounds)
  // extends the instance's sweep history toward the tighter end. The
  // recorded cost is inherited — the answer is worth what its solve
  // cost, not the near-free lookup.
  CachedSolution promoted = *near;
  promoted.instance_key = bkey;
  promoted.bounds = bounds;
  cache_.insert(key, promoted);
  return near;
}

void SolveService::merge_warm_hint(const CanonicalHash& bkey,
                                   const solver::Bounds& bounds,
                                   const Instance& instance,
                                   std::optional<solver::WarmStart>& warm) {
  if (!near_miss_enabled()) return;
  auto feasible = cache_.find_feasible(bkey, bounds);
  if (feasible && !feasible->fits(instance)) {
    // As in dominating_answer: a misfit must not drop the hint.
    cache_.drop_misfits(bkey, instance);
    feasible = cache_.find_feasible(bkey, bounds);
  }
  if (!feasible || !feasible->solution || !feasible->fits(instance)) return;
  const double floor = feasible->solution->metrics.reliability.log();
  if (warm && warm->reliability_floor_log >= floor) return;
  solver::WarmStart hint;
  hint.incumbent = std::move(feasible->solution);
  hint.reliability_floor_log = floor;
  warm = std::move(hint);
}

SolveService::Batch* SolveService::most_urgent_open_batch() const {
  Batch* best = nullptr;
  for (const auto& [key, entry] : batches_) {
    Batch* const candidate = entry.get();
    if (candidate->running) continue;
    // Earliest deadline wins; creation order breaks ties, so the
    // all-infinite-deadline workload keeps its FIFO fairness.
    if (best == nullptr ||
        candidate->earliest_deadline < best->earliest_deadline ||
        (candidate->earliest_deadline == best->earliest_deadline &&
         candidate->sequence < best->sequence)) {
      best = candidate;
    }
  }
  return best;
}

void SolveService::run_next_batch() {
  Batch* batch = nullptr;
  std::vector<std::unique_ptr<PendingQuery>> queries;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    batch = most_urgent_open_batch();
    if (batch == nullptr) return;  // defensive; see run_next_batch doc
    batch->running = true;
    queries.swap(batch->queries);
    batch->earliest_deadline = Clock::time_point::max();
    counters_.batches.add();
  }
  heartbeat_.beat();

  const auto engine = registry().find(batch->solver_name);
  const bool monotone =
      engine && engine->bounds_monotone(batch->canonical->instance);
  std::unique_ptr<solver::PreparedSolver> session;

  for (;;) {
    for (auto& query : queries) {
      finish_query(*query, run_query(*batch, *query, engine.get(), monotone,
                                     session));
    }
    queries.clear();

    // Between rounds: the queries the key absorbed while this one ran.
    std::unique_lock<obs::ProfiledMutex> lock(mutex_);
    if (batch->queries.empty()) {
      batches_.erase(batch->key);  // releases the key
      return;
    }
    const Batch* const rival = most_urgent_open_batch();
    if (rival != nullptr &&
        rival->earliest_deadline < batch->earliest_deadline) {
      // A more urgent open batch: hand the absorbed queries back as an
      // open batch, with a task of its own, instead of running them
      // first.
      batch->running = false;
      lock.unlock();
      pool_.submit([this] { run_next_batch(); });
      return;
    }
    queries.swap(batch->queries);
    batch->earliest_deadline = Clock::time_point::max();
  }
}

SolveService::QueryOutcome SolveService::run_query(
    const Batch& batch, PendingQuery& query, const solver::Solver* engine,
    bool monotone, std::unique_ptr<solver::PreparedSolver>& session) {
  QueryOutcome outcome;
  try {
    // A query runs for real as long as ANY of its waiters is still
    // within deadline (waiters joined later than the first submitter
    // and may be more patient); expired waiters then simply receive
    // the answer that was computed anyway. Only when every waiter
    // expired does the query degrade: fallback if someone allows it,
    // rejection otherwise.
    const auto now = Clock::now();
    outcome.processing_started = now;
    bool any_live = false;
    bool any_downgrade = false;
    {
      // submit() may still be appending waiters to this query.
      const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
      for (const Waiter& waiter : query.waiters) {
        if (!deadline_expired(waiter.deadline_seconds, waiter.submitted,
                              now)) {
          any_live = true;
        } else if (waiter.deadline_policy == DeadlinePolicy::kDowngrade) {
          any_downgrade = true;
        }
      }
    }
    if (!engine) {
      outcome.kind = QueryOutcome::Kind::kError;
      outcome.error = "unknown solver '" + batch.solver_name + "'";
    } else if (any_live) {
      // Solve-time re-probe: earlier queries of this very batch (or a
      // concurrent batch elsewhere) may have answered this key — or a
      // dominating neighbor of it — since submission. A 20-step bound
      // ladder submitted in one burst collapses to a handful of real
      // solves this way, exactly like a paced sweep does.
      bool answered_from_cache = false;
      if (config_.cache_enabled) {
        const auto probe_start = Clock::now();
        const obs::ScopedSample probe_sample;
        // peek: the submit-path lookup already counted this key's
        // miss; the re-probe must not count a second one.
        std::optional<CachedSolution> cached = cache_.peek(query.key);
        if (cached && !cached->fits(batch.canonical->instance)) {
          cached.reset();  // a misfit entry is a miss here too
        }
        if (cached) {
          outcome.cache_hit = true;
        } else if (monotone) {
          cached = dominating_answer(batch.key, query.key, query.bounds,
                                     batch.canonical->instance);
          if (cached) {
            outcome.cache_hit = true;
            outcome.near_miss = true;
          }
        }
        if (cached) {
          outcome.canonical_solution = std::move(cached->solution);
          outcome.cost_seconds = cached->cost_seconds;
          outcome.kind = QueryOutcome::Kind::kAnswered;
          outcome.solver_used = batch.solver_name;
          answered_from_cache = true;
          const obs::WorkSample work = probe_sample.finish();
          obs::Profiler::record(
              outcome.near_miss ? prof_near_miss_ : prof_cache_lookup_,
              work);
          outcome.spans.push_back(QueryOutcome::TimedSpan{
              outcome.near_miss ? "near_miss_lookup" : "cache_lookup",
              probe_start, seconds_since(probe_start, Clock::now()),
              work.cpu_seconds, work.alloc_count, work.alloc_bytes});
        }
      }
      if (!answered_from_cache) {
        // Freshen the hint: neighbors solved since submission may
        // carry a stronger floor than what submit harvested.
        merge_warm_hint(batch.key, query.bounds, batch.canonical->instance,
                        query.warm);
        if (!session) session = engine->prepare(batch.canonical->instance);
        const auto solve_start = Clock::now();
        const obs::ScopedSample solve_sample;
        const solver::WarmStart* hint =
            query.warm && !query.warm->empty() ? &*query.warm : nullptr;
        // Recorded per entry and carried on the wire (stats only:
        // nothing evicts by it).
        double cost_seconds = 0.0;
        outcome.canonical_solution = solver::timed_solve(
            *session, query.bounds, hint, cost_seconds);
        outcome.warm_started = hint != nullptr;
        outcome.invoked = true;
        outcome.cost_seconds = cost_seconds;
        const obs::WorkSample solve_work = solve_sample.finish();
        obs::Profiler::record(prof_solver_run_, solve_work);
        outcome.spans.push_back(QueryOutcome::TimedSpan{
            "solver_run", solve_start, cost_seconds,
            solve_work.cpu_seconds, solve_work.alloc_count,
            solve_work.alloc_bytes});
        solver_run_hist_.record(cost_seconds);
        if (config_.cache_enabled) {
          // The near-miss metadata makes this solve a reusable point
          // of the instance's sweep history.
          cache_.insert(query.key,
                        CachedSolution{outcome.canonical_solution,
                                       cost_seconds, batch.key,
                                       query.bounds});
        }
        outcome.kind = QueryOutcome::Kind::kAnswered;
        outcome.solver_used = batch.solver_name;
      }
    } else if (any_downgrade) {
      const auto fallback = registry().find(config_.fallback_solver);
      if (!fallback) {
        outcome.kind = QueryOutcome::Kind::kError;
        outcome.error =
            "unknown fallback solver '" + config_.fallback_solver + "'";
      } else {
        // Late: answer fast with the fallback engine. Not cached —
        // the key names the solver the caller asked for.
        const auto fallback_start = Clock::now();
        const obs::ScopedSample fallback_sample;
        outcome.canonical_solution =
            fallback->solve(query.canonical->instance, query.bounds);
        const obs::WorkSample fallback_work = fallback_sample.finish();
        obs::Profiler::record(prof_fallback_, fallback_work);
        outcome.spans.push_back(QueryOutcome::TimedSpan{
            "fallback_solve", fallback_start,
            seconds_since(fallback_start, Clock::now()),
            fallback_work.cpu_seconds, fallback_work.alloc_count,
            fallback_work.alloc_bytes});
        outcome.kind = QueryOutcome::Kind::kFallback;
        outcome.solver_used = config_.fallback_solver;
        // A warm incumbent (cached from the *requested* solver at
        // other bounds, feasible here by construction) may beat the
        // fallback's answer; a degraded reply should still be the
        // best answer available cheaply.
        if (query.warm && query.warm->incumbent &&
            (!outcome.canonical_solution ||
             solver::tri_criteria_better(
                 query.warm->incumbent->metrics,
                 outcome.canonical_solution->metrics))) {
          outcome.canonical_solution = query.warm->incumbent;
          outcome.solver_used = batch.solver_name;
        }
      }
    } else {
      outcome.kind = QueryOutcome::Kind::kRejected;
    }
  } catch (const std::exception& error) {
    outcome = QueryOutcome{};
    outcome.error = error.what();
  } catch (...) {
    outcome = QueryOutcome{};
    outcome.error = "unknown solver exception";
  }
  return outcome;
}

void SolveService::finish_query(PendingQuery& query,
                                const QueryOutcome& outcome) {
  std::vector<Waiter> waiters;
  bool any_rejected = false;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    in_flight_.erase(query.key);
    waiters = std::move(query.waiters);
    for (const Waiter& waiter : waiters) {
      if (outcome.kind == QueryOutcome::Kind::kRejected ||
          (outcome.kind == QueryOutcome::Kind::kFallback &&
           waiter.deadline_policy == DeadlinePolicy::kReject)) {
        any_rejected = true;
      }
    }
    counters_.completed.add(waiters.size());
    if (outcome.kind == QueryOutcome::Kind::kError) counters_.errors.add();
    if (outcome.kind == QueryOutcome::Kind::kFallback) {
      counters_.downgraded.add();
    }
    if (any_rejected) counters_.rejected_deadline.add();
    if (outcome.near_miss) counters_.dominating_hits.add();
    if (outcome.cache_hit && !outcome.near_miss) counters_.cache_hits.add();
    if (outcome.warm_started) counters_.warm_started.add();
    if (outcome.invoked) counters_.solver_invocations.add();
    --outstanding_;
    ++completing_;
    queue_depth_gauge_.set(static_cast<double>(outstanding_));
    heartbeat_.set_load(static_cast<std::int64_t>(outstanding_));
    heartbeat_.beat();
  }
  const Clock::time_point finished_at = Clock::now();
  for (Waiter& waiter : waiters) {
    // Per-waiter trace rendering: every attached caller (including
    // dedup twins) gets the shared work phases expressed as offsets
    // from its *own* submit time, under its *own* trace id.
    const double total = seconds_since(waiter.submitted, finished_at);
    const double wait =
        seconds_since(waiter.submitted, outcome.processing_started);
    telemetry_.tracer.record(waiter.trace_id, "batch_wait", telemetry_.rank,
                             0.0, wait);
    // Queue wait is blocked time by construction: the request was
    // owned by no thread, so the sample is wall-only.
    obs::WorkSample queued;
    queued.wall_seconds = wait;
    obs::Profiler::record(prof_batch_wait_, queued);
    for (const QueryOutcome::TimedSpan& span : outcome.spans) {
      obs::Span rendered;
      rendered.name = span.name;
      rendered.rank = telemetry_.rank;
      rendered.start_seconds = seconds_since(waiter.submitted, span.start);
      rendered.duration_seconds = span.duration_seconds;
      rendered.cpu_seconds = span.cpu_seconds;
      rendered.alloc_count = span.alloc_count;
      rendered.alloc_bytes = span.alloc_bytes;
      telemetry_.tracer.record(waiter.trace_id, std::move(rendered));
    }
    telemetry_.tracer.finish(waiter.trace_id, total);
    request_latency_hist_.record(total);
    batch_wait_hist_.record(wait);
    SolveReply reply;
    reply.key = query.key;
    reply.deduplicated = waiter.deduplicated;
    reply.cache_hit = outcome.cache_hit;
    reply.near_miss = outcome.near_miss;
    reply.cost_seconds = outcome.cost_seconds;
    reply.trace_id = waiter.trace_id;
    switch (outcome.kind) {
      case QueryOutcome::Kind::kError:
        reply.status = ReplyStatus::kError;
        reply.error = outcome.error;
        break;
      case QueryOutcome::Kind::kRejected:
        reply.status = ReplyStatus::kRejectedDeadline;
        break;
      case QueryOutcome::Kind::kFallback:
        if (waiter.deadline_policy == DeadlinePolicy::kReject) {
          reply.status = ReplyStatus::kRejectedDeadline;
          break;
        }
        reply.downgraded = true;
        [[fallthrough]];
      case QueryOutcome::Kind::kAnswered:
        reply.solver_used = outcome.solver_used;
        if (outcome.canonical_solution) {
          reply.status = ReplyStatus::kSolved;
          // Each waiter's own permutation: isomorphic twins get the
          // shared solve expressed in their own processor labels.
          reply.solution = to_original_labels(*outcome.canonical_solution,
                                              *waiter.canonical);
        } else {
          reply.status = ReplyStatus::kInfeasible;
        }
        break;
    }
    try {
      waiter.done(std::move(reply));
    } catch (...) {
      // The caller's fault, and no other waiter's: they still get
      // their replies.
    }
  }
  const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
  if (--completing_ == 0 && outstanding_ == 0) idle_cv_.notify_all();
}

void SolveService::wait_idle() {
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  idle_cv_.wait(lock,
                [this] { return outstanding_ == 0 && completing_ == 0; });
}

EngineStats SolveService::stats() const {
  EngineStats stats;
  stats.submitted = counters_.submitted.value();
  stats.completed = counters_.completed.value();
  stats.cache_hits = counters_.cache_hits.value();
  stats.dominating_hits = counters_.dominating_hits.value();
  stats.warm_started = counters_.warm_started.value();
  stats.solver_invocations = counters_.solver_invocations.value();
  stats.deduplicated = counters_.deduplicated.value();
  stats.batches = counters_.batches.value();
  stats.batched_requests = counters_.batched_requests.value();
  stats.downgraded = counters_.downgraded.value();
  stats.rejected_queue = counters_.rejected_queue.value();
  stats.rejected_deadline = counters_.rejected_deadline.value();
  stats.errors = counters_.errors.value();
  return stats;
}

CacheStats SolveService::cache_stats() const { return cache_.stats(); }

}  // namespace prts::service
