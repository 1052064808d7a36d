// The request engine: cache hits replay bit-identical solutions,
// isomorphic requests share entries, in-flight twins deduplicate,
// compatible requests batch onto one prepared session, and admission
// control rejects or downgrades. Plus the distributed fabric above it:
// wire codec round trips, shard routing, forward dedup, peer-death
// degradation, and the campaign x service fusion. Every engine, router
// and membership stats field reads the registry counter that stores it.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabric_harness.hpp"
#include "gated_solver.hpp"

#include "eval/evaluation.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "scenario/emit.hpp"
#include "service/fusion.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/wire.hpp"
#include "solver/adapters.hpp"

namespace prts::service {
namespace {

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

Instance het_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 0.0}};
  std::vector<Processor> procs{{3.0, 1e-8}, {1.0, 2e-8}, {2.0, 1e-8},
                               {5.0, 4e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// het_instance with its processor list rotated: isomorphic, different
/// labels.
Instance het_instance_permuted() {
  const Instance base = het_instance();
  std::vector<Processor> procs;
  const std::size_t p = base.platform.processor_count();
  for (std::size_t u = 0; u < p; ++u) {
    procs.push_back(base.platform.processor((u + 1) % p));
  }
  return Instance{base.chain, Platform(std::move(procs), 1.0, 1e-5, 2)};
}

using testutil::GatedSolver;
using testutil::GateOpener;

/// Polls `done` every 2 ms for up to 5 s; true once it holds.
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.threads = 2;
  return config;
}

TEST(SolveService, ColdSolveThenBitIdenticalCacheHit) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 1e9,
                       DeadlinePolicy::kReject};

  const SolveReply cold = service.submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.solver_used, "exact");
  ASSERT_TRUE(cold.solution.has_value());

  const SolveReply warm = service.submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  // The acceptance guarantee: a cache hit replays the cold solve
  // bit-for-bit — same mapping, exactly equal metric doubles.
  EXPECT_EQ(warm.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(warm.key, cold.key);

  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SolveService, IsomorphicRequestsShareOneCacheEntry) {
  SolveService service(small_config());
  const SolveReply cold =
      service.submit(SolveRequest{het_instance(), "heur-p", {}}).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);

  const Instance permuted = het_instance_permuted();
  const SolveReply warm =
      service.submit(SolveRequest{permuted, "heur-p", {}}).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  // Same canonical solve, translated into each request's own labels:
  // metrics identical, mapping valid for the permuted platform.
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(warm.solution->mapping.validate(permuted.platform),
            std::nullopt);
}

TEST(SolveService, InfeasibleAnswersAreCachedToo) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}};
  request.bounds.period_bound = 1e-3;  // unreachable

  const SolveReply cold = service.submit(request).get();
  EXPECT_EQ(cold.status, ReplyStatus::kInfeasible);
  const SolveReply warm = service.submit(request).get();
  EXPECT_EQ(warm.status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(warm.cache_hit);
}

TEST(SolveService, UnknownSolverIsAnErrorReply) {
  SolveService service(small_config());
  const SolveReply reply =
      service.submit(SolveRequest{hom_instance(), "no-such-solver", {}})
          .get();
  EXPECT_EQ(reply.status, ReplyStatus::kError);
  EXPECT_NE(reply.error.find("no-such-solver"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(SolveService, QueueDepthZeroRejectsEverything) {
  ServiceConfig config = small_config();
  config.max_queue_depth = 0;
  SolveService service(config);
  const SolveReply reply =
      service.submit(SolveRequest{hom_instance(), "exact", {}}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kRejectedQueue);
  EXPECT_EQ(service.stats().rejected_queue, 1u);
}

TEST(SolveService, ExpiredDeadlineRejectsUnderRejectPolicy) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 0.0,
                       DeadlinePolicy::kReject};
  const SolveReply reply = service.submit(request).get();
  EXPECT_EQ(reply.status, ReplyStatus::kRejectedDeadline);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
}

TEST(SolveService, ExpiredDeadlineDowngradesToFallbackAndSkipsCache) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 0.0,
                       DeadlinePolicy::kDowngrade};
  const SolveReply reply = service.submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_TRUE(reply.downgraded);
  EXPECT_EQ(reply.solver_used, "heur-p");
  EXPECT_EQ(service.stats().downgraded, 1u);
  // Downgraded answers must not poison the 'exact' cache key.
  EXPECT_EQ(service.cache_stats().insertions, 0u);
  const SolveReply again = service.submit(request).get();
  EXPECT_FALSE(again.cache_hit);
  EXPECT_TRUE(again.downgraded);
}

TEST(SolveService, IdenticalInFlightRequestsDeduplicate) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  SolveRequest request{hom_instance(), "gated", {}};
  std::future<SolveReply> first = service.submit(request);
  std::future<SolveReply> second = service.submit(request);
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.solution->mapping, b.solution->mapping);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  // One solve, one cache entry.
  EXPECT_EQ(service.cache_stats().insertions, 1u);
}

TEST(SolveService, DeduplicatedIsomorphicTwinsGetTheirOwnLabels) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  const Instance original = het_instance();
  const Instance permuted = het_instance_permuted();
  std::future<SolveReply> first =
      service.submit(SolveRequest{original, "gated", {}});
  std::future<SolveReply> second =
      service.submit(SolveRequest{permuted, "gated", {}});
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  // One shared solve, but each reply speaks its own platform's labels:
  // interval replicas must name processors with the same physical
  // (speed, rate) characteristics in both label spaces.
  const Mapping& ma = a.solution->mapping;
  const Mapping& mb = b.solution->mapping;
  ASSERT_EQ(ma.interval_count(), mb.interval_count());
  for (std::size_t j = 0; j < ma.interval_count(); ++j) {
    std::vector<double> speeds_a;
    std::vector<double> speeds_b;
    for (const std::size_t u : ma.processors(j)) {
      speeds_a.push_back(original.platform.speed(u));
    }
    for (const std::size_t u : mb.processors(j)) {
      speeds_b.push_back(permuted.platform.speed(u));
    }
    std::sort(speeds_a.begin(), speeds_a.end());
    std::sort(speeds_b.begin(), speeds_b.end());
    EXPECT_EQ(speeds_a, speeds_b) << "interval " << j;
  }
}

TEST(SolveService, PatientDedupWaiterKeepsAnExpiredTwinAlive) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  // Occupy the single worker so both requests below are pending when
  // their batch finally runs. Wait until the worker has committed to the
  // blocker's batch: the impatient request's batch is the more urgent
  // one, so a worker still choosing would run it before its twin came.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});
  while (service.stats().batches == 0) std::this_thread::yield();

  // First submitter: already-expired deadline, reject policy. Its twin
  // has no deadline — the query must be solved for real, not rejected
  // on the first submitter's options.
  SolveRequest impatient{hom_instance(), "gated", {}, 0.0,
                         DeadlinePolicy::kReject};
  SolveRequest patient{hom_instance(), "gated", {}};
  std::future<SolveReply> first = service.submit(impatient);
  std::future<SolveReply> second = service.submit(patient);
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  // The live waiter forced a real solve; the expired twin shares it.
  EXPECT_EQ(a.status, ReplyStatus::kSolved);
  EXPECT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.downgraded);
  EXPECT_FALSE(b.downgraded);
  EXPECT_EQ(service.stats().rejected_deadline, 0u);
}

TEST(SolveService, AllExpiredMixedPoliciesSplitPerWaiter) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  // The downgrade target must exist in the service's registry.
  registry.add(solver::make_heuristic_solver(HeuristicKind::kHeurP, false));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});

  // Both waiters expired: the downgrade waiter gets the fallback
  // answer, the reject waiter a rejection — per-waiter statuses.
  SolveRequest wants_fallback{hom_instance(), "gated", {}, 0.0,
                              DeadlinePolicy::kDowngrade};
  SolveRequest wants_reject = wants_fallback;
  wants_reject.deadline_policy = DeadlinePolicy::kReject;
  std::future<SolveReply> first = service.submit(wants_fallback);
  std::future<SolveReply> second = service.submit(wants_reject);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  EXPECT_TRUE(a.downgraded);
  EXPECT_EQ(a.solver_used, "heur-p");
  EXPECT_EQ(b.status, ReplyStatus::kRejectedDeadline);
  EXPECT_EQ(service.stats().downgraded, 1u);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
  // The fallback answer must not be cached under the 'gated' key.
  EXPECT_EQ(service.cache_stats().insertions, 1u);  // blocker only
}

TEST(SolveService, CompatibleRequestsShareOneBatch) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;  // FIFO: the blocker below owns the only worker
  SolveService service(config);

  // Occupy the worker so the next two submits stay queued in one open
  // batch (same instance + solver, different bounds).
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});

  SolveRequest loose{hom_instance(), "gated", {}};
  SolveRequest tight = loose;
  tight.bounds.period_bound = 1e-3;
  std::future<SolveReply> first = service.submit(loose);
  std::future<SolveReply> second = service.submit(tight);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(first.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(second.get().status, ReplyStatus::kInfeasible);

  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);           // blocker + the shared batch
  EXPECT_EQ(stats.batched_requests, 1u);  // `tight` joined `loose`
}

/// GatedSolver that counts the sessions it prepares.
class PrepareCountingSolver final : public solver::Solver {
 public:
  PrepareCountingSolver(std::shared_future<void> gate,
                        std::atomic<int>* prepares)
      : gate_(std::move(gate)),
        prepares_(prepares),
        inner_(solver::make_heuristic_solver(HeuristicKind::kHeurP, false)) {}

  std::string name() const override { return "counted"; }

  std::optional<solver::Solution> solve(
      const Instance& instance, const solver::Bounds& bounds) const override {
    gate_.wait();
    return inner_->solve(instance, bounds);
  }

  std::unique_ptr<solver::PreparedSolver> prepare(
      const Instance& instance) const override {
    prepares_->fetch_add(1);
    return solver::Solver::prepare(instance);
  }

 private:
  std::shared_future<void> gate_;
  std::atomic<int>* prepares_;
  std::shared_ptr<const solver::Solver> inner_;
};

TEST(SolveService, RunningBatchAbsorbsItsKeysArrivals) {
  // One worker holds the batch of (instance, counted) inside its first
  // solve. Seven more bounds of that instance arrive meanwhile: they
  // join the running batch and ride the session it already prepared —
  // one batch, one prepare, eight solves.
  std::promise<void> gate;
  std::atomic<int> prepares{0};
  solver::SolverRegistry registry;
  registry.add(std::make_shared<PrepareCountingSolver>(
      gate.get_future().share(), &prepares));
  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);
  GateOpener opener(gate);

  const Instance instance = hom_instance();
  std::vector<std::future<SolveReply>> replies;
  replies.push_back(service.submit(SolveRequest{instance, "counted", {}}));
  ASSERT_TRUE(eventually([&] { return service.stats().batches == 1; }));
  for (int i = 1; i <= 7; ++i) {
    solver::Bounds bounds;
    bounds.latency_bound = 1000.0 + i;
    replies.push_back(
        service.submit(SolveRequest{instance, "counted", bounds}));
  }
  opener.open();
  for (auto& reply : replies) {
    EXPECT_EQ(reply.get().status, ReplyStatus::kSolved);
  }
  EXPECT_EQ(prepares.load(), 1);
  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 7u);
  EXPECT_EQ(stats.solver_invocations, 8u);
}

TEST(SolveService, CompletionRunsOnceAndOutsideEveryEngineLock) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  registry.add(solver::make_heuristic_solver(HeuristicKind::kHeurP, false));
  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);
  GateOpener opener(gate);
  const std::thread::id caller = std::this_thread::get_id();

  // A miss is answered on the worker, after submit returned. Its
  // completion submits again — a miss, which takes the engine's lock —
  // and that second completion still runs.
  std::atomic<int> cold_calls{0};
  std::promise<std::thread::id> cold_thread;
  std::promise<SolveReply> nested;
  const SolveRequest request{hom_instance(), "heur-p", {}};
  SolveRequest other = request;
  other.bounds.latency_bound = 1000.0;
  service.submit(request, [&](SolveReply reply) {
    EXPECT_EQ(reply.status, ReplyStatus::kSolved);
    ++cold_calls;
    service.submit(other,
                   [&](SolveReply again) { nested.set_value(again); });
    cold_thread.set_value(std::this_thread::get_id());
  });
  auto cold_on = cold_thread.get_future();
  ASSERT_EQ(cold_on.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_NE(cold_on.get(), caller);
  auto nested_reply = nested.get_future();
  ASSERT_EQ(nested_reply.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(nested_reply.get().status, ReplyStatus::kSolved);

  // A hit is answered on this thread, before submit returns.
  int hit_calls = 0;
  service.submit(request, [&](SolveReply reply) {
    EXPECT_TRUE(reply.cache_hit);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hit_calls;
  });
  EXPECT_EQ(hit_calls, 1);

  // A completion that throws strands none of its query's other waiters.
  std::promise<SolveReply> twin;
  const SolveRequest gated{hom_instance(), "gated", {}};
  service.submit(gated, [](SolveReply) { throw std::runtime_error("boom"); });
  service.submit(gated, [&](SolveReply reply) { twin.set_value(reply); });
  opener.open();
  auto twin_reply = twin.get_future();
  ASSERT_EQ(twin_reply.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(twin_reply.get().deduplicated);
  service.wait_idle();
  EXPECT_EQ(cold_calls.load(), 1);
  EXPECT_EQ(hit_calls, 1);
}

/// Delegates to heur-p but records the order in which instances reach
/// the solver — the observable for batch-pickup-order tests.
class RecordingSolver final : public solver::Solver {
 public:
  RecordingSolver(std::shared_future<void> gate,
                  std::vector<std::size_t>* order, std::mutex* order_mutex)
      : gate_(std::move(gate)),
        order_(order),
        order_mutex_(order_mutex),
        inner_(solver::make_heuristic_solver(HeuristicKind::kHeurP, false)) {}

  std::string name() const override { return "recording"; }

  std::optional<solver::Solution> solve(
      const Instance& instance, const solver::Bounds& bounds) const override {
    {
      // Recorded at *pickup* (before the gate), so the test can both
      // observe pickup order and wait until a batch is committed to.
      const std::lock_guard<std::mutex> lock(*order_mutex_);
      order_->push_back(instance.chain.size());
    }
    gate_.wait();
    return inner_->solve(instance, bounds);
  }

 private:
  std::shared_future<void> gate_;
  std::vector<std::size_t>* order_;
  std::mutex* order_mutex_;
  std::shared_ptr<const solver::Solver> inner_;
};

/// The chain sizes one worker solves, in order, for a blocker on
/// het_instance (3 tasks), then `patient` (no deadline, submitted
/// first) and `urgent` (2 tasks, 30 s deadline, submitted second), all
/// queued behind the blocker.
std::vector<std::size_t> pickup_order(const SolveRequest& patient) {
  std::promise<void> gate;
  std::vector<std::size_t> order;
  std::mutex order_mutex;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<RecordingSolver>(gate.get_future().share(),
                                                 &order, &order_mutex));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;  // one worker: pickup order is fully observable
  SolveService service(config);
  GateOpener opener(gate);

  // Occupy the worker so the next two batches queue up behind it; wait
  // until it has actually committed to the blocker's batch.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "recording", {}});
  EXPECT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(order_mutex);
    return !order.empty();
  }));

  std::vector<Task> two_tasks{{10.0, 1.0}, {5.0, 0.0}};
  const Instance small{TaskChain(std::move(two_tasks)),
                       Platform::homogeneous(3, 1.0, 1e-8, 1.0, 1e-5, 2)};
  std::future<SolveReply> waiting = service.submit(patient);
  std::future<SolveReply> urgent = service.submit(
      SolveRequest{small, "recording", {}, 30.0, DeadlinePolicy::kReject});

  opener.open();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(waiting.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(urgent.get().status, ReplyStatus::kSolved);
  const std::lock_guard<std::mutex> lock(order_mutex);
  return order;
}

TEST(SolveService, TightDeadlineBatchIsPickedBeforePatientBacklog) {
  // FIFO would run the patient request (submitted first, no deadline)
  // before the urgent one (submitted second, 30 s deadline) — and under
  // real backlog the urgent request would expire in the queue behind
  // it. Deadline-aware pickup must flip the order.
  // Patient backlog on another instance (4 tasks): an open batch.
  EXPECT_EQ(pickup_order(SolveRequest{hom_instance(), "recording", {}}),
            (std::vector<std::size_t>{3, 2, 4}));
  // Patient backlog on the blocker's own key: the running batch absorbs
  // it, and its worker hands it back once a more urgent batch is open.
  solver::Bounds other_bounds;
  other_bounds.latency_bound = 1000.0;
  EXPECT_EQ(
      pickup_order(SolveRequest{het_instance(), "recording", other_bounds}),
      (std::vector<std::size_t>{3, 2, 3}));
}

TEST(ServeProtocol, ScriptedSessionWithRepeatsAndErrors) {
  ServiceConfig config = small_config();
  SolveService service(config);

  std::istringstream in(
      "# a scripted session\n"
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 3 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a exact inf inf\n"
      "sync\n"
      "solve a exact inf inf\n"
      "solve nope exact inf inf\n"
      "bogus-command\n"
      "sync\n"
      "stats\n");
  std::ostringstream out;
  const ServeResult result = run_serve(in, out, service);

  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.protocol_errors, 2u);  // unknown instance + command

  const std::string text = out.str();
  // Request 0 solved cold, request 1 is a cache hit after the sync.
  EXPECT_NE(text.find("0\tsolved\t0"), std::string::npos);
  EXPECT_NE(text.find("1\tsolved\t1"), std::string::npos);
  EXPECT_NE(text.find("# error: solve: unknown instance 'nope'"),
            std::string::npos);
  EXPECT_NE(text.find("# engine {\"submitted\":2"), std::string::npos);
  EXPECT_NE(text.find("\"cache_hits\":1"), std::string::npos);
}

TEST(ServeProtocol, RepliesComeBackInSubmissionOrder) {
  SolveService service(small_config());
  std::istringstream in(
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 2 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a heur-p inf inf\n"
      "solve a heur-l inf inf\n"
      "solve a baseline inf inf\n");
  std::ostringstream out;
  run_serve(in, out, service);
  const std::string text = out.str();
  ASSERT_EQ(text.rfind("0\t", 0), 0u);  // reply 0 leads the output
  const std::size_t p1 = text.find("\n1\t");
  const std::size_t p2 = text.find("\n2\t");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p1, p2);
}

// ------------------------------------------------------------ wire codec

TEST(WireCodec, RequestRoundTrip) {
  SolveRequest request{het_instance(), "exact", {}, 7.5,
                       DeadlinePolicy::kReject};
  request.bounds.period_bound = 12.25;

  std::string error;
  const auto decoded =
      decode_wire_request(encode_wire_request(request), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->solver, "exact");
  EXPECT_EQ(decoded->bounds.period_bound, 12.25);
  EXPECT_TRUE(std::isinf(decoded->bounds.latency_bound));
  EXPECT_EQ(decoded->deadline_seconds, 7.5);
  EXPECT_EQ(decoded->deadline_policy, DeadlinePolicy::kReject);
  // The instance survives bit-exactly (canonical number formatting).
  EXPECT_EQ(instance_to_text(decoded->instance),
            instance_to_text(request.instance));
}

TEST(WireCodec, SolvedReplyRoundTripIsBitIdentical) {
  SolveService service(small_config());
  const SolveReply original =
      service.submit(SolveRequest{hom_instance(), "exact", {}}).get();
  ASSERT_EQ(original.status, ReplyStatus::kSolved);

  std::string error;
  const auto decoded =
      decode_wire_reply(encode_wire_reply(original), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kSolved);
  EXPECT_EQ(decoded->solver_used, "exact");
  EXPECT_EQ(decoded->key, original.key);
  ASSERT_TRUE(decoded->solution.has_value());
  EXPECT_EQ(decoded->solution->mapping, original.solution->mapping);
  EXPECT_EQ(decoded->solution->metrics, original.solution->metrics);
}

TEST(WireCodec, InfeasibleAndErrorRepliesRoundTrip) {
  SolveReply infeasible;
  infeasible.status = ReplyStatus::kInfeasible;
  infeasible.solver_used = "dp";
  infeasible.cache_hit = true;
  infeasible.key = fingerprint("some-key");
  std::string error;
  auto decoded = decode_wire_reply(encode_wire_reply(infeasible), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->key, infeasible.key);
  EXPECT_FALSE(decoded->solution.has_value());

  SolveReply failure;
  failure.status = ReplyStatus::kError;
  failure.error = "unknown solver 'nope'";
  failure.key = fingerprint("err-key");
  decoded = decode_wire_reply(encode_wire_reply(failure), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kError);
  EXPECT_EQ(decoded->error, "unknown solver 'nope'");
  EXPECT_EQ(decoded->key, failure.key);
}

// ------------------------------------------------------ golden wire bytes
//
// What the encoders write, pinned byte for byte: a round trip cannot
// catch an encoder and a decoder drifting together, and these bytes
// are what peers, PRTS1 snapshots and the cache keys' canonical text
// share. Every number is chosen to exercise a formatting rule: shortest
// round-trip decimals (0.30000000000000004, 1e-05), "inf", a negative
// log, and the largest 64-bit count.

/// A two-interval mapping of golden_instance with hand-picked metrics
/// (the encoders write metrics as given; they need not be consistent).
solver::Solution golden_solution() {
  MappingMetrics metrics;
  metrics.reliability = LogReliability::from_log(-0.1);
  metrics.failure = 0.125;
  metrics.expected_latency = 0.1 + 0.2;
  metrics.worst_latency = 40.0;
  metrics.expected_period = 20.0;
  metrics.worst_period = 24.5;
  metrics.interval_count = 2;
  metrics.processors_used = 2;
  metrics.replication_level = 1.0;
  return solver::Solution{
      Mapping(IntervalPartition::from_boundaries(std::vector<std::size_t>{0, 2},
                                                 3),
              {{0}, {1}}),
      metrics};
}

Instance golden_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 0.0}};
  std::vector<Processor> procs{{3.0, 1e-8}, {1.0, 2e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// The golden solution's cache entry fields after its key and flag.
constexpr const char* kGoldenMappingFields =
    "0,2\t0;1\t-0.1\t0.125\t0.30000000000000004\t40\t20\t24.5\t2\t2\t1";

TEST(WireGolden, RequestWithKeyTraceAndWarmIncumbent) {
  SolveRequest request{golden_instance(), "heur-p", {}, 7.5,
                       DeadlinePolicy::kReject};
  request.bounds.period_bound = 12.25;
  request.trace_id = 0x77;
  solver::WarmStart warm;
  warm.incumbent = golden_solution();
  warm.reliability_floor_log = -0.1;
  request.warm_start = warm;
  EXPECT_EQ(encode_wire_request(request, fingerprint("golden-request")),
            std::string("prts-solve-request v1\n"
                        "solver heur-p\n"
                        "period 12.25\n"
                        "latency inf\n"
                        "deadline 7.5\n"
                        "policy reject\n"
                        "key 295efe1402144242f65c374473b10b47\n"
                        "trace 0000000000000077\n"
                        "warm 00000000000000000000000000000000\t1\t") +
                kGoldenMappingFields +
                "\t0\n"
                "instance\n"
                "prts-instance v1\n"
                "tasks 3\n"
                "10 2\n"
                "4 1\n"
                "20 0\n"
                "platform 2 1 1e-05 2\n"
                "3 1e-08\n"
                "1 2e-08\n");
}

TEST(WireGolden, SolvedReplyWithSpansAndAFeasibleEntry) {
  SolveReply reply;
  reply.status = ReplyStatus::kSolved;
  reply.cache_hit = true;
  reply.solver_used = "heur-p";
  reply.cost_seconds = 0.0625;
  reply.key = fingerprint("golden-reply");
  reply.solution = golden_solution();
  obs::Span submit;
  submit.name = "engine.submit";
  submit.rank = 1;
  submit.duration_seconds = 1.5e-05;
  obs::Span lookup;
  lookup.name = "cache.lookup";
  lookup.rank = 1;
  lookup.start_seconds = 2.5e-06;
  lookup.duration_seconds = 1e-06;
  lookup.cpu_seconds = 7.5e-07;
  lookup.alloc_count = 3;
  lookup.alloc_bytes = 18446744073709551615ULL;
  reply.remote_spans = {submit, lookup};
  EXPECT_EQ(encode_wire_reply(reply),
            std::string("prts-solve-reply v1\n"
                        "status solved\n"
                        "hit 1\n"
                        "near 0\n"
                        "down 0\n"
                        "solver heur-p\n"
                        "cost 0.0625\n"
                        "span 1 0 1.5e-05 engine.submit\n"
                        "span 1 2.5e-06 1e-06 cache.lookup\n"
                        "spanx 7.5e-07 3 18446744073709551615\n"
                        "entry 8823f73a06dfd3988bd8683528c918d3\t1\t") +
                kGoldenMappingFields + "\t0.0625\n");
}

TEST(WireGolden, InfeasibleAndErrorReplies) {
  SolveReply infeasible;
  infeasible.status = ReplyStatus::kInfeasible;
  infeasible.solver_used = "dp";
  infeasible.cache_hit = true;
  infeasible.key = fingerprint("some-key");
  EXPECT_EQ(encode_wire_reply(infeasible),
            "prts-solve-reply v1\n"
            "status infeasible\n"
            "hit 1\n"
            "near 0\n"
            "down 0\n"
            "solver dp\n"
            "cost 0\n"
            "entry b4ea5f743ce385ba2b4bfb0c95d1840d\t0\t-\t-\t0\n");

  SolveReply failure;
  failure.status = ReplyStatus::kError;
  failure.error = "unknown solver 'nope'";
  failure.key = fingerprint("err-key");
  EXPECT_EQ(encode_wire_reply(failure),
            "prts-solve-reply v1\n"
            "status error\n"
            "hit 0\n"
            "near 0\n"
            "down 0\n"
            "solver -\n"
            "cost 0\n"
            "error unknown solver 'nope'\n"
            "key dec60a248a3138b34a454f2e30b0966b\n");
}

TEST(WireGolden, CacheEntries) {
  EXPECT_EQ(encode_cache_entry(fingerprint("indexed"),
                               CachedSolution{golden_solution(), 0.25,
                                              fingerprint("instance"),
                                              solver::Bounds{12.5, 99.0}}),
            std::string("2ac1a74496e6409845986aed4298f7dd\t1\t") +
                kGoldenMappingFields +
                "\t0.25\tf1ba3ba6fd8ada8aaacfbbfa0aa9e037\t12.5\t99");
  EXPECT_EQ(encode_cache_entry(fingerprint("infeasible"),
                               CachedSolution{std::nullopt, 1.5,
                                              fingerprint("instance"),
                                              solver::Bounds{3.0, 4.0}}),
            "ee4b60a1be7cc94891065135e99c0e7c\t0\t-\t-\t1.5\t"
            "f1ba3ba6fd8ada8aaacfbbfa0aa9e037\t3\t4");
}

TEST(WireCodec, ReplyBytesNoEncoderWritesAreRefusedWithAReason) {
  SolveReply reply;
  reply.status = ReplyStatus::kSolved;
  reply.solver_used = "heur-p";
  reply.key = fingerprint("golden-reply");
  reply.solution = golden_solution();
  obs::Span span;
  span.name = "cache.lookup";
  span.rank = 1;
  span.duration_seconds = 1e-06;
  span.cpu_seconds = 7.5e-07;
  span.alloc_count = 3;
  span.alloc_bytes = 96;
  reply.remote_spans = {span};
  const std::string payload = encode_wire_reply(reply);
  std::string error;
  const auto decoded = decode_wire_reply(payload, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(encode_wire_reply(*decoded), payload);

  // Each corruption replaces one line; none of them is a line the
  // encoder writes, so none may decode (and re-encode to other bytes).
  const std::string span_line = "span 1 0 1e-06 cache.lookup";
  const std::string spanx_line = "spanx 7.5e-07 3 96";
  ASSERT_NE(payload.find(span_line + "\n"), std::string::npos);
  ASSERT_NE(payload.find(spanx_line + "\n"), std::string::npos);
  const std::size_t entry_end = payload.find('\n', payload.find("entry "));
  const std::vector<std::pair<std::string, std::string>> corruptions{
      {span_line, "span 1  0 1e-06 cache.lookup"},
      {span_line, "span 1 0 1e-06  cache.lookup"},
      {span_line, "span  1 0 1e-06 cache.lookup"},
      {span_line, "span 1 0 1e-06"},
      {span_line, "span 1 0 1e-06 "},
      {span_line, "span x 0 1e-06 cache.lookup"},
      {spanx_line, "spanx 0.1 -1 3"},
      {spanx_line, "spanx 0.1 1 -3"},
      {spanx_line, "spanx 0.1  1 3"},
      {spanx_line, "spanx 0.1 1 3 "},
      {spanx_line, "spanx 0.1 1"},
      {payload.substr(payload.find("entry "),
                      entry_end - payload.find("entry ")),
       payload.substr(payload.find("entry "),
                      entry_end - payload.find("entry ")) +
           "\t"},
  };
  for (const auto& [line, corrupt] : corruptions) {
    std::string bad = payload;
    bad.replace(bad.find(line), line.size(), corrupt);
    error.clear();
    EXPECT_FALSE(decode_wire_reply(bad, error).has_value()) << corrupt;
    EXPECT_FALSE(error.empty()) << corrupt;
  }
}

TEST(WireCodec, ReplyLinesOutOfTheEncodersOrderAreRefused) {
  // What the encoder writes after the fixed lines: `error` for an error
  // status only, then `span` lines each followed by at most one
  // `spanx`, then one closing `entry` (solved, infeasible) or `key`
  // (any other status), then nothing.
  SolveReply solved;
  solved.status = ReplyStatus::kSolved;
  solved.solver_used = "heur-p";
  solved.cost_seconds = 0.5;
  solved.key = fingerprint("ordered-reply");
  solved.solution = golden_solution();
  obs::Span span;
  span.name = "cache.lookup";
  span.rank = 1;
  span.duration_seconds = 1e-06;
  span.cpu_seconds = 7.5e-07;
  span.alloc_count = 3;
  span.alloc_bytes = 96;
  solved.remote_spans = {span};
  const std::string payload = encode_wire_reply(solved);
  const std::string head = payload.substr(0, payload.find("span "));
  const std::string span_line = "span 1 0 1e-06 cache.lookup\n";
  const std::string spanx_line = "spanx 7.5e-07 3 96\n";
  const std::string entry_line = payload.substr(payload.find("entry "));
  ASSERT_EQ(head + span_line + spanx_line + entry_line, payload);
  const std::string other_entry =
      "entry " + encode_cache_entry(fingerprint("another-key"),
                                    CachedSolution{golden_solution(), 0.5}) +
      "\n";
  const std::string key_line = "key " + to_hex(fingerprint("b")) + "\n";
  std::string error;
  for (const std::string& encoded :
       {payload, head + entry_line, head + span_line + entry_line}) {
    const auto decoded = decode_wire_reply(encoded, error);
    ASSERT_TRUE(decoded.has_value()) << error << "\n" << encoded;
    EXPECT_EQ(encode_wire_reply(*decoded), encoded);
  }

  SolveReply failed;
  failed.status = ReplyStatus::kError;
  failed.error = "boom";
  failed.key = fingerprint("err-key");
  const std::string error_payload = encode_wire_reply(failed);
  const std::string error_head =
      error_payload.substr(0, error_payload.find("error "));
  const std::string error_key =
      error_payload.substr(error_payload.find("key "));
  ASSERT_EQ(error_head + "error boom\n" + error_key, error_payload);

  SolveReply infeasible;
  infeasible.status = ReplyStatus::kInfeasible;
  infeasible.key = fingerprint("infeasible-key");
  const std::string infeasible_payload = encode_wire_reply(infeasible);
  const std::string infeasible_head =
      infeasible_payload.substr(0, infeasible_payload.find("entry "));

  std::string with_metadata = entry_line;
  with_metadata.insert(with_metadata.size() - 1,
                       "\t" + to_hex(fingerprint("instance")) + "\t1\t2");
  std::string other_cost = entry_line;
  other_cost.replace(other_cost.rfind("\t0.5\n"), 6, "\t0.25\n");
  const std::vector<std::pair<std::string, std::string>> refused{
      {"entry, key, entry", head + entry_line + key_line + other_entry},
      {"two entries", head + entry_line + other_entry},
      {"key closing a solved reply", head + key_line},
      {"no closing line", head + span_line + spanx_line},
      {"span after the entry", head + entry_line + span_line},
      {"spanx without its span", head + spanx_line + entry_line},
      {"two spanx", head + span_line + spanx_line + spanx_line + entry_line},
      {"empty spanx", head + span_line + "spanx 0 0 0\n" + entry_line},
      {"error on a solved reply", head + "error boom\n" + entry_line},
      {"blank line", head + "\n" + entry_line},
      {"bytes after the entry", payload + "\n"},
      {"no final newline", payload.substr(0, payload.size() - 1)},
      {"entry with near-miss metadata", head + with_metadata},
      {"entry cost not the reply's", head + other_cost},
      {"error status without its error", error_head + error_key},
      {"two errors", error_head + "error a\nerror b\n" + error_key},
      {"entry closing an error", error_head + "error boom\n" + entry_line},
      {"error after the spans",
       error_head + span_line + "error boom\n" + error_key},
      {"infeasible with a solution entry",
       infeasible_head +
           "entry " +
           encode_cache_entry(infeasible.key,
                              CachedSolution{golden_solution(), 0.0}) +
           "\n"},
  };
  for (const auto& [what, bytes] : refused) {
    error.clear();
    EXPECT_FALSE(decode_wire_reply(bytes, error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  }
}

TEST(WireCodec, NumbersAreAcceptedOnlyAsTheEncodersSpellThem) {
  double value = 0.0;
  for (const char* canonical :
       {"0", "0.5", "-2.5", "1e-05", "0.30000000000000004", "inf", "-inf"}) {
    EXPECT_TRUE(parse_canonical_number(canonical, value)) << canonical;
  }
  for (const char* respelled : {"0.50", "5e-1", ".5", "+0.5", "-0", "0.0",
                                "1e-5", "0.00001", "1E-05", "INF", "1e0"}) {
    EXPECT_FALSE(parse_canonical_number(respelled, value)) << respelled;
  }
  // Text people type keeps its lenient reader.
  ASSERT_TRUE(parse_number("0.50", value));
  EXPECT_EQ(value, 0.5);
  std::size_t count = 0;
  EXPECT_TRUE(parse_canonical_integer("70", count));
  EXPECT_EQ(count, 70u);
  for (const char* respelled : {"070", "+70", "-70", "00"}) {
    EXPECT_FALSE(parse_canonical_integer(respelled, count)) << respelled;
  }
  int rank = 0;
  EXPECT_TRUE(parse_canonical_integer("-3", rank));
  EXPECT_FALSE(parse_canonical_integer("-0", rank));

  // Each codec refuses a respelled number, with a reason: a cache entry
  // (and so a kEntries frame and a PRTS1 blob) ...
  const CanonicalHash key = fingerprint("respelled");
  const std::string entry =
      encode_cache_entry(key, CachedSolution{golden_solution(), 0.5});
  ASSERT_EQ(entry.substr(entry.size() - 4), "\t0.5");
  CanonicalHash parsed_key;
  CachedSolution parsed;
  std::string error;
  ASSERT_TRUE(parse_cache_entry(entry, parsed_key, parsed, error)) << error;
  EXPECT_FALSE(
      parse_cache_entry(entry + "0", parsed_key, parsed, error));
  EXPECT_FALSE(error.empty());
  std::string zero_padded = entry;
  zero_padded.replace(zero_padded.find("\t0,2\t"), 5, "\t00,2\t");
  EXPECT_FALSE(parse_cache_entry(zero_padded, parsed_key, parsed, error));
  EntryBatch batch;
  batch.from = 1;
  batch.entries.emplace_back(key, parsed);
  const std::string frame = encode_entries(batch);
  ASSERT_TRUE(decode_entries(frame, error).has_value()) << error;
  std::string respelled_frame = frame;
  respelled_frame.replace(respelled_frame.rfind("\t0.5\n"), 6, "\t0.50\n");
  error.clear();
  EXPECT_FALSE(decode_entries(respelled_frame, error).has_value());
  EXPECT_FALSE(error.empty());

  // ... a request head ...
  SolveRequest request{golden_instance(), "heur-p", {}};
  request.bounds.period_bound = 0.5;
  const std::string request_payload = encode_wire_request(request);
  ASSERT_TRUE(decode_wire_request_head(request_payload, error).has_value());
  std::string respelled_request = request_payload;
  respelled_request.replace(respelled_request.find("period 0.5\n"), 11,
                            "period 0.50\n");
  error.clear();
  EXPECT_FALSE(decode_wire_request_head(respelled_request, error).has_value());
  EXPECT_FALSE(error.empty());

  // ... and a reply's cost and spans.
  SolveReply reply;
  reply.status = ReplyStatus::kInfeasible;
  reply.cost_seconds = 0.5;
  reply.key = key;
  obs::Span span;
  span.name = "solve";
  span.start_seconds = 0.5;
  span.duration_seconds = 0.25;
  reply.remote_spans = {span};
  const std::string reply_payload = encode_wire_reply(reply);
  ASSERT_TRUE(decode_wire_reply(reply_payload, error).has_value()) << error;
  for (const auto& [spelled, respelled] :
       std::vector<std::pair<std::string, std::string>>{
           {"cost 0.5\n", "cost 0.50\n"},
           {"span 0 0.5 0.25 solve", "span 0 0.50 0.25 solve"},
           {"span 0 0.5 0.25 solve", "span 00 0.5 0.25 solve"}}) {
    std::string bad = reply_payload;
    ASSERT_NE(bad.find(spelled), std::string::npos) << spelled;
    bad.replace(bad.find(spelled), spelled.size(), respelled);
    error.clear();
    EXPECT_FALSE(decode_wire_reply(bad, error).has_value()) << respelled;
    EXPECT_FALSE(error.empty()) << respelled;
  }
}

TEST(WireCodec, GarbageIsRejectedWithReason) {
  std::string error;
  EXPECT_FALSE(decode_wire_request("not a request", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_wire_reply("junk\n", error).has_value());
  EXPECT_FALSE(
      decode_wire_request("prts-solve-request v1\nsolver\n", error)
          .has_value());
}

/// A request as the shard router forwards it: the canonical instance,
/// plus its key.
struct Forwarded {
  SolveRequest request;
  CanonicalHash key;
};

Forwarded forwarded(const Instance& instance, const std::string& solver_name,
                    solver::Bounds bounds = {}) {
  const CanonicalInstance canonical = canonicalize(instance);
  return Forwarded{SolveRequest{canonical.instance, solver_name, bounds},
                   request_key(canonical, solver_name, bounds)};
}

net::Frame solve_frame(std::string payload) {
  net::Frame frame;
  frame.type = net::FrameType::kSolveRequest;
  frame.payload = std::move(payload);
  return frame;
}

/// `payload` cut off right after its `instance` line.
std::string header_only(std::string payload) {
  const std::string marker = "\ninstance\n";
  payload.resize(payload.find(marker) + marker.size());
  return payload;
}

TEST(WireCodec, KeyLineIsOptionalAndCarriesTheKey) {
  solver::Bounds bounds;
  bounds.period_bound = 12.25;
  auto [request, key] = forwarded(het_instance(), "exact", bounds);
  request.trace_id = 0x77;
  request.deadline_seconds = 7.5;
  request.deadline_policy = DeadlinePolicy::kReject;

  std::string error;
  const auto plain = decode_wire_request(encode_wire_request(request), error);
  const auto keyed =
      decode_wire_request(encode_wire_request(request, key), error);
  ASSERT_TRUE(plain.has_value()) << error;
  ASSERT_TRUE(keyed.has_value()) << error;
  EXPECT_EQ(keyed->solver, plain->solver);
  EXPECT_EQ(keyed->bounds.period_bound, plain->bounds.period_bound);
  EXPECT_EQ(keyed->bounds.latency_bound, plain->bounds.latency_bound);
  EXPECT_EQ(keyed->deadline_seconds, plain->deadline_seconds);
  EXPECT_EQ(keyed->deadline_policy, plain->deadline_policy);
  EXPECT_EQ(keyed->trace_id, plain->trace_id);
  EXPECT_EQ(instance_to_text(keyed->instance),
            instance_to_text(plain->instance));

  const auto head =
      decode_wire_request_head(encode_wire_request(request, key), error);
  ASSERT_TRUE(head.has_value()) << error;
  ASSERT_TRUE(head->key.has_value());
  EXPECT_EQ(*head->key, key);
  EXPECT_EQ(head->trace_id, 0x77u);
  const auto keyless =
      decode_wire_request_head(encode_wire_request(request), error);
  ASSERT_TRUE(keyless.has_value()) << error;
  EXPECT_FALSE(keyless->key.has_value());

  // A malformed key is a malformed request on both paths.
  std::string garbled = encode_wire_request(request, key);
  garbled.replace(garbled.find("key ") + 4, 2, "zz");
  EXPECT_FALSE(decode_wire_request_head(garbled, error).has_value());
  EXPECT_FALSE(decode_wire_request(garbled, error).has_value());
}

TEST(WireCodec, HeadAndFullDecodersAgreeOnEveryTruncation) {
  SolveService service(small_config());
  const auto [request, key] = forwarded(het_instance(), "heur-p");
  const SolveReply solved = service.submit(request).get();
  ASSERT_TRUE(solved.solution.has_value());
  solver::WarmStart warm;
  warm.incumbent = solved.solution;
  warm.reliability_floor_log = solved.solution->metrics.reliability.log();

  for (const bool with_key : {false, true}) {
    for (const bool with_trace : {false, true}) {
      for (const bool with_warm : {false, true}) {
        SolveRequest variant = request;
        if (with_trace) variant.trace_id = 0xabc123;
        if (with_warm) variant.warm_start = warm;
        const std::string payload = encode_wire_request(
            variant, with_key ? std::optional<CanonicalHash>(key)
                              : std::nullopt);
        std::size_t heads = 0;
        std::size_t fulls = 0;
        for (std::size_t n = 0; n <= payload.size(); ++n) {
          SCOPED_TRACE("key=" + std::to_string(with_key) +
                       " trace=" + std::to_string(with_trace) +
                       " warm=" + std::to_string(with_warm) +
                       " prefix=" + std::to_string(n));
          const std::string_view prefix(payload.data(), n);
          std::string head_error;
          std::string full_error;
          const auto head = decode_wire_request_head(prefix, head_error);
          const auto full = decode_wire_request(prefix, full_error);
          if (!head) {
            // A header the head decoder rejects, the full decoder
            // rejects too, for the same reason.
            EXPECT_FALSE(full.has_value());
            EXPECT_EQ(full_error, head_error);
            continue;
          }
          ++heads;
          // Every header line made it, so the optional ones did too.
          EXPECT_EQ(head->key.has_value(), with_key);
          if (with_key) {
            EXPECT_EQ(*head->key, key);
          }
          EXPECT_EQ(head->trace_id, variant.trace_id);
          EXPECT_EQ(head->warm.has_value(), with_warm);
          if (!full) continue;  // the instance text was cut short
          ++fulls;
          EXPECT_EQ(full->solver, head->solver);
          EXPECT_EQ(full->bounds.period_bound, head->bounds.period_bound);
          EXPECT_EQ(full->bounds.latency_bound, head->bounds.latency_bound);
          EXPECT_EQ(full->deadline_seconds, head->deadline_seconds);
          EXPECT_EQ(full->deadline_policy, head->deadline_policy);
          EXPECT_EQ(full->trace_id, head->trace_id);
          EXPECT_EQ(full->warm_start.has_value(), with_warm);
        }
        // The whole payload decodes on both; only tails of it on the
        // head decoder.
        EXPECT_GT(heads, fulls);
        EXPECT_GE(fulls, 1u);
      }
    }
  }
}

/// A wire reply without its span/spanx lines (per-request timings).
std::string without_spans(const std::string& payload) {
  std::istringstream lines(payload);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("span", 0) != 0) kept += line + "\n";
  }
  return kept;
}

/// make_fabric_handler(service) behind a real FrameServer on loopback,
/// called like a function: one frame in, its reply (or nullopt) out.
class ServedHandler {
 public:
  explicit ServedHandler(SolveService& service)
      : server_(net::FrameServer::start(0, make_fabric_handler(service),
                                        pool_)),
        client_("127.0.0.1", server_->port()) {}

  std::optional<net::Frame> operator()(const net::Frame& frame) {
    return client_.call(frame);
  }

 private:
  ThreadPool pool_{2};
  std::unique_ptr<net::FrameServer> server_;
  net::MuxFrameClient client_;
};

TEST(KeyFirst, ExactHitIsAnsweredFromTheHeaderAlone) {
  SolveService owner(small_config());
  ServedHandler handler(owner);
  // het_instance: its canonical labels differ from its own, so a reply
  // in the wrong labels would show.
  const auto [request, key] = forwarded(het_instance(), "heur-p");

  const auto cold = handler(solve_frame(encode_wire_request(request, key)));
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(cold->type, net::FrameType::kSolveReply) << cold->payload;
  // The parsing path's hit: no key, so the owner decodes the instance
  // and canonicalizes it.
  const auto parsed_hit = handler(solve_frame(encode_wire_request(request)));
  ASSERT_TRUE(parsed_hit.has_value());
  ASSERT_EQ(parsed_hit->type, net::FrameType::kSolveReply);

  // Key-first: the instance text is gone, the hit is still answered —
  // and byte-identical to the parsing path's, apart from the span
  // lines, which carry each request's own timings.
  const auto by_key =
      handler(solve_frame(header_only(encode_wire_request(request, key))));
  ASSERT_TRUE(by_key.has_value());
  ASSERT_EQ(by_key->type, net::FrameType::kSolveReply) << by_key->payload;
  EXPECT_EQ(without_spans(by_key->payload), without_spans(parsed_hit->payload));
  std::string error;
  const auto cold_reply = decode_wire_reply(cold->payload, error);
  const auto hit_reply = decode_wire_reply(by_key->payload, error);
  ASSERT_TRUE(cold_reply.has_value() && hit_reply.has_value()) << error;
  EXPECT_FALSE(cold_reply->cache_hit);
  EXPECT_TRUE(hit_reply->cache_hit);
  EXPECT_EQ(hit_reply->key, key);
  ASSERT_TRUE(hit_reply->solution.has_value());
  EXPECT_EQ(hit_reply->solution->mapping, cold_reply->solution->mapping);
  EXPECT_EQ(hit_reply->solution->metrics, cold_reply->solution->metrics);

  // Every request counted once: one miss (the cold solve), two hits.
  EXPECT_EQ(owner.stats().submitted, 3u);
  EXPECT_EQ(owner.stats().cache_hits, 2u);
  EXPECT_EQ(owner.cache_stats().hits, 2u);
  EXPECT_EQ(owner.cache_stats().misses, 1u);

  // Without a key the same cut-off payload must be parsed, and fails.
  const auto keyless =
      handler(solve_frame(header_only(encode_wire_request(request))));
  ASSERT_TRUE(keyless.has_value());
  EXPECT_EQ(keyless->type, net::FrameType::kError);
}

TEST(KeyFirst, MismatchedKeyOnAMissIsAnErrorAndCachesNothing) {
  SolveService owner(small_config());
  ServedHandler handler(owner);
  const auto [request, key] = forwarded(hom_instance(), "heur-p");
  const auto [other, other_key] = forwarded(het_instance(), "heur-p");

  const auto reply =
      handler(solve_frame(encode_wire_request(request, other_key)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kError);
  EXPECT_EQ(reply->payload, "key does not match instance");
  EXPECT_FALSE(owner.cache().contains(key));
  EXPECT_FALSE(owner.cache().contains(other_key));
  EXPECT_EQ(owner.cache_stats().insertions, 0u);
  EXPECT_EQ(owner.stats().submitted, 0u);

  // The same frame with its own key is solved and cached.
  const auto honest = handler(solve_frame(encode_wire_request(request, key)));
  ASSERT_TRUE(honest.has_value());
  EXPECT_EQ(honest->type, net::FrameType::kSolveReply);
  EXPECT_TRUE(owner.cache().contains(key));
  EXPECT_FALSE(owner.cache().contains(other_key));
}

TEST(KeyFirst, FoldedBoundsKeyAsTheBoundsTheWireCarries) {
  // The wire spells a bound as canonical_number does: -0 as "0", and a
  // NaN with a payload as plain "nan". The owner keys what it decoded,
  // so the sender's key must fold -0 and NaNs the same way, or an
  // honest frame is refused as "key does not match instance".
  SolveService owner(small_config());
  ServedHandler handler(owner);
  const auto [request, key] = forwarded(
      hom_instance(), "heur-p", solver::Bounds{-0.0, std::nan("1")});
  EXPECT_EQ(key, forwarded(hom_instance(), "heur-p",
                           solver::Bounds{0.0, std::nan("")})
                     .key);
  const auto reply = handler(solve_frame(encode_wire_request(request, key)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kSolveReply) << reply->payload;
  EXPECT_TRUE(owner.cache().contains(key));
}

TEST(KeyFirst, ReaderAnswersPingsAndHitsWhileEveryPoolThreadIsHeld) {
  // Both of the server's pool threads are held by tasks parked on a
  // gate, and a miss waits in the pool queue behind them. A kPing and a
  // key-first exact hit on the same connection are still answered: the
  // connection's reader answers them itself.
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  SolveService owner(small_config());
  ThreadPool pool(2);
  auto server = net::FrameServer::start(0, make_fabric_handler(owner), pool);
  ASSERT_NE(server, nullptr);
  net::MuxFrameClient client("127.0.0.1", server->port());
  GateOpener opener(gate);

  const auto [request, key] = forwarded(het_instance(), "heur-p");
  const auto cold = client.call(solve_frame(encode_wire_request(request, key)));
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(cold->type, net::FrameType::kSolveReply) << cold->payload;

  std::atomic<int> parked{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&parked, opened] {
      ++parked;
      opened.wait();
    });
  }
  ASSERT_TRUE(eventually([&] { return parked.load() == 2; }));
  solver::Bounds bounds;
  bounds.period_bound = 100.0;
  const auto [queued, queued_key] = forwarded(hom_instance(), "heur-p", bounds);
  auto miss =
      client.call_async(solve_frame(encode_wire_request(queued, queued_key)));

  net::Frame ping;
  ping.type = net::FrameType::kPing;
  ping.payload = "still here";
  auto pong = client.call_async(ping, /*deadline_seconds=*/2.0);
  auto hit = client.call_async(solve_frame(encode_wire_request(request, key)),
                               /*deadline_seconds=*/2.0);
  const std::optional<net::Frame> pong_frame = pong.get();
  ASSERT_TRUE(pong_frame.has_value());
  EXPECT_EQ(pong_frame->type, net::FrameType::kPong);
  EXPECT_EQ(pong_frame->payload, "still here");
  const std::optional<net::Frame> hit_frame = hit.get();
  ASSERT_TRUE(hit_frame.has_value());
  ASSERT_EQ(hit_frame->type, net::FrameType::kSolveReply);
  std::string error;
  const auto hit_reply = decode_wire_reply(hit_frame->payload, error);
  ASSERT_TRUE(hit_reply.has_value()) << error;
  EXPECT_TRUE(hit_reply->cache_hit);
  EXPECT_EQ(hit_reply->key, key);

  // The miss was waiting for a pool thread all along, and is answered
  // once one is free.
  EXPECT_NE(miss.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(owner.stats().submitted, 2u);  // the cold solve and the hit
  opener.open();
  const std::optional<net::Frame> reply = miss.get();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kSolveReply) << reply->payload;
}

TEST(KeyFirst, OwnerHoldsMoreRemoteMissesThanItsPoolHasThreads) {
  // The server's pool has one thread, and eight distinct misses are in
  // flight. Each is parsed on that thread and handed to the engine with
  // its responder, so all eight wait in the engine at once, in one
  // batch, while the gated solve runs.
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  ServiceConfig config = small_config();
  config.registry = &registry;
  SolveService owner(config);
  ThreadPool pool(1);
  auto server = net::FrameServer::start(0, make_fabric_handler(owner), pool);
  ASSERT_NE(server, nullptr);
  net::MuxFrameClient client("127.0.0.1", server->port());
  GateOpener opener(gate);

  std::vector<std::future<std::optional<net::Frame>>> misses;
  for (int i = 0; i < 8; ++i) {
    solver::Bounds bounds;
    bounds.latency_bound = 1000.0 + i;
    const auto [request, key] = forwarded(hom_instance(), "gated", bounds);
    misses.push_back(
        client.call_async(solve_frame(encode_wire_request(request, key))));
  }
  const auto held = [&owner] {
    const EngineStats stats = owner.stats();
    return stats.submitted - stats.completed;
  };
  EXPECT_TRUE(eventually([&] { return held() == 8; }));
  EXPECT_EQ(held(), 8u);
  opener.open();
  for (auto& miss : misses) {
    const std::optional<net::Frame> reply = miss.get();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, net::FrameType::kSolveReply) << reply->payload;
  }
  EXPECT_EQ(owner.stats().completed, 8u);
}

TEST(KeyFirst, StopReturnsWhileASolveHoldsAMissResponder) {
  // A miss's responder waits in the engine behind a gated solve. stop()
  // waits only for readers and pool tasks, so it returns; the server is
  // then destroyed, and the solve that finishes afterwards answers a
  // responder that writes nothing and touches nothing freed.
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  ServiceConfig config = small_config();
  config.registry = &registry;
  SolveService owner(config);
  ThreadPool pool(1);
  auto server = net::FrameServer::start(0, make_fabric_handler(owner), pool);
  ASSERT_NE(server, nullptr);
  net::MuxFrameClient client("127.0.0.1", server->port());
  GateOpener opener(gate);

  const auto [request, key] = forwarded(hom_instance(), "gated");
  auto miss = client.call_async(solve_frame(encode_wire_request(request, key)));
  ASSERT_TRUE(eventually([&] { return owner.stats().submitted == 1; }));

  auto stopped = std::async(std::launch::async, [&server] { server->stop(); });
  const bool returned = stopped.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  EXPECT_TRUE(returned) << "stop() waited for a solve";
  if (returned) server.reset();
  opener.open();
  stopped.get();
  server.reset();
  owner.wait_idle();
  EXPECT_EQ(owner.stats().completed, 1u);
  // The connection closed at stop(); no answer ever reached the client.
  EXPECT_FALSE(miss.get().has_value());
}

TEST(WireCodec, PeerListParses) {
  const auto peers =
      parse_peer_list("127.0.0.1:7000,node-b:7001,10.0.0.3:7002");
  ASSERT_TRUE(peers.has_value());
  ASSERT_EQ(peers->size(), 3u);
  EXPECT_EQ((*peers)[0].host, "127.0.0.1");
  EXPECT_EQ((*peers)[0].port, 7000);
  EXPECT_EQ((*peers)[1].host, "node-b");
  EXPECT_EQ((*peers)[2].port, 7002);

  EXPECT_FALSE(parse_peer_list("").has_value());
  EXPECT_FALSE(parse_peer_list("no-port,127.0.0.1:1").has_value());
  EXPECT_FALSE(parse_peer_list("host:0").has_value());
  EXPECT_FALSE(parse_peer_list("host:99999").has_value());
  EXPECT_FALSE(parse_peer_list("host:76o1").has_value());  // trailing junk
}

// ------------------------------------------------------------ shard router

/// Latency bounds >= 1000 are effectively unconstrained for the tiny
/// test instances, so varying them mints distinct *solvable* cache keys;
/// this scans for one whose key the router assigns to `shard`.
solver::Bounds bounds_on_shard(const ShardRouter& router,
                               const Instance& instance,
                               const std::string& solver_name,
                               std::size_t shard, double salt = 0.0) {
  const CanonicalInstance canonical = canonicalize(instance);
  for (double latency = 1000.0 + salt; latency < 2000.0 + salt;
       latency += 1.0) {
    solver::Bounds bounds;
    bounds.latency_bound = latency;
    if (router.shard_of(request_key(canonical, solver_name, bounds)) ==
        shard) {
      return bounds;
    }
  }
  ADD_FAILURE() << "no bounds found for shard " << shard;
  return {};
}

TEST(ShardRouterTest, WorldOfOneNeverTouchesTheNetwork) {
  SolveService service(small_config());
  RouterConfig config;
  config.world_size = 1;
  ShardRouter router(service, config);
  const SolveReply reply =
      router.submit(SolveRequest{hom_instance(), "heur-p", {}}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().local, 1u);
  EXPECT_EQ(router.stats().forwarded, 0u);
}

TEST(ShardRouterTest, FoundingPeersAgreeOnTheRingWithoutAFrame) {
  // Three routers built from one founding peers list, heartbeats off:
  // each bootstraps the same epoch-1 view, so they agree on every key's
  // owner before a single frame crosses the wire.
  constexpr std::size_t kWorld = 3;
  ThreadPool server_pool(2);
  std::vector<std::unique_ptr<net::FrameServer>> servers;
  std::vector<PeerAddress> peers;
  for (std::size_t r = 0; r < kWorld; ++r) {
    servers.push_back(net::FrameServer::start(
        0,
        [](net::Frame request, net::Responder& respond) {
          respond.send(std::move(request));
        },
        server_pool));
    ASSERT_NE(servers.back(), nullptr);
    peers.push_back(PeerAddress{"127.0.0.1", servers.back()->port()});
  }
  std::vector<std::unique_ptr<SolveService>> services;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  for (std::size_t r = 0; r < kWorld; ++r) {
    RouterConfig config;
    config.world_size = kWorld;
    config.rank = r;
    config.peers = peers;
    config.heartbeat_interval_seconds = 0.0;
    services.push_back(std::make_unique<SolveService>(small_config()));
    routers.push_back(std::make_unique<ShardRouter>(*services.back(), config));
  }

  std::vector<std::size_t> owned(kWorld, 0);
  for (int i = 0; i < 10000; ++i) {
    const CanonicalHash key = fingerprint("founding-key-" + std::to_string(i));
    const std::size_t owner = routers[0]->shard_of(key);
    ASSERT_LT(owner, kWorld);
    ++owned[owner];
    for (std::size_t r = 1; r < kWorld; ++r) {
      ASSERT_EQ(routers[r]->shard_of(key), owner) << "key " << i;
    }
  }
  for (std::size_t r = 0; r < kWorld; ++r) {
    EXPECT_GT(owned[r], 0u) << "rank " << r << " owns nothing";
    const MembershipView view = routers[r]->membership_view();
    EXPECT_EQ(view.epoch, 1u);
    ASSERT_EQ(view.members.size(), kWorld);
    for (std::size_t m = 0; m < kWorld; ++m) {
      EXPECT_EQ(view.members[m].rank, m);
      EXPECT_EQ(view.members[m].port, peers[m].port);
    }
    EXPECT_TRUE(routers[r]->distributed());
    EXPECT_EQ(servers[r]->stats().connections, 0u);
    EXPECT_EQ(servers[r]->stats().frames, 0u);
  }
}

TEST(ShardRouterTest, RemoteShardForwardedSolvedOnceCachedOnOwner) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config;
  config.world_size = 2;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", server->port()}};
  // Replica tier off: this test pins the *owner-cache* forwarding path
  // a repeat takes when replication cannot absorb it
  // (tests/test_fabric_replication.cpp covers the replica tier).
  config.replica.capacity_bytes = 0;
  ShardRouter router(local, config);

  const Instance instance = hom_instance();
  SolveRequest request{instance, "heur-p",
                       bounds_on_shard(router, instance, "heur-p", 1)};

  // Cold: forwarded, solved by the owner, not a hit anywhere.
  const SolveReply cold = router.submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(router.stats().forwarded, 1u);
  EXPECT_EQ(router.stats().local, 0u);
  EXPECT_EQ(remote.stats().submitted, 1u);
  EXPECT_EQ(local.stats().submitted, 0u);

  // Repeat: forwarded again and answered from the owner's cache.
  const SolveReply warm = router.submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(router.stats().forwarded, 2u);
  EXPECT_EQ(router.stats().forward_hits, 1u);
  EXPECT_EQ(remote.stats().cache_hits, 1u);
  // Bit-identical replay through the wire.
  EXPECT_EQ(warm.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);

  // A local-shard request never leaves the process.
  SolveRequest local_request{instance, "heur-p",
                             bounds_on_shard(router, instance, "heur-p", 0)};
  const SolveReply local_reply = router.submit(local_request).get();
  ASSERT_EQ(local_reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().local, 1u);
  EXPECT_EQ(local.stats().submitted, 1u);
}

TEST(ShardRouterTest, InFlightForwardsDeduplicate) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig remote_config;
  remote_config.threads = 2;
  remote_config.registry = &registry;
  SolveService local(small_config());
  SolveService remote(remote_config);
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config;
  config.world_size = 2;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", server->port()}};
  ShardRouter router(local, config);

  const Instance instance = hom_instance();
  SolveRequest request{instance, "gated",
                       bounds_on_shard(router, instance, "gated", 1)};

  // First submit opens the forward; the owner blocks on the gate, so
  // the identical second submit must attach, not forward again.
  std::future<SolveReply> first = router.submit(request);
  std::future<SolveReply> second = router.submit(request);
  EXPECT_EQ(router.stats().deduplicated, 1u);
  gate.set_value();

  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  EXPECT_EQ(router.stats().forwarded, 1u);
  EXPECT_EQ(remote.stats().submitted, 1u);  // one network solve total
}

TEST(ShardRouterTest, IsomorphicTwinsGetOwnLabelsThroughForward) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config;
  config.world_size = 2;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", server->port()}};
  ShardRouter router(local, config);

  // Isomorphic instances share one canonical key, hence one shard.
  const Instance original = het_instance();
  const Instance permuted = het_instance_permuted();
  const solver::Bounds bounds = bounds_on_shard(router, original, "heur-p", 1);

  const SolveReply first =
      router.submit(SolveRequest{original, "heur-p", bounds}).get();
  const SolveReply second =
      router.submit(SolveRequest{permuted, "heur-p", bounds}).get();
  ASSERT_EQ(first.status, ReplyStatus::kSolved);
  ASSERT_EQ(second.status, ReplyStatus::kSolved);
  EXPECT_EQ(first.key, second.key);
  EXPECT_TRUE(second.cache_hit);  // owner answered the twin from cache
  // Metrics are label-invariant and bit-identical; each mapping is
  // valid on its *own* platform.
  EXPECT_EQ(first.solution->metrics, second.solution->metrics);
  EXPECT_FALSE(
      first.solution->mapping.validate(original.platform).has_value());
  EXPECT_FALSE(
      second.solution->mapping.validate(permuted.platform).has_value());
}

TEST(ShardRouterTest, PeerDeathDegradesToLocalSolveWithoutErrors) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config;
  config.world_size = 2;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", server->port()}};
  config.client.connect_timeout_seconds = 0.5;
  config.client.backoff_initial_seconds = 0.05;
  ShardRouter router(local, config);

  const Instance instance = hom_instance();
  const SolveReply before =
      router
          .submit(SolveRequest{instance, "heur-p",
                               bounds_on_shard(router, instance, "heur-p", 1)})
          .get();
  ASSERT_EQ(before.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().forwarded, 1u);

  // Kill the peer mid-run: remote-shard keys must degrade to local
  // solves, statuses stay clean.
  server->stop();
  const SolveReply after =
      router
          .submit(SolveRequest{instance, "heur-p",
                               bounds_on_shard(router, instance, "heur-p", 1,
                                               /*salt=*/5000.0)})
          .get();
  ASSERT_EQ(after.status, ReplyStatus::kSolved);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.forward_failures, 1u);
  EXPECT_EQ(stats.local_fallbacks, 1u);
  EXPECT_GE(local.stats().submitted, 1u);
  EXPECT_TRUE(router.peer_suspect(1));
}

TEST(ShardRouterTest, FailoverHoldsNoForwardPoolThread) {
  // The owner is unreachable, the forward pool has one thread, and the
  // local solver is gated. Every failed forward is still re-submitted
  // to the local engine at once, from the thread that saw the failure:
  // none waits for a pool thread held by an earlier rescue solve.
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  ServiceConfig service_config = small_config();
  service_config.registry = &registry;
  SolveService local(service_config);
  std::uint16_t dead_port = 0;
  {
    ThreadPool pool(1);
    auto gone = net::FrameServer::start(
        0, [](net::Frame, net::Responder&) {}, pool);
    ASSERT_NE(gone, nullptr);
    dead_port = gone->port();
  }

  RouterConfig config;
  config.world_size = 2;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", dead_port}};
  config.forward_threads = 1;
  config.heartbeat_interval_seconds = 0.0;
  config.client.connect_timeout_seconds = 0.5;
  ShardRouter router(local, config);
  GateOpener opener(gate);

  const Instance instance = hom_instance();
  std::vector<std::future<SolveReply>> replies;
  for (int i = 0; i < 4; ++i) {
    replies.push_back(router.submit(SolveRequest{
        instance, "gated",
        bounds_on_shard(router, instance, "gated", 1, 1000.0 * i)}));
  }
  EXPECT_TRUE(eventually([&] { return local.stats().submitted == 4; }));
  EXPECT_EQ(local.stats().submitted, 4u);
  opener.open();
  for (auto& reply : replies) {
    EXPECT_EQ(reply.get().status, ReplyStatus::kSolved);
  }
  EXPECT_EQ(router.stats().local_fallbacks, 4u);
}

// ------------------------------------------------- campaign x service

scenario::CampaignSpec small_campaign(bool het) {
  scenario::CampaignSpec spec;
  spec.name = "fusion-test";
  spec.instances = 2;
  spec.repetitions = 1;
  spec.seed = 7;
  spec.chain.task_count = 6;
  spec.platform.kind =
      het ? scenario::PlatformKind::kHet : scenario::PlatformKind::kHom;
  spec.platform.processors = 4;
  spec.sweep.kind = scenario::SweepKind::kPeriod;
  spec.sweep.lo = 40.0;
  spec.sweep.hi = 120.0;
  spec.sweep.step = 40.0;
  spec.solvers = {"heur-p", "heur-l"};
  return spec;
}

std::string figure_tsv(const scenario::CampaignResult& result) {
  std::ostringstream out;
  scenario::write_tsv(out, result.figure);
  return out.str();
}

TEST(CampaignFusion, MatchesPlainCampaignOnHomogeneousPlatform) {
  const scenario::CampaignSpec spec = small_campaign(/*het=*/false);
  scenario::CampaignConfig config;
  config.threads = 2;
  const scenario::CampaignResult plain =
      scenario::run_campaign(spec, config);

  ServiceConfig service_config;
  service_config.threads = 2;
  SolveService service(service_config);
  const scenario::CampaignResult fused =
      run_campaign_via_service(spec, service);

  // Homogeneous canonicalization is the identity, so the fused sweep is
  // byte-identical to the classic engine's.
  EXPECT_EQ(figure_tsv(fused), figure_tsv(plain));
  EXPECT_EQ(fused.jobs, plain.jobs);
  EXPECT_GT(service.stats().submitted, 0u);
}

TEST(CampaignFusion, WarmServiceReplaysByteIdentical) {
  const scenario::CampaignSpec spec = small_campaign(/*het=*/true);
  ServiceConfig service_config;
  service_config.threads = 2;
  SolveService service(service_config);

  const std::string cold = figure_tsv(run_campaign_via_service(spec, service));
  const auto cold_hits = service.stats().cache_hits;
  const std::string warm = figure_tsv(run_campaign_via_service(spec, service));

  // The second sweep is served from the cross-run cache and still
  // reproduces the exact bytes (cache replay is bit-identical).
  EXPECT_EQ(warm, cold);
  EXPECT_GT(service.stats().cache_hits, cold_hits);
}

TEST(CampaignFusion, UnknownSolverThrowsLikeTheClassicEngine) {
  scenario::CampaignSpec spec = small_campaign(false);
  spec.solvers = {"definitely-not-a-solver"};
  ServiceConfig config;
  config.threads = 1;
  SolveService service(config);
  EXPECT_THROW(run_campaign_via_service(spec, service),
               std::invalid_argument);
}

// ------------------------------------------------- one counter system

/// (registry counter name, snapshot field value) for each counter field
/// of a stats snapshot.
using CounterFields = std::vector<std::pair<std::string, std::uint64_t>>;

CounterFields engine_fields(const EngineStats& s) {
  return {{"engine_requests_total", s.submitted},
          {"engine_completed_total", s.completed},
          {"engine_cache_hits_total", s.cache_hits},
          {"engine_dominating_hits_total", s.dominating_hits},
          {"engine_warm_started_total", s.warm_started},
          {"engine_solver_invocations_total", s.solver_invocations},
          {"engine_deduplicated_total", s.deduplicated},
          {"engine_batches_total", s.batches},
          {"engine_batched_requests_total", s.batched_requests},
          {"engine_downgraded_total", s.downgraded},
          {"engine_rejected_queue_total", s.rejected_queue},
          {"engine_rejected_deadline_total", s.rejected_deadline},
          {"engine_errors_total", s.errors}};
}

CounterFields router_fields(const RouterStats& s) {
  return {{"router_local_total", s.local},
          {"router_forwarded_total", s.forwarded},
          {"router_forward_hits_total", s.forward_hits},
          {"router_forward_failures_total", s.forward_failures},
          {"router_local_fallbacks_total", s.local_fallbacks},
          {"router_deduplicated_total", s.deduplicated},
          {"router_replica_hits_total", s.replica_hits},
          {"router_prefetched_total", s.prefetched},
          {"router_gossip_sent_total", s.gossip_sent},
          {"router_gossip_failures_total", s.gossip_failures},
          {"router_gossip_received_total", s.gossip_received}};
}

CounterFields membership_fields(const MembershipStats& s) {
  return {{"membership_joins_total", s.joins},
          {"membership_deaths_total", s.deaths},
          {"membership_suspects_total", s.suspects},
          {"membership_handoffs_started_total", s.handoffs_started},
          {"membership_handoffs_completed_total", s.handoffs_completed},
          {"membership_handoff_chunks_sent_total", s.handoff_chunks_sent},
          {"membership_handoff_chunks_received_total",
           s.handoff_chunks_received},
          {"membership_handoff_entries_sent_total", s.handoff_entries_sent},
          {"membership_handoff_entries_received_total",
           s.handoff_entries_received},
          {"membership_double_writes_total", s.double_writes}};
}

/// Every field must read exactly its registry counter; the names of the
/// fields that moved are added to `moved`.
void expect_registry_backed(const obs::Registry& metrics,
                            const CounterFields& fields,
                            std::set<std::string>& moved) {
  const obs::RegistrySnapshot snapshot = metrics.snapshot();
  for (const auto& [name, value] : fields) {
    const auto it = snapshot.counters.find(name);
    ASSERT_NE(it, snapshot.counters.end()) << name;
    EXPECT_EQ(it->second, value) << name;
    if (value > 0) moved.insert(name);
  }
}

/// The `metrics` exposition of `service`, which must hold no sample of
/// the retired prts_* re-export.
void expect_one_naming_scheme(SolveService& service) {
  std::ostringstream exposition;
  write_metrics_text(exposition, service);
  EXPECT_NE(exposition.str().find("engine_requests_total"), std::string::npos);
  EXPECT_EQ(exposition.str().find("prts_"), std::string::npos);
}

TEST(OneCounterSystem, EngineStatsReadTheRegistry) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  solver::register_builtin_solvers(registry);
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  config.max_queue_depth = 3;
  SolveService engine(config);  // no telemetry configured: it owns one
  const Instance instance = hom_instance();

  // A cold solve, an exact hit, a dominating hit, and a looser request
  // warm-started from the cached answers.
  SolveRequest loose{instance, "exact", {}};
  loose.bounds.period_bound = 100.0;
  const SolveReply cold = engine.submit(loose).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  ASSERT_TRUE(engine.submit(loose).get().cache_hit);
  SolveRequest tight = loose;
  tight.bounds.period_bound = cold.solution->metrics.worst_period + 1.0;
  ASSERT_TRUE(engine.submit(tight).get().near_miss);
  SolveRequest looser = loose;
  looser.bounds.period_bound = 1000.0;
  ASSERT_EQ(engine.submit(looser).get().status, ReplyStatus::kSolved);

  // Behind a gated worker: a batch of two, a dedup twin, and a queue
  // rejection once three requests are outstanding.
  std::future<SolveReply> blocker =
      engine.submit(SolveRequest{het_instance(), "gated", {}});
  SolveRequest gated{instance, "gated", {}};
  SolveRequest gated_tight = gated;
  gated_tight.bounds.period_bound = 1e-3;
  std::future<SolveReply> first = engine.submit(gated);
  std::future<SolveReply> twin = engine.submit(gated);
  std::future<SolveReply> second = engine.submit(gated_tight);
  SolveRequest overflow = gated;
  overflow.bounds.period_bound = 50.0;
  EXPECT_EQ(engine.submit(overflow).get().status,
            ReplyStatus::kRejectedQueue);
  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(first.get().status, ReplyStatus::kSolved);
  EXPECT_TRUE(twin.get().deduplicated);
  EXPECT_EQ(second.get().status, ReplyStatus::kInfeasible);

  // Expired deadlines, downgraded and rejected, and an unknown solver.
  SolveRequest late{het_instance(), "exact", {}, 0.0,
                    DeadlinePolicy::kDowngrade};
  EXPECT_TRUE(engine.submit(late).get().downgraded);
  late.deadline_policy = DeadlinePolicy::kReject;
  EXPECT_EQ(engine.submit(late).get().status, ReplyStatus::kRejectedDeadline);
  EXPECT_EQ(engine.submit(SolveRequest{instance, "no-such-solver", {}})
                .get()
                .status,
            ReplyStatus::kError);

  engine.wait_idle();
  std::set<std::string> moved;
  expect_registry_backed(engine.telemetry().metrics,
                         engine_fields(engine.stats()), moved);
  EXPECT_EQ(moved.size(), engine_fields({}).size());
  expect_one_naming_scheme(engine);
}

TEST(OneCounterSystem, RouterAndMembershipStatsReadTheRegistry) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  solver::register_builtin_solvers(registry);
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));
  testing::FabricHarness::Options options;
  options.world = 2;
  options.elastic = true;
  options.service.threads = 2;
  options.service.registry = &registry;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 10.0;
  options.router.client.backoff_initial_seconds = 0.05;
  options.router.heartbeat_interval_seconds = 0.05;
  options.router.membership.suspect_after_seconds = 0.4;
  options.router.membership.dead_after_seconds = 0.8;
  testing::FabricHarness harness(options);
  const Instance instance = hom_instance();
  double salt = 0.0;
  const auto owned_by = [&](std::size_t owner,
                            const std::string& solver = "heur-p") {
    salt += 100.0;  // one fresh key per call
    return SolveRequest{
        instance, solver,
        harness.bounds_on_rank(instance, solver, owner, salt)};
  };
  const auto status = [](ShardRouter& router, const SolveRequest& request) {
    return router.submit(request).get().status;
  };
  ShardRouter& entry = harness.router(0);

  // Router dedup: the owner's gated solve holds the forward in flight.
  const SolveRequest held = owned_by(1, "gated");
  std::future<SolveReply> forward = entry.submit(held);
  std::future<SolveReply> attached = entry.submit(held);
  gate.set_value();
  EXPECT_EQ(forward.get().status, ReplyStatus::kSolved);
  EXPECT_TRUE(attached.get().deduplicated);

  // Local solves (one of them hot), a forwarded miss, a forwarded hit
  // on a key the owner cached itself, then a replica hit on it.
  const SolveRequest hot_local = owned_by(0);
  ASSERT_EQ(status(entry, hot_local), ReplyStatus::kSolved);
  ASSERT_EQ(status(entry, hot_local), ReplyStatus::kSolved);
  for (int i = 0; i < 24; ++i) {
    ASSERT_EQ(status(entry, owned_by(0)), ReplyStatus::kSolved);
  }
  ASSERT_EQ(status(entry, owned_by(1)), ReplyStatus::kSolved);
  const SolveRequest shared = owned_by(1);
  ASSERT_EQ(status(harness.router(1), shared), ReplyStatus::kSolved);
  EXPECT_TRUE(entry.submit(shared).get().cache_hit);
  EXPECT_TRUE(entry.submit(shared).get().cache_hit);

  // Gossip: a key hot on its owner is pushed to the peer.
  const SolveRequest hot_remote = owned_by(1);
  ASSERT_EQ(status(harness.router(1), hot_remote), ReplyStatus::kSolved);
  ASSERT_EQ(status(harness.router(1), hot_remote), ReplyStatus::kSolved);
  harness.router(1).gossip_now();

  // A join streams the newcomer its slice.
  const std::size_t joined = harness.add_rank();
  harness.wait_for_members(3);
  entry.wait_handoffs_idle();
  harness.router(1).wait_handoffs_idle();

  // A double write: rank 0 serves a key the ring now assigns to the
  // newcomer.
  std::optional<CanonicalHash> migrated;
  for (const CanonicalHash& key : harness.service(0).cache().keys()) {
    if (entry.shard_of(key) == joined) migrated = key;
  }
  ASSERT_TRUE(migrated.has_value());
  entry.note_served(*migrated);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (entry.membership_stats().double_writes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // A dead server: gossip to it fails, and a forward to it fails over.
  harness.kill(1);
  entry.gossip_now();
  ASSERT_EQ(status(entry, owned_by(1)), ReplyStatus::kSolved);

  std::set<std::string> moved;
  const auto check = [&](std::size_t r) {
    obs::Registry& metrics = harness.telemetry(r).metrics;
    expect_registry_backed(metrics, engine_fields(harness.service(r).stats()),
                           moved);
    expect_registry_backed(metrics, router_fields(harness.router(r).stats()),
                           moved);
    const MembershipStats membership = harness.router(r).membership_stats();
    expect_registry_backed(metrics, membership_fields(membership), moved);
    EXPECT_EQ(metrics.gauge("membership_epoch").value(),
              static_cast<double>(membership.epoch));
    EXPECT_EQ(metrics.gauge("membership_members").value(),
              static_cast<double>(membership.members));
    expect_one_naming_scheme(harness.service(r));
  };
  for (std::size_t r = 0; r < harness.world(); ++r) check(r);

  // A departure: the survivors suspect, then bury, the silent rank.
  const std::uint64_t epoch = entry.epoch();
  harness.retire(1);
  harness.wait_for_members(2, /*timeout_seconds=*/10.0, epoch + 1);
  check(0);
  check(joined);

  for (const CounterFields& fields :
       {router_fields({}), membership_fields({})}) {
    for (const auto& [name, zero] : fields) {
      EXPECT_TRUE(moved.count(name)) << name << " never moved";
    }
  }
}

}  // namespace
}  // namespace prts::service
