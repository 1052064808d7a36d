// The request engine: cache hits replay bit-identical solutions,
// isomorphic requests share entries, in-flight twins deduplicate,
// compatible requests batch onto one prepared session, and admission
// control rejects or downgrades. Plus the distributed fabric above it:
// wire codec round trips, shard routing, forward dedup, peer-death
// degradation, and the campaign x service fusion.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "eval/evaluation.hpp"
#include "net/frame_server.hpp"
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

/// A solver that blocks until the test opens its gate — the lever for
/// deterministic dedup/batching tests. Delegates the actual answer to
/// heur-p so solutions are real.
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
  // their batch finally runs.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});

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

TEST(SolveService, TightDeadlineBatchIsPickedBeforePatientBacklog) {
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

  // Occupy the worker so the next two batches queue up behind it; wait
  // until it has actually committed to the blocker's batch.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "recording", {}});
  for (int spin = 0; spin < 2000; ++spin) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      if (!order.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // FIFO would run `patient` (4 tasks, submitted first, no deadline)
  // before `urgent` (2 tasks, submitted second, 30s deadline) — and
  // under real backlog the urgent request would expire in the queue.
  // Deadline-aware pickup must flip the order.
  std::vector<Task> two_tasks{{10.0, 1.0}, {5.0, 0.0}};
  const Instance small{TaskChain(std::move(two_tasks)),
                       Platform::homogeneous(3, 1.0, 1e-8, 1.0, 1e-5, 2)};
  std::future<SolveReply> patient =
      service.submit(SolveRequest{hom_instance(), "recording", {}});
  std::future<SolveReply> urgent = service.submit(
      SolveRequest{small, "recording", {}, 30.0, DeadlinePolicy::kReject});

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(patient.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(urgent.get().status, ReplyStatus::kSolved);

  // Solve order: blocker (3 tasks), then urgent (2), then patient (4).
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 4u);
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

TEST(WireCodec, GarbageIsRejectedWithReason) {
  std::string error;
  EXPECT_FALSE(decode_wire_request("not a request", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_wire_reply("junk\n", error).has_value());
  EXPECT_FALSE(
      decode_wire_request("prts-solve-request v1\nsolver\n", error)
          .has_value());
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
        0, [](const net::Frame& f) -> std::optional<net::Frame> { return f; },
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

}  // namespace
}  // namespace prts::service
