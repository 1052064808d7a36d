// Soak: a 3-rank fabric under ~11 seconds of open-loop load with a
// chaos thread continuously injecting faults (frame drops, pause/resume
// freezes, rank kill + revive). The acceptance bar is the ISSUE's: zero
// stuck waiters (every future resolves), every request answered or
// explicitly rejected (no kError leaks from failover), zero watchdog
// stall episodes on any rank, and the flight recorder's window is
// non-empty and spans the fault period — the run is reconstructable
// after the fact.
#include "fabric_harness.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "load/arrivals.hpp"
#include "load/generator.hpp"
#include "model/generator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"
#include "service/protocol.hpp"

namespace prts::service {
namespace {

using testing::FabricHarness;

constexpr double kSoakSeconds = 11.0;

TEST(FabricSoak, OpenLoopSurvivesContinuousFaultInjection) {
  FabricHarness::Options options;
  options.world = 3;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 5.0;
  options.router.client.backoff_initial_seconds = 0.05;
  FabricHarness fabric(options);

  // Watchdogs armed on every rank, flight recorder ticking on rank 0.
  obs::WatchdogConfig watchdog_config;  // 2s stall threshold
  for (std::size_t r = 0; r < fabric.world(); ++r) {
    fabric.telemetry(r).watchdog.start(watchdog_config);
  }
  obs::FlightRecorderConfig recorder_config;
  recorder_config.interval_seconds = 0.25;
  fabric.telemetry(0).recorder.configure(recorder_config);
  fabric.telemetry(0).recorder.start();

  std::vector<Instance> instances;
  for (std::size_t k = 0; k < 8; ++k) {
    Rng rng(6000 + k);
    ChainConfig chain_config;
    chain_config.task_count = 8;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(4, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  // Chaos: one thread, seeded, cycling drop / pause+resume / kill+revive
  // against ranks 1 and 2. Kills never overlap a pause (the harness
  // forbids stopping a server while frames sit at the pause gate), and
  // every fault is healed before the next is injected, so faults are
  // continuous but the world is eventually whole.
  std::atomic<bool> chaos_stop{false};
  std::atomic<std::uint64_t> faults_injected{0};
  std::thread chaos([&] {
    std::mt19937 rng(1234);
    std::uniform_int_distribution<int> pick_rank(1, 2);
    std::uniform_int_distribution<int> pick_fault(0, 2);
    std::uniform_int_distribution<int> pick_sleep_ms(250, 600);
    while (!chaos_stop.load()) {
      const std::size_t rank = static_cast<std::size_t>(pick_rank(rng));
      switch (pick_fault(rng)) {
        case 0:
          fabric.faults(rank).drop_next(3);
          break;
        case 1:
          fabric.faults(rank).pause();
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          fabric.faults(rank).resume();
          break;
        default:
          fabric.kill(rank);
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          fabric.revive(rank);
          break;
      }
      ++faults_injected;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(pick_sleep_ms(rng)));
    }
  });

  load::ArrivalConfig arrival_config;
  arrival_config.rate = 150;
  arrival_config.duration_seconds = kSoakSeconds;
  arrival_config.key_count = 8;
  arrival_config.seed = 97;
  const load::LoadTrace trace = load::generate_arrivals(arrival_config);
  const load::RunResult result = load::run_open_loop(
      trace, instances, [&fabric](SolveRequest request) {
        return fabric.router(0).submit(std::move(request));
      });

  chaos_stop.store(true);
  chaos.join();
  fabric.telemetry(0).recorder.stop();

  // Every request resolved, and resolved to an answer or an explicit
  // rejection — failover swallowed the faults.
  EXPECT_EQ(result.submitted, trace.events.size());
  EXPECT_EQ(result.unresolved, 0u) << "stuck waiters";
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.answered + result.rejected, result.submitted);
  EXPECT_GT(result.answered, 0u);
  EXPECT_GT(faults_injected.load(), 5u);

  // No component on any rank ever stalled.
  for (std::size_t r = 0; r < fabric.world(); ++r) {
    fabric.telemetry(r).watchdog.check();
    EXPECT_EQ(fabric.telemetry(r).watchdog.stalls_total(), 0u)
        << "rank " << r;
  }

  // The flight recorder's window is non-empty and covers the faults:
  // many ticks, spanning most of the soak, with the load visible in the
  // per-tick counter deltas.
  const std::vector<obs::FlightRecorder::Tick> ticks =
      fabric.telemetry(0).recorder.recent();
  ASSERT_GE(ticks.size(), 8u);
  EXPECT_GE(ticks.back().uptime_seconds - ticks.front().uptime_seconds,
            0.6 * kSoakSeconds);
  std::uint64_t recorded_requests = 0;
  for (const obs::FlightRecorder::Tick& tick : ticks) {
    const auto it = tick.counter_deltas.find("engine_requests_total");
    if (it != tick.counter_deltas.end()) recorded_requests += it->second;
  }
  EXPECT_GT(recorded_requests, 0u);

  // And the same window is reachable over the line protocol.
  std::istringstream script("timeseries 5\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(script, out, fabric.service(0)).protocol_errors, 0u);
  EXPECT_NE(out.str().find("# tick seq="), std::string::npos);
  EXPECT_NE(out.str().find("# timeseries end"), std::string::npos);
}

// Elastic membership under open-loop load: a 3-rank elastic fleet
// serves a paced arrival stream while a 4th rank joins mid-run and an
// original rank is retired (true process death) mid-run. The bar: every
// future resolves (zero stuck waiters), zero kError leaks (failover +
// the membership transition window absorb both reshapes), at least 99%
// of the offered requests are answered, the epoch only ever advances,
// the survivors converge on the 3-member view, and every answer minted
// before the chaos replays byte-identically after.
TEST(FabricSoak, ElasticJoinAndDeathUnderOpenLoopLoad) {
  FabricHarness::Options options;
  options.world = 3;
  options.elastic = true;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 5.0;
  options.router.client.backoff_initial_seconds = 0.05;
  options.router.heartbeat_interval_seconds = 0.05;
  options.router.membership.suspect_after_seconds = 0.4;
  options.router.membership.dead_after_seconds = 0.8;
  FabricHarness fabric(options);

  // References resolved up front: add_rank() grows the harness's rank
  // vector mid-run, so concurrent threads must not walk it.
  ShardRouter& router0 = fabric.router(0);
  ShardRouter& router2 = fabric.router(2);

  std::vector<Instance> instances;
  for (std::size_t k = 0; k < 8; ++k) {
    Rng rng(6100 + k);
    ChainConfig chain_config;
    chain_config.task_count = 8;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(4, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  // Answers minted before any reshape — the byte-identity baseline.
  std::vector<SolveRequest> pinned;
  std::vector<SolveReply> first;
  for (int i = 0; i < 9; ++i) {
    pinned.push_back(SolveRequest{
        instances[static_cast<std::size_t>(i) % instances.size()], "heur-p",
        fabric.bounds_on_rank(instances[static_cast<std::size_t>(i) %
                                        instances.size()],
                              "heur-p", static_cast<std::size_t>(i) % 3,
                              50.0 * i)});
    first.push_back(router0.submit(pinned.back()).get());
    ASSERT_EQ(first.back().status, ReplyStatus::kSolved);
  }

  // Epoch watcher: membership may only ever move forward, sampled
  // continuously on two ranks that live through the whole run.
  std::atomic<bool> watch_stop{false};
  std::atomic<bool> epoch_monotone{true};
  std::thread watcher([&] {
    std::uint64_t last0 = router0.epoch();
    std::uint64_t last2 = router2.epoch();
    while (!watch_stop.load()) {
      const std::uint64_t now0 = router0.epoch();
      const std::uint64_t now2 = router2.epoch();
      if (now0 < last0 || now2 < last2) epoch_monotone.store(false);
      last0 = now0;
      last2 = now2;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // The membership chaos script: one join, one death, both mid-load.
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    fabric.add_rank();  // rank 3 dials rank 0, slices stream to it
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    fabric.retire(1);  // an original rank dies for good
  });

  load::ArrivalConfig arrival_config;
  arrival_config.rate = 120;
  arrival_config.duration_seconds = 4.0;
  arrival_config.key_count = 8;
  arrival_config.seed = 131;
  const load::LoadTrace trace = load::generate_arrivals(arrival_config);
  const load::RunResult result = load::run_open_loop(
      trace, instances, [&router0](SolveRequest request) {
        return router0.submit(std::move(request));
      });

  chaos.join();
  // Let the survivors finish detecting the death, then freeze the view.
  fabric.wait_for_members(3);
  watch_stop.store(true);
  watcher.join();

  // The open-loop bar, unchanged by elasticity: every future resolved,
  // every request answered or explicitly rejected, no error leaks.
  EXPECT_EQ(result.submitted, trace.events.size());
  EXPECT_EQ(result.unresolved, 0u) << "stuck waiters";
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.answered + result.rejected, result.submitted);
  EXPECT_GT(result.answered, 0u);
  // Availability through the reshape: a join plus a death may cost at
  // most 1% of the offered requests.
  EXPECT_GE(result.answered * 100, result.submitted * 99)
      << result.answered << " of " << result.submitted << " answered";
  EXPECT_TRUE(epoch_monotone.load());

  // Survivors agree: 3 members (0, 2, 3), one join and one death seen.
  for (ShardRouter* router : {&router0, &router2}) {
    const MembershipStats stats = router->membership_stats();
    EXPECT_EQ(stats.members, 3u);
    EXPECT_GE(stats.joins, 1u);
    EXPECT_GE(stats.deaths, 1u);
  }
  EXPECT_FALSE(fabric.alive(1));

  // Every pre-chaos answer replays byte-identically from whoever owns
  // the key now — handed-off, double-written, replicated or re-solved.
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const SolveReply replay = router0.submit(pinned[i]).get();
    ASSERT_EQ(replay.status, ReplyStatus::kSolved) << "pinned " << i;
    ASSERT_TRUE(replay.solution.has_value());
    EXPECT_EQ(replay.solution->mapping, first[i].solution->mapping);
    EXPECT_EQ(replay.solution->metrics, first[i].solution->metrics);
    EXPECT_EQ(replay.key, first[i].key);
  }
}

// A slow-but-alive peer (rank 1 sleeps every inbound frame at the
// harness gate, well under the watchdog's stall bar). The requester's
// profiler must attribute the stretch as *blocked* time on
// wire_round_trip — the forward thread off-CPU waiting on the peer —
// and not as work on its local solver, which never ran for these keys.
TEST(FabricSoak, SlowPeerAttributesBlockedTimeToWireNotSolver) {
  FabricHarness::Options options;
  options.world = 2;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 10.0;
  options.router.client.backoff_initial_seconds = 0.05;
  FabricHarness fabric(options);

  Rng rng(7300);
  ChainConfig chain_config;
  chain_config.task_count = 8;
  const Instance instance{
      random_chain(rng, chain_config),
      Platform::homogeneous(4, paper::kHomSpeed, paper::kProcessorFailureRate,
                            paper::kBandwidth, paper::kLinkFailureRate,
                            paper::kMaxReplication)};

  constexpr double kPeerDelaySeconds = 0.25;
  constexpr int kForwards = 4;
  fabric.faults(1).delay(kPeerDelaySeconds);
  for (int i = 0; i < kForwards; ++i) {
    SolveRequest request{
        instance, "heur-p",
        fabric.bounds_on_rank(instance, "heur-p", /*owner=*/1, i * 16.0)};
    const SolveReply reply = fabric.router(0).submit(request).get();
    ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  }
  fabric.faults(1).delay(0.0);

  double wire_blocked = 0.0;
  double solver_blocked = 0.0;
  std::uint64_t wire_samples = 0;
  for (const obs::Profiler::ComponentStats& component :
       fabric.telemetry(0).profiler.stats()) {
    if (component.name == "wire_round_trip") {
      wire_blocked = component.blocked_seconds;
      wire_samples = component.samples;
    }
    if (component.name == "solver_run") {
      solver_blocked = component.blocked_seconds;
    }
  }
  EXPECT_EQ(wire_samples, static_cast<std::uint64_t>(kForwards));
  // Every forward absorbed at least the injected gate delay off-CPU.
  EXPECT_GT(wire_blocked, 0.8 * kPeerDelaySeconds * kForwards);
  // The stall did NOT attribute to local compute: these keys were
  // solved by the owner, so rank 0's solver shows at most noise.
  EXPECT_LT(solver_blocked, 0.5 * wire_blocked);
}

}  // namespace
}  // namespace prts::service
