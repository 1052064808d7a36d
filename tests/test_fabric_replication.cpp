// Hot-entry replication and gossip pushes over the in-process fabric
// harness: repeat remote-shard hits are absorbed by the replica tier
// (byte-identically), TTLs expire, the replica cache stays bounded,
// gossip pushes land in peers' replica tiers, and rank death — mid-
// gossip or mid-forward with dedup waiters attached — degrades cleanly
// with exactly one local failover solve. Plus the kEntries codec every
// push, handoff chunk and double-write travels in.
#include "fabric_harness.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <thread>
#include <utility>

#include "service/wire.hpp"
#include "solver/registry.hpp"

namespace prts::service {
namespace {

using testing::FabricHarness;

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

FabricHarness::Options fast_options(std::size_t world) {
  FabricHarness::Options options;
  options.world = world;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 10.0;
  options.router.client.backoff_initial_seconds = 0.05;
  return options;
}

SolveRequest remote_request(FabricHarness& harness, const Instance& instance,
                            std::size_t owner, double salt = 0.0) {
  return SolveRequest{instance, "heur-p",
                      harness.bounds_on_rank(instance, "heur-p", owner, salt)};
}

// ------------------------------------------------------- replica tier

TEST(FabricReplication, RepeatRemoteHitServedFromReplicaByteIdentically) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  SolveRequest request = remote_request(harness, instance, /*owner=*/1);

  // Cold: forwarded to the owner, solved there, replicated here.
  const SolveReply cold = harness.router(0).submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);
  EXPECT_EQ(harness.service(1).stats().submitted, 1u);

  // Repeat: answered from the replica tier — zero network round trips,
  // the owner's engine never hears about it.
  const SolveReply warm = harness.router(0).submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  const RouterStats stats = harness.router(0).stats();
  EXPECT_EQ(stats.forwarded, 1u);  // unchanged
  EXPECT_EQ(stats.replica_hits, 1u);
  EXPECT_EQ(harness.service(1).stats().submitted, 1u);  // unchanged

  // The acceptance guarantee: the replica answer replays the owner's
  // answer bit-for-bit — same mapping, exactly equal metric doubles.
  ASSERT_TRUE(warm.solution.has_value());
  EXPECT_EQ(warm.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(warm.key, cold.key);
}

TEST(FabricReplication, InfeasibleAnswersReplicateToo) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  solver::Bounds impossible;
  impossible.period_bound = 1e-3;  // unreachable
  const SolveRequest request{
      instance, "heur-p",
      harness.bounds_on_rank(instance, "heur-p", 1, 0.0, impossible)};

  EXPECT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kInfeasible);
  const SolveReply warm = harness.router(0).submit(request).get();
  EXPECT_EQ(warm.status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(harness.router(0).stats().replica_hits, 1u);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);
}

TEST(FabricReplication, ReplicaTtlExpiryForwardsAgain) {
  FabricHarness::Options options = fast_options(2);
  options.router.replica.ttl_seconds = 0.05;
  FabricHarness harness(options);
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, 1);

  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);

  // Let the TTL lapse: the replica is stale, the repeat pays the
  // network again (and re-replicates).
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().forwarded, 2u);
  EXPECT_EQ(harness.router(0).stats().replica_hits, 0u);
  EXPECT_GE(harness.router(0).replica_stats().expirations, 1u);

  // Within the fresh TTL the repeat is a replica hit again.
  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().forwarded, 2u);
  EXPECT_EQ(harness.router(0).stats().replica_hits, 1u);
}

TEST(FabricReplication, ReplicaCacheStaysWithinItsByteBudget) {
  FabricHarness::Options options = fast_options(2);
  // Room for only a handful of ~200-byte entries.
  options.router.replica.capacity_bytes = 1000;
  FabricHarness harness(options);
  const Instance instance = hom_instance();

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(harness.router(0)
                  .submit(remote_request(harness, instance, 1,
                                         /*salt=*/i * 5000.0))
                  .get()
                  .status,
              ReplyStatus::kSolved);
  }
  const ReplicaStats stats = harness.router(0).replica_stats();
  EXPECT_EQ(stats.insertions, 10u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LT(stats.entries, 10u);
  EXPECT_LE(stats.bytes, 1000u);
}

TEST(FabricReplication, KilledRankReplicatedKeysAreStillServed) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, 1);

  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  harness.kill(1);

  // The replicated key survives its owner's death...
  const SolveReply warm = harness.router(0).submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(harness.router(0).stats().replica_hits, 1u);
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 0u);

  // ...and a fresh key owned by the dead rank degrades to a clean
  // local solve.
  const SolveReply fresh =
      harness.router(0)
          .submit(remote_request(harness, instance, 1, /*salt=*/9000.0))
          .get();
  ASSERT_EQ(fresh.status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 1u);
  EXPECT_TRUE(harness.router(0).peer_suspect(1));
}

// ------------------------------------------------------- gossip push

TEST(FabricGossip, PeersPrefetchHotKeysAfterDigest) {
  FabricHarness harness(fast_options(3));
  const Instance instance = hom_instance();

  // Make one of rank 1's own keys hot *on rank 1* (two local hits cross
  // the default gossip_min_hits).
  const SolveRequest hot = remote_request(harness, instance, 1);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(1).stats().local, 2u);

  // One gossip round: rank 1 pushes the entry to ranks 0 and 2, which
  // file it in their replica tiers before they ack.
  harness.router(1).gossip_now();
  EXPECT_EQ(harness.router(1).stats().gossip_sent, 2u);
  EXPECT_EQ(harness.router(0).stats().gossip_received, 1u);
  EXPECT_EQ(harness.router(0).stats().prefetched, 1u);
  EXPECT_EQ(harness.router(2).stats().prefetched, 1u);

  // The first request for the hot key on rank 0 never touches the
  // network: the prefetched replica answers it.
  const SolveReply reply = harness.router(0).submit(hot).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_TRUE(reply.cache_hit);
  const RouterStats stats = harness.router(0).stats();
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.replica_hits, 1u);
}

TEST(FabricGossip, ColdKeysAreNotGossiped) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();

  // A single hit stays below gossip_min_hits: nothing is hot, no push
  // goes out.
  ASSERT_EQ(harness.router(1)
                .submit(remote_request(harness, instance, 1))
                .get()
                .status,
            ReplyStatus::kSolved);
  harness.router(1).gossip_now();
  EXPECT_EQ(harness.router(1).stats().gossip_sent, 0u);
  EXPECT_EQ(harness.router(0).stats().gossip_received, 0u);
}

TEST(FabricGossip, GossipTimerRunsRoundsWithoutExplicitCalls) {
  FabricHarness::Options options = fast_options(2);
  options.router.gossip_interval_seconds = 0.05;
  FabricHarness harness(options);
  const Instance instance = hom_instance();

  const SolveRequest hot = remote_request(harness, instance, 1);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);

  // The timer must pick the hot key up within a few intervals.
  for (int spin = 0; spin < 100; ++spin) {
    if (harness.router(0).stats().prefetched >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(harness.router(0).stats().prefetched, 1u);
  EXPECT_TRUE(harness.router(0)
                  .submit(remote_request(harness, instance, 1))
                  .get()
                  .cache_hit);
}

TEST(FabricGossip, RankDeathMidGossipDegradesCleanly) {
  FabricHarness harness(fast_options(3));
  const Instance instance = hom_instance();

  const SolveRequest hot = remote_request(harness, instance, /*owner=*/0);
  ASSERT_EQ(harness.router(0).submit(hot).get().status, ReplyStatus::kSolved);
  ASSERT_EQ(harness.router(0).submit(hot).get().status, ReplyStatus::kSolved);

  // Rank 1 dies before the round; the push to it fails fast, the push
  // to rank 2 still lands.
  harness.kill(1);
  harness.router(0).gossip_now();
  const RouterStats stats = harness.router(0).stats();
  EXPECT_EQ(stats.gossip_sent, 1u);
  EXPECT_EQ(stats.gossip_failures, 1u);
  EXPECT_EQ(harness.router(2).stats().prefetched, 1u);
  EXPECT_TRUE(harness.router(2).submit(hot).get().cache_hit);
}

// ------------------------------------------ dedup failover regression

TEST(FabricFailover, InFlightDedupWaitersFailOverExactlyOnce) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  SolveRequest patient = remote_request(harness, instance, 1);
  SolveRequest impatient = patient;
  impatient.deadline_seconds = 0.0;
  impatient.deadline_policy = DeadlinePolicy::kReject;

  // Hold the owner: the first submit's forward stays in flight while
  // the second attaches as a router-level dedup waiter.
  harness.faults(1).pause();
  std::future<SolveReply> first = harness.router(0).submit(impatient);
  std::future<SolveReply> second = harness.router(0).submit(patient);
  EXPECT_EQ(harness.router(0).stats().deduplicated, 1u);

  // The owner swallows the forward (a death mid-exchange): the
  // connection closes without a reply and the forward fails over.
  harness.faults(1).drop_next(1);
  harness.faults(1).resume();

  const SolveReply a = first.get();
  const SolveReply b = second.get();
  // The patient waiter must be solved — before the per-waiter failover
  // fix it inherited the impatient first submitter's (deadline 0,
  // reject) options and was wrongly rejected.
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_TRUE(b.deduplicated);
  // The impatient waiter gets its own policy's outcome: rejected, or
  // solved if the shared answer was computed before its expiry check.
  EXPECT_TRUE(a.status == ReplyStatus::kSolved ||
              a.status == ReplyStatus::kRejectedDeadline);
  EXPECT_FALSE(a.deduplicated);

  // Exactly one local solve, and the dead owner's engine never ran.
  EXPECT_EQ(harness.service(0).cache_stats().insertions, 1u);
  EXPECT_EQ(harness.service(1).stats().submitted, 0u);
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 1u);
  EXPECT_EQ(harness.faults(1).dropped(), 1u);
}

TEST(FabricFailover, RevivedRankServesAgainAfterBackoff) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();

  harness.kill(1);
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1))
                .get()
                .status,
            ReplyStatus::kSolved);  // degraded locally
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 1u);

  harness.revive(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // backoff
  const SolveReply reply =
      harness.router(0)
          .submit(remote_request(harness, instance, 1, /*salt=*/7000.0))
          .get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);
  EXPECT_GE(harness.service(1).stats().submitted, 1u);
}

// ------------------------------------------- pipelined forwards (mux)

TEST(FabricMux, ConcurrentForwardsPipelineOnOneConnection) {
  FabricHarness::Options options = fast_options(2);
  options.router.forward_threads = 8;
  FabricHarness harness(options);
  const Instance instance = hom_instance();
  // A slightly slow owner, so the eight forwards genuinely overlap on
  // the wire instead of winning the race one at a time.
  harness.faults(1).delay(0.05);

  std::vector<std::future<SolveReply>> futures;
  for (int i = 0; i < 8; ++i) {
    // Disjoint salt windows guarantee eight distinct request keys.
    futures.push_back(harness.router(0).submit(
        remote_request(harness, instance, 1, /*salt=*/i * 5000.0)));
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (auto& future : futures) {
    const SolveReply reply = future.get();
    ASSERT_EQ(reply.status, ReplyStatus::kSolved);
    ASSERT_TRUE(reply.solution.has_value());
    keys.insert({reply.key.hi, reply.key.lo});
  }
  // Eight distinct answers for eight distinct keys — correlation by
  // request id, not arrival order.
  EXPECT_EQ(keys.size(), 8u);
  EXPECT_EQ(harness.router(0).stats().forwarded, 8u);
  EXPECT_EQ(harness.service(1).stats().submitted, 8u);
  // All of it rode ONE TCP connection to the owner...
  EXPECT_EQ(harness.telemetry(1)
                .metrics.counter("net_server_connections_total")
                .value(),
            1u);
  // ...with several exchanges in flight at once on that connection.
  for (const auto& [rank, stats] : harness.router(0).client_stats()) {
    if (rank == 1) {
      EXPECT_GT(stats.max_inflight, 1u);
    }
  }
}

TEST(FabricMux, ForwardsHoldNoPoolThreadWhileOnTheWire) {
  // One forward-pool thread, a slow owner: forwards overlap on the wire
  // only if none of them parks a pool thread for its round trip.
  constexpr double kDelaySeconds = 0.05;
  constexpr int kForwards = 8;
  FabricHarness::Options options = fast_options(2);
  options.router.forward_threads = 1;
  options.server_threads = kForwards + 4;  // the owner may overlap all
  FabricHarness harness(options);
  const Instance instance = hom_instance();
  // Connect before the owner slows down: the timed window is forwards
  // only.
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1, /*salt=*/100000.0))
                .get()
                .status,
            ReplyStatus::kSolved);
  harness.faults(1).delay(kDelaySeconds);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<SolveReply>> futures;
  for (int i = 0; i < kForwards; ++i) {
    futures.push_back(harness.router(0).submit(
        remote_request(harness, instance, 1, /*salt=*/i * 5000.0)));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().status, ReplyStatus::kSolved);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  harness.faults(1).delay(0.0);

  EXPECT_EQ(harness.router(0).stats().forwarded,
            static_cast<std::uint64_t>(kForwards) + 1);
  for (const auto& [rank, stats] : harness.router(0).client_stats()) {
    if (rank == 1) {
      EXPECT_GE(stats.max_inflight, static_cast<std::uint64_t>(kForwards));
    }
  }
  // Serialized behind one pool thread they would take kForwards delays.
  EXPECT_LT(elapsed, 0.5 * kForwards * kDelaySeconds);
}

TEST(FabricFailover, RetiringTheOriginFailsItsForwardsOverPromptly) {
  FabricHarness::Options options = fast_options(2);
  options.router.client.reply_timeout_seconds = 10.0;
  FabricHarness harness(options);
  const Instance instance = hom_instance();
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1, /*salt=*/100000.0))
                .get()
                .status,
            ReplyStatus::kSolved);  // connected

  // The owner holds every frame: four forwards stay in flight.
  harness.faults(1).pause();
  std::vector<std::future<SolveReply>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(harness.router(0).submit(
        remote_request(harness, instance, 1, /*salt=*/i * 5000.0)));
  }
  const auto start = std::chrono::steady_clock::now();
  harness.retire(0);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
              std::future_status::ready);
    // Failed over to the origin's own engine, which outlives its router.
    EXPECT_EQ(future.get().status, ReplyStatus::kSolved);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 1.0);  // not the 10 s reply timeout
  EXPECT_EQ(harness.service(1).stats().submitted, 1u);  // only the warm-up
  harness.faults(1).resume();
}

// ------------------------------------ failover deadline-budget charge

TEST(FabricFailover, FailoverChargesElapsedTimeAgainstTheDeadline) {
  FabricHarness::Options options = fast_options(2);
  // The forward must burn longer on the wire than the waiter's whole
  // deadline: reply timeout 0.2s > deadline 0.15s.
  options.router.client.reply_timeout_seconds = 0.2;
  FabricHarness harness(options);
  const Instance instance = hom_instance();

  // Warm the connection first so negotiation is out of the way, then
  // wedge the owner: every inbound frame sleeps 1s at the gate.
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1, /*salt=*/9000.0))
                .get()
                .status,
            ReplyStatus::kSolved);
  harness.faults(1).delay(1.0);

  SolveRequest request = remote_request(harness, instance, 1);
  request.deadline_seconds = 0.15;
  request.deadline_policy = DeadlinePolicy::kReject;
  const SolveReply reply = harness.router(0).submit(request).get();

  // By the time the forward fails over (~0.2s), the 0.15s deadline is
  // already spent. The local fallback must be charged the elapsed time
  // — zero budget remains, so a kReject waiter is rejected. Before the
  // fix, failover re-granted the full deadline and this tiny instance
  // solved instantly, hiding the SLO breach.
  EXPECT_EQ(reply.status, ReplyStatus::kRejectedDeadline);
  EXPECT_GE(harness.router(0).stats().forward_failures, 1u);
}

// ------------------------------------------------- entries wire codec

/// A kEntries batch holding every entry shape: feasible with near-miss
/// metadata, feasible without, and infeasible.
EntryBatch three_entry_batch() {
  const auto solution =
      solver::SolverRegistry::builtin().find("heur-p")->solve(hom_instance(),
                                                              {});
  EntryBatch batch;
  batch.from = 2;
  batch.entries.emplace_back(
      fingerprint("indexed"),
      CachedSolution{solution, 0.25, fingerprint("instance"),
                     solver::Bounds{12.5, 99.0}});
  batch.entries.emplace_back(fingerprint("unindexed"),
                             CachedSolution{solution, 0.5});
  batch.entries.emplace_back(fingerprint("infeasible"),
                             CachedSolution{std::nullopt, 1.5});
  return batch;
}

TEST(EntriesWire, DecodeThenEncodeGivesTheSameBytes) {
  const EntryBatch batch = three_entry_batch();
  ASSERT_TRUE(batch.entries[0].second.solution.has_value());
  const std::string payload = encode_entries(batch);

  std::string error;
  const auto decoded = decode_entries(payload, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->from, 2u);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_EQ(decoded->entries[0].first, fingerprint("indexed"));
  EXPECT_TRUE(decoded->entries[0].second.indexable());
  EXPECT_EQ(decoded->entries[0].second.solution->metrics,
            batch.entries[0].second.solution->metrics);
  EXPECT_FALSE(decoded->entries[1].second.indexable());
  EXPECT_FALSE(decoded->entries[2].second.solution.has_value());
  EXPECT_EQ(decoded->entries[2].second.cost_seconds, 1.5);
  EXPECT_EQ(encode_entries(*decoded), payload);
}

TEST(EntriesWire, PrefixesAndCorruptLinesAreRefusedWithAReason) {
  const std::string payload = encode_entries(three_entry_batch());
  std::string error;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    error.clear();
    EXPECT_FALSE(
        decode_entries(std::string_view(payload).substr(0, cut), error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }

  // One line corrupted at a time: header, sender, count (too high and
  // too low), a bad key, and the pre-cost entry shapes (an infeasible
  // entry without its cost field, a feasible one likewise).
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < payload.size();) {
    const std::size_t newline = payload.find('\n', at);
    lines.push_back(payload.substr(at, newline - at));
    at = newline + 1;
  }
  ASSERT_EQ(lines.size(), 6u);
  const auto drop_last_field = [](const std::string& line) {
    return line.substr(0, line.rfind('\t'));
  };
  const std::vector<std::pair<std::size_t, std::string>> corruptions{
      {0, "prts-entries v2"},
      {1, "from x"},
      {2, "entries 4"},
      {2, "entries 2"},
      {3, "zz" + lines[3].substr(2)},
      {4, drop_last_field(lines[4])},
      {5, drop_last_field(lines[5])},
  };
  for (const auto& [index, corrupt] : corruptions) {
    std::string bad;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      bad += (i == index ? corrupt : lines[i]) + "\n";
    }
    error.clear();
    EXPECT_FALSE(decode_entries(bad, error)) << corrupt;
    EXPECT_FALSE(error.empty()) << corrupt;
  }
}

}  // namespace
}  // namespace prts::service
