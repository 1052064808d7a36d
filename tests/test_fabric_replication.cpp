// Hot-entry replication and gossip prefetch over the in-process fabric
// harness: repeat remote-shard hits are absorbed by the replica tier
// (byte-identically), TTLs expire, the replica cache stays bounded,
// gossip digests trigger prefetches, and rank death — mid-gossip or
// mid-forward with dedup waiters attached — degrades cleanly with
// exactly one local failover solve.
#include "fabric_harness.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <thread>
#include <utility>

#include "service/wire.hpp"

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

// ---------------------------------------------------- gossip prefetch

TEST(FabricGossip, PeersPrefetchHotKeysAfterDigest) {
  FabricHarness harness(fast_options(3));
  const Instance instance = hom_instance();

  // Make one of rank 1's own keys hot *on rank 1* (two local hits cross
  // the default gossip_min_hits).
  const SolveRequest hot = remote_request(harness, instance, 1);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);
  ASSERT_EQ(harness.router(1).submit(hot).get().status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(1).stats().local, 2u);

  // One gossip round: rank 1 announces the key to ranks 0 and 2, which
  // prefetch it in the background.
  harness.router(1).gossip_now();
  EXPECT_EQ(harness.router(1).stats().gossip_sent, 2u);
  harness.router(0).wait_prefetches_idle();
  harness.router(2).wait_prefetches_idle();
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

  // A single hit stays below gossip_min_hits: nothing to announce, no
  // digest goes out.
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
  harness.router(0).wait_prefetches_idle();
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

  // Rank 1 dies before the round; the digest to it fails fast, the
  // digest to rank 2 still lands and is acted upon.
  harness.kill(1);
  harness.router(0).gossip_now();
  const RouterStats stats = harness.router(0).stats();
  EXPECT_EQ(stats.gossip_sent, 1u);
  EXPECT_EQ(stats.gossip_failures, 1u);
  harness.router(2).wait_prefetches_idle();
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

// ------------------------------------------------- gossip wire codecs

TEST(GossipWire, DigestRoundTrips) {
  GossipDigest digest;
  digest.rank = 3;
  digest.entries.push_back({fingerprint("key-a"), 17});
  digest.entries.push_back({fingerprint("key-b"), 2});

  std::string error;
  const auto decoded =
      decode_gossip_digest(encode_gossip_digest(digest), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->rank, 3u);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].key, digest.entries[0].key);
  EXPECT_EQ(decoded->entries[0].hits, 17u);
  EXPECT_EQ(decoded->entries[1].key, digest.entries[1].key);

  EXPECT_FALSE(decode_gossip_digest("junk", error).has_value());
  EXPECT_FALSE(
      decode_gossip_digest("prts-gossip v1\nrank 0\nkeys 2\n", error)
          .has_value());  // truncated list
}

TEST(GossipWire, ReplicaFetchRoundTrips) {
  const std::vector<CanonicalHash> keys{fingerprint("x"), fingerprint("y")};
  std::string error;
  const auto decoded =
      decode_replica_fetch(encode_replica_fetch(keys), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, keys);

  EXPECT_FALSE(decode_replica_fetch("nope", error).has_value());
  EXPECT_FALSE(
      decode_replica_fetch("prts-replica-fetch v1\nkeys x\n", error)
          .has_value());
}

TEST(GossipWire, ReplicaEntriesRoundTripBitIdentically) {
  // A real solution entry: solve once, ship the cached solution.
  ServiceConfig config;
  config.threads = 1;
  SolveService service(config);
  const SolveReply reply =
      service.submit(SolveRequest{hom_instance(), "heur-p", {}}).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  const auto cached = service.cache().peek(reply.key);
  ASSERT_TRUE(cached.has_value());

  std::vector<std::pair<CanonicalHash, CachedSolution>> entries;
  entries.emplace_back(reply.key, *cached);
  entries.emplace_back(fingerprint("infeasible"), CachedSolution{});

  std::string error;
  const auto decoded =
      decode_replica_entries(encode_replica_entries(entries), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].first, reply.key);
  ASSERT_TRUE((*decoded)[0].second.solution.has_value());
  EXPECT_EQ((*decoded)[0].second.solution->mapping,
            cached->solution->mapping);
  EXPECT_EQ((*decoded)[0].second.solution->metrics,
            cached->solution->metrics);
  EXPECT_FALSE((*decoded)[1].second.solution.has_value());
}

}  // namespace
}  // namespace prts::service
