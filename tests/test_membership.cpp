// The elastic membership layer, bottom to top: the consistent-hash
// ring's minimal-disruption and balance properties, the epoch-stamped
// anti-entropy protocol (join, union merge, higher-epoch adoption,
// self-rejoin, suspect -> dead ticks against injected clocks), the
// membership wire codecs, the background checkpointer, and the live
// fabric itself: a rank joining a serving fleet receives its whole ring
// slice by handoff, a retired rank is detected through silence, and
// answers stay byte-identical across every reshape.
#include "service/membership.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "eval/evaluation.hpp"
#include "fabric_harness.hpp"
#include "model/generator.hpp"
#include "service/checkpoint.hpp"
#include "service/ring.hpp"
#include "service/wire.hpp"

namespace prts::service {
namespace {

using testing::FabricHarness;

CanonicalHash key_of(int i) {
  return fingerprint("membership-key-" + std::to_string(i));
}

// ------------------------------------------------------------- ring

std::map<int, std::size_t> owners_under(const HashRing& ring, int keys) {
  std::map<int, std::size_t> owners;
  for (int i = 0; i < keys; ++i) owners[i] = ring.owner_of(key_of(i));
  return owners;
}

TEST(HashRing, IdenticalAcrossIndependentBuilds) {
  // Every rank computes the ring locally from the member set alone;
  // routing only works if the builds agree point for point.
  HashRing a;
  HashRing b;
  a.rebuild({0, 1, 2, 5});
  b.rebuild({5, 2, 1, 0});  // order must not matter
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.owner_of(key_of(i)), b.owner_of(key_of(i)));
  }
}

TEST(HashRing, JoinMovesKeysOnlyToTheNewMember) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  const auto before = owners_under(ring, 2000);
  ring.rebuild({0, 1, 2, 3});
  const auto after = owners_under(ring, 2000);
  std::size_t moved = 0;
  for (const auto& [key, owner] : after) {
    if (owner != before.at(key)) {
      ++moved;
      // Minimal disruption: a reassigned key may only have moved TO the
      // joiner, never between surviving members.
      EXPECT_EQ(owner, 3u);
    }
  }
  // The joiner takes roughly a quarter of the space — definitely some
  // keys, definitely not most of them (mod-world would reshuffle ~75%).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 1000u);
}

TEST(HashRing, LeaveMovesOnlyTheDepartedKeys) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  const auto before = owners_under(ring, 2000);
  ring.rebuild({0, 2});
  const auto after = owners_under(ring, 2000);
  for (const auto& [key, owner] : after) {
    if (before.at(key) != 1) {
      // A surviving member's keys never move on someone else's death.
      EXPECT_EQ(owner, before.at(key));
    } else {
      EXPECT_NE(owner, 1u);
    }
  }
}

TEST(HashRing, BalanceWithinTolerance) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  std::map<std::size_t, int> share;
  const int keys = 6000;
  for (int i = 0; i < keys; ++i) ++share[ring.owner_of(key_of(i))];
  ASSERT_EQ(share.size(), 3u);
  for (const auto& [rank, count] : share) {
    const double fraction = static_cast<double>(count) / keys;
    // Fair share is 1/3; 64 virtual nodes keep every member well inside
    // a factor-2 band of it.
    EXPECT_GT(fraction, 1.0 / 6.0) << "rank " << rank;
    EXPECT_LT(fraction, 2.0 / 3.0) << "rank " << rank;
  }
}

// ------------------------------------------------------- membership

Member member_at(std::size_t rank, std::uint16_t port = 9000) {
  Member member;
  member.rank = rank;
  member.host = "10.0.0." + std::to_string(rank + 1);
  member.port = port;
  return member;
}

Membership::Config fast_config(std::size_t self) {
  Membership::Config config;
  config.self_rank = self;
  config.suspect_after_seconds = 2.0;
  config.dead_after_seconds = 5.0;
  return config;
}

TEST(MembershipProtocol, BootstrapInstallsSelfAtEpochOne) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_EQ(membership.member_count(), 1u);
  EXPECT_TRUE(membership.contains(0));
}

TEST(MembershipProtocol, JoinBumpsEpochReannounceDoesNot) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});

  const auto joined = membership.handle_join(member_at(1));
  EXPECT_TRUE(joined.changed);
  ASSERT_EQ(joined.joined.size(), 1u);
  EXPECT_EQ(joined.joined[0].rank, 1u);
  EXPECT_EQ(membership.epoch(), 2u);

  // The same announcement again: heartbeat refresh, nothing changes.
  const auto again = membership.handle_join(member_at(1));
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(membership.epoch(), 2u);

  // Same rank, new address: a restarted process — treated as a fresh
  // joiner (handoff re-triggers; entries are immutable so that is safe).
  const auto restarted = membership.handle_join(member_at(1, 9001));
  EXPECT_TRUE(restarted.changed);
  EXPECT_EQ(membership.epoch(), 3u);
  EXPECT_EQ(membership.member(1)->port, 9001);
}

TEST(MembershipProtocol, JoinClaimingSelfRankIsIgnored) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});
  // A duplicate --rank in the fleet must not overwrite our own record.
  const auto changes = membership.handle_join(member_at(0, 4242));
  EXPECT_FALSE(changes.changed);
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_EQ(membership.member(0)->port, 9000);
}

TEST(MembershipProtocol, EqualEpochViewsMergeByUnion) {
  // Two ranks each admitted a different joiner at the same epoch; a
  // view exchange converges both without an epoch-bump race.
  Membership a(fast_config(0));
  Membership b(fast_config(1));
  a.bootstrap({member_at(0), member_at(1)});
  b.bootstrap({member_at(0), member_at(1)});
  a.handle_join(member_at(2));  // a is at epoch 2 with {0,1,2}
  b.handle_join(member_at(3));  // b is at epoch 2 with {0,1,3}

  const auto merged_b = b.handle_update(a.view());
  EXPECT_TRUE(merged_b.changed);
  EXPECT_EQ(b.member_count(), 4u);
  const auto merged_a = a.handle_update(b.view());
  EXPECT_TRUE(merged_a.changed);
  EXPECT_EQ(a.member_count(), 4u);
  EXPECT_EQ(a.view().members, b.view().members);
}

TEST(MembershipProtocol, HigherEpochAdoptedLowerIgnored) {
  Membership a(fast_config(0));
  Membership b(fast_config(1));
  a.bootstrap({member_at(0), member_at(1)});
  b.bootstrap({member_at(0), member_at(1)});
  a.handle_join(member_at(2));
  a.handle_join(member_at(3));  // a: epoch 3

  EXPECT_TRUE(b.handle_update(a.view()).changed);
  EXPECT_EQ(b.epoch(), 3u);
  EXPECT_EQ(b.member_count(), 4u);

  // A stale view (b's old epoch-1 shape) changes nothing on a.
  MembershipView stale;
  stale.epoch = 1;
  stale.members = {member_at(0), member_at(1)};
  EXPECT_FALSE(a.handle_update(stale).changed);
  EXPECT_EQ(a.member_count(), 4u);
}

TEST(MembershipProtocol, DroppedSelfRejoinsAboveIncomingEpoch) {
  Membership membership(fast_config(2));
  membership.bootstrap({member_at(0), member_at(1), member_at(2)});

  // The fleet moved on without us (we were silent past dead_after).
  MembershipView without_us;
  without_us.epoch = 7;
  without_us.members = {member_at(0), member_at(1)};
  const auto changes = membership.handle_update(without_us);
  EXPECT_TRUE(changes.changed);
  EXPECT_TRUE(changes.rejoined_self);
  EXPECT_TRUE(membership.contains(2));
  // Bumped PAST the incoming epoch so our presence wins the next
  // exchange instead of being adopted away again.
  EXPECT_EQ(membership.epoch(), 8u);
}

TEST(MembershipProtocol, SilenceSuspectsThenRemoves) {
  const auto t0 = Membership::Clock::now();
  const auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<Membership::Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0), member_at(1), member_at(2)}, t0);
  const std::uint64_t epoch_before = membership.epoch();

  // Rank 1 keeps talking, rank 2 goes silent.
  membership.note_heard_from(1, at(2.5));
  auto ticked = membership.tick(at(3.0));
  ASSERT_EQ(ticked.suspected.size(), 1u);
  EXPECT_EQ(ticked.suspected[0], 2u);
  EXPECT_TRUE(ticked.died.empty());
  EXPECT_TRUE(membership.is_suspect(2));
  EXPECT_EQ(membership.epoch(), epoch_before);  // suspects stay in the ring

  // A suspect that speaks again is cleared — slow is not dead.
  membership.note_heard_from(2, at(3.5));
  EXPECT_FALSE(membership.is_suspect(2));

  // Then it really dies: silent past dead_after, removed, epoch bump.
  membership.note_heard_from(1, at(8.0));
  ticked = membership.tick(at(9.0));
  ASSERT_EQ(ticked.died.size(), 1u);
  EXPECT_EQ(ticked.died[0], 2u);
  EXPECT_FALSE(membership.contains(2));
  EXPECT_EQ(membership.epoch(), epoch_before + 1);
  EXPECT_EQ(membership.member_count(), 2u);
}

// ------------------------------------------------------------ codecs

TEST(MembershipWire, JoinRequestRoundTrip) {
  const Member member = member_at(3, 7777);
  std::string error;
  const auto decoded = decode_join_request(encode_join_request(member), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, member);

  EXPECT_FALSE(decode_join_request("prts-join v9\n", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(MembershipWire, MembershipUpdateRoundTrip) {
  MembershipUpdate update;
  update.from = 2;
  update.view.epoch = 41;
  update.view.members = {member_at(0), member_at(2, 8081), member_at(5)};
  std::string error;
  const auto decoded =
      decode_membership_update(encode_membership_update(update), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->from, 2u);
  EXPECT_EQ(decoded->view, update.view);
}

TEST(MembershipWire, DecodersAreTheEncodersExactInverses) {
  // Seeded views and join requests decode to what was encoded, and
  // re-encode to the same bytes.
  Rng rng(25);
  for (int trial = 0; trial < 64; ++trial) {
    MembershipUpdate update;
    update.from = static_cast<std::size_t>(rng.uniform_int(0, 100));
    update.view.epoch = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    std::size_t rank = static_cast<std::size_t>(rng.uniform_int(0, 3));
    for (std::int64_t m = rng.uniform_int(0, 8); m > 0; --m) {
      update.view.members.push_back(member_at(
          rank, static_cast<std::uint16_t>(rng.uniform_int(1, 65535))));
      rank += static_cast<std::size_t>(rng.uniform_int(1, 4));
    }
    std::string error;
    const std::string payload = encode_membership_update(update);
    const auto decoded = decode_membership_update(payload, error);
    ASSERT_TRUE(decoded.has_value()) << error << "\n" << payload;
    EXPECT_EQ(decoded->from, update.from);
    EXPECT_EQ(decoded->view, update.view);
    EXPECT_EQ(encode_membership_update(*decoded), payload);

    const Member member = member_at(
        rank, static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
    const std::string join = encode_join_request(member);
    const auto joined = decode_join_request(join, error);
    ASSERT_TRUE(joined.has_value()) << error << "\n" << join;
    EXPECT_EQ(*joined, member);
    EXPECT_EQ(encode_join_request(*joined), join);
  }

  // Shapes no encoder writes.
  const std::string join = encode_join_request(member_at(3, 80));
  MembershipUpdate update;
  update.from = 2;
  update.view.epoch = 7;
  update.view.members = {member_at(0, 80), member_at(2, 81)};
  const std::string view = encode_membership_update(update);
  const auto replaced = [](std::string text, const std::string& from,
                           const std::string& to) {
    return text.replace(text.find(from), from.size(), to);
  };
  std::string error;
  for (const std::string& bad :
       {replaced(join, "port 80\n", "port 0080\n"), join + "rank 4\n",
        join.substr(0, join.size() - 1)}) {
    EXPECT_FALSE(decode_join_request(bad, error).has_value()) << bad;
  }
  for (const std::string& bad :
       {replaced(view, "\n0 80 ", "\n0 0080 "), view + "4 82 10.0.0.5\n",
        view.substr(0, view.size() - 1),
        replaced(view, "\n2 81 ", "\n0 81 ")}) {
    EXPECT_FALSE(decode_membership_update(bad, error).has_value()) << bad;
  }
}

// ------------------------------------------------------ checkpointer

Instance tiny_instance() {
  std::vector<Task> tasks{{5.0, 1.0}, {7.0, 0.0}};
  std::vector<Processor> procs{{1.0, 1e-8}, {1.0, 1e-8}, {1.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

CachedSolution feasible_entry(const Instance& instance) {
  Mapping mapping(IntervalPartition::single(2), {{0, 2}});
  const MappingMetrics metrics =
      evaluate(instance.chain, instance.platform, mapping);
  return CachedSolution{solver::Solution{std::move(mapping), metrics}};
}

std::string temp_checkpoint_path(const char* tag) {
  return ::testing::TempDir() + "prts_checkpoint_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

TEST(Checkpointer, SnapshotReloadsBitIdentically) {
  const Instance instance = tiny_instance();
  ShardedSolutionCache cache;
  const CachedSolution entry = feasible_entry(instance);
  cache.insert(key_of(10), entry);
  cache.insert(key_of(11), CachedSolution{});  // cached infeasible

  const std::string path = temp_checkpoint_path("roundtrip");
  Checkpointer::Config config;
  config.path = path;
  Checkpointer checkpointer(cache, config);  // no timer: interval 0
  std::string error;
  ASSERT_TRUE(checkpointer.checkpoint_now(&error)) << error;
  const Checkpointer::Stats stats = checkpointer.stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.last_entries, 2u);
  EXPECT_GT(stats.last_bytes, 0u);

  ShardedSolutionCache reloaded;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const auto result = reloaded.load_binary(in);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.loaded, 2u);
  const auto warm = reloaded.lookup(key_of(10));
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->solution.has_value());
  EXPECT_EQ(warm->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(warm->solution->metrics, entry.solution->metrics);
  ASSERT_TRUE(reloaded.lookup(key_of(11)).has_value());
  EXPECT_FALSE(reloaded.lookup(key_of(11))->solution.has_value());
  std::remove(path.c_str());
}

TEST(Checkpointer, FailedWriteKeepsThePreviousSnapshot) {
  ShardedSolutionCache cache;
  cache.insert(key_of(20), CachedSolution{});

  const std::string path = temp_checkpoint_path("atomic");
  {
    Checkpointer::Config config;
    config.path = path;
    Checkpointer good(cache, config);
    ASSERT_TRUE(good.checkpoint_now());
  }

  // A checkpointer pointed into a directory that does not exist fails
  // cleanly and counts it; the original file is untouched (the tmp +
  // rename discipline never opens the destination itself).
  Checkpointer::Config broken_config;
  broken_config.path = ::testing::TempDir() +
                       "prts_no_such_dir_xyzzy/checkpoint.bin";
  Checkpointer broken(cache, broken_config);
  std::string error;
  EXPECT_FALSE(broken.checkpoint_now(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(broken.stats().failures, 1u);

  ShardedSolutionCache reloaded;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(reloaded.load_binary(in).loaded, 1u);
  std::remove(path.c_str());
}

TEST(Checkpointer, IntervalTimerSnapshotsInTheBackground) {
  ShardedSolutionCache cache;
  cache.insert(key_of(30), CachedSolution{});
  const std::string path = temp_checkpoint_path("timer");
  Checkpointer::Config config;
  config.path = path;
  config.interval_seconds = 0.05;
  Checkpointer checkpointer(cache, config);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (checkpointer.stats().checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(checkpointer.stats().checkpoints, 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ live fabric

FabricHarness::Options elastic_options(std::size_t world) {
  FabricHarness::Options options;
  options.world = world;
  options.elastic = true;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 10.0;
  options.router.client.backoff_initial_seconds = 0.05;
  options.router.heartbeat_interval_seconds = 0.05;
  options.router.membership.suspect_after_seconds = 0.4;
  options.router.membership.dead_after_seconds = 0.8;
  return options;
}

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

TEST(ElasticFabric, FleetConvergesAndRoutesByRing) {
  FabricHarness harness(elastic_options(3));
  const Instance instance = hom_instance();
  for (std::size_t r = 0; r < 3; ++r) {
    const MembershipView view = harness.router(r).membership_view();
    EXPECT_EQ(view.members.size(), 3u) << "rank " << r;
    EXPECT_TRUE(harness.router(r).distributed());
  }
  // Ring agreement: every rank routes a key to the same owner.
  const SolveRequest request =
      harness.request_on_rank(instance, "heur-p", /*owner=*/1);
  const CanonicalHash key =
      request_key(canonicalize(request.instance), "heur-p", request.bounds);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(harness.router(r).shard_of(key), 1u);
  }
  // And the request is actually answered by its owner.
  const SolveReply reply = harness.router(0).submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.service(1).stats().submitted, 1u);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);
}

TEST(ElasticFabric, JoinStreamsHandoffAndAnswersStayByteIdentical) {
  FabricHarness harness(elastic_options(2));
  const Instance instance = hom_instance();

  // Warm both original ranks with answers across the keyspace.
  std::vector<SolveRequest> requests;
  std::vector<SolveReply> before;
  for (int i = 0; i < 24; ++i) {
    const std::size_t owner = static_cast<std::size_t>(i % 2);
    requests.push_back(
        harness.request_on_rank(instance, "heur-p", owner, 10.0 * i));
    before.push_back(harness.router(i % 2).submit(requests.back()).get());
    ASSERT_EQ(before.back().status, ReplyStatus::kSolved);
  }

  // Grow the fleet; the originals stream the joiner's slice to it.
  const std::size_t joined = harness.add_rank();
  harness.wait_for_members(3);
  harness.router(0).wait_handoffs_idle();
  harness.router(1).wait_handoffs_idle();

  std::uint64_t streamed = 0;
  for (std::size_t r = 0; r < 2; ++r) {
    const MembershipStats stats = harness.router(r).membership_stats();
    EXPECT_GE(stats.joins, 1u) << "rank " << r;
    streamed += stats.handoff_entries_sent;
  }
  const MembershipStats joiner = harness.router(joined).membership_stats();
  EXPECT_EQ(joiner.members, 3u);
  // The joiner owns ~1/3 of a 24-key working set; at least one entry
  // must have moved, and whatever was sent arrived.
  EXPECT_GE(streamed, 1u);
  EXPECT_GE(joiner.handoff_entries_received, 1u);
  EXPECT_GE(harness.service(joined).cache().stats().entries, 1u);

  // Every answer minted before the join replays byte-identically from
  // whoever owns the key now — including keys that migrated.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveReply after = harness.router(0).submit(requests[i]).get();
    ASSERT_EQ(after.status, ReplyStatus::kSolved);
    ASSERT_TRUE(after.solution.has_value());
    EXPECT_EQ(after.solution->mapping, before[i].solution->mapping);
    EXPECT_EQ(after.solution->metrics, before[i].solution->metrics);
    EXPECT_EQ(after.key, before[i].key);
  }
}

TEST(ElasticFabric, JoinMovesEveryBatchWhole) {
  // A key's owner is its batch's, so a join's handoff moves an
  // instance's sweep history whole: for every batch with any entry on
  // the joiner, the joiner holds every entry of it the fleet held.
  FabricHarness harness(elastic_options(2));
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    ChainConfig chain_config;
    chain_config.task_count = 5;
    const Instance instance{random_chain(rng, chain_config),
                            Platform::homogeneous(4, 1.0, 1e-8, 1.0, 1e-5, 2)};
    for (int step = 0; step < 4; ++step) {
      solver::Bounds bounds;
      bounds.latency_bound = 1000.0 + 100.0 * step;
      ASSERT_EQ(harness.router(seed % 2)
                    .submit(SolveRequest{instance, "heur-p", bounds})
                    .get()
                    .status,
                ReplyStatus::kSolved);
    }
  }
  // A rank's cached keys by batch: each entry records its batch key
  // (the near-miss metadata a solve and a handoff file it with).
  using ByBatch = std::map<CanonicalHash, std::set<CanonicalHash>>;
  const auto by_batch = [&harness](std::size_t rank, ByBatch& out) {
    const ShardedSolutionCache& cache = harness.service(rank).cache();
    for (const CanonicalHash& key : cache.keys()) {
      const auto entry = cache.peek(key);
      ASSERT_TRUE(entry && entry->instance_key);
      out[*entry->instance_key].insert(key);
    }
  };
  ByBatch fleet;
  by_batch(0, fleet);
  by_batch(1, fleet);

  const std::size_t joined = harness.add_rank();
  harness.wait_for_members(3);
  harness.router(0).wait_handoffs_idle();
  harness.router(1).wait_handoffs_idle();

  ByBatch moved;
  by_batch(joined, moved);
  EXPECT_FALSE(moved.empty());
  for (const auto& [batch, keys] : moved) {
    ASSERT_EQ(fleet.count(batch), 1u);
    EXPECT_EQ(keys, fleet.at(batch));
  }
}

TEST(ElasticFabric, JoinAfterPublishingReceivesTheWholeHandoff) {
  // A seed holding 64 entries, and a joiner wired the way serve wires
  // one: frame server first, router second, published to the handler
  // only after construction. The seed streams the joiner's slice the
  // moment it admits the join, so a router that dialed its seed while
  // being constructed, or from a heartbeat round before publication,
  // lost the stream to "membership disabled", and the same-epoch join
  // after publishing started none.
  FabricHarness harness(elastic_options(1));
  ShardRouter& seed = harness.router(0);
  const Instance instance = hom_instance();
  for (int i = 0; i < 64; ++i) {
    solver::Bounds bounds;
    bounds.latency_bound = 1000.0 + i;
    ASSERT_EQ(seed.submit(SolveRequest{instance, "heur-p", bounds})
                  .get()
                  .status,
              ReplyStatus::kSolved);
  }

  obs::Telemetry telemetry;
  telemetry.rank = 1;
  ServiceConfig service_config;
  service_config.threads = 2;
  service_config.telemetry = &telemetry;
  SolveService service(service_config);
  ThreadPool server_pool(4);
  std::atomic<ShardRouter*> published{nullptr};
  auto server = net::FrameServer::start(
      0,
      make_fabric_handler(service, [&published] { return published.load(); }),
      server_pool, net::kDefaultMaxPayload, &telemetry.metrics,
      &telemetry.watchdog, &telemetry.profiler);
  ASSERT_TRUE(server);
  RouterConfig config = elastic_options(1).router;
  config.rank = 1;
  config.advertise = PeerAddress{"127.0.0.1", server->port()};
  config.join_seed = PeerAddress{"127.0.0.1", harness.port(0)};
  config.heartbeat_interval_seconds = 0.0;  // no timer dials the seed
  config.telemetry = &telemetry;
  auto joiner = std::make_unique<ShardRouter>(service, config);
  joiner->heartbeat_now();  // a timer round before publication
  seed.wait_handoffs_idle();
  published.store(joiner.get());
  EXPECT_TRUE(joiner->join_now());
  seed.wait_handoffs_idle();

  const std::uint64_t sent = seed.membership_stats().handoff_entries_sent;
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(joiner->membership_stats().handoff_entries_received, sent);

  published.store(nullptr);
  server->stop();
  joiner.reset();
}

TEST(ElasticFabric, RetiredRankIsDetectedAndEpochAdvances) {
  FabricHarness harness(elastic_options(3));
  const std::uint64_t epoch_before = harness.router(0).epoch();

  harness.retire(1);
  harness.wait_for_members(2, /*timeout_seconds=*/10.0,
                           /*min_epoch=*/epoch_before + 1);

  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    const MembershipStats stats = harness.router(r).membership_stats();
    EXPECT_EQ(stats.members, 2u) << "rank " << r;
    EXPECT_GE(stats.deaths, 1u) << "rank " << r;
    EXPECT_GE(stats.suspects, 1u) << "rank " << r;
    EXPECT_GT(stats.epoch, epoch_before) << "rank " << r;
  }

  // The shrunken fleet still answers; the dead rank owns nothing.
  const Instance instance = hom_instance();
  const SolveRequest request =
      harness.request_on_rank(instance, "heur-p", /*owner=*/2);
  EXPECT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  const CanonicalHash key =
      request_key(canonicalize(request.instance), "heur-p", request.bounds);
  EXPECT_NE(harness.router(0).shard_of(key), 1u);
}

}  // namespace
}  // namespace prts::service
