// The shard router (top of the distributed solve fabric): N cooperating
// `prts_cli serve` processes present one logical cache whose capacity
// scales with N, by partitioning the canonical-hash keyspace over the
// consistent-hash ring of the current membership view
//
//   shard(key) = Membership::owner_of(key)
//
// Every fleet is a membership fleet (service/membership.hpp): a
// founding `peers` list bootstraps the view at epoch 1 on every rank
// (no exchange needed to agree on the ring), `join_seed` lets a rank
// enter a running fleet, and heartbeats detect deaths — so a fixed
// fleet and a reshaping one route through the same code.
//
// A submitted request is canonicalized once; keys this rank owns go
// straight to the local SolveService, keys owned by a peer are
// forwarded over a per-peer MuxFrameClient (one connection carries
// many in-flight forwards, replies correlated by request id) as
// the *canonical* instance plus its key (so the remote answer comes
// back in canonical labels and each waiter translates into its own).
// A forward holds no thread of its own at either end: submit() encodes
// and sends it on the caller's thread, and the client's reader thread
// decodes the reply and answers every waiter; the owner answers an
// exact hit by the carried key without parsing the instance. Identical
// remote-shard requests submitted
// while a forward is in flight attach to it — the router-level
// counterpart of the engine's in-flight dedup, so a thundering herd of
// isomorphic misses costs one network exchange.
//
// Hot-entry replication: every authoritative remote answer is also
// copied into a bounded, TTL'd *replica cache* on this rank (entries
// are immutable, so there is no invalidation protocol), and repeat hits
// on a peer's keys are absorbed locally — steady-state repeat traffic
// stops crossing the network. On top of that, each rank pushes its
// hottest owned entries to every peer on a timer (one kEntries frame
// per peer, filed in the peer's replica tier before it acks), so a key
// that is hot *anywhere* becomes cheap *everywhere* before the first
// local request even arrives.
//
// Near-miss hints: a remote-shard miss consults the *local* cache's
// bounds-monotone index before crossing the wire — the best feasible
// incumbent for the request (from replicated or fallback-solved entries
// of the same instance) rides along as a solver::WarmStart, so the
// owner prunes its solve with the requester's knowledge. Answer bytes
// never change (the WarmStart contract); only the owner's work does.
//
// Degradation: a peer that cannot be reached (or answers garbage)
// makes the request fall back to the local engine — correctness never
// depends on the fabric, only capacity does. The mux client marks the
// peer suspect and fails fast during its backoff window, so a dead
// peer costs one connect timeout, not one per request, and connection
// death fails every in-flight forward at once — failover fires exactly
// once per waiter. Failover re-submits every attached waiter locally
// with its own deadline policy and its *remaining* deadline budget
// (time already burned on the wire is charged, floored at zero); the
// engine's dedup collapses them to exactly one solve. The failover
// blocks on that solve, so it runs on the forward pool, never on the
// client's reader.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "service/engine.hpp"
#include "service/membership.hpp"
#include "service/wire.hpp"

namespace prts::service {

struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

class ShardRouter;

/// The server-side half of a fabric node: a net::FrameHandler that
/// answers kSolveRequest frames against the local service. A request
/// carrying its key is answered key-first: an exact cache hit comes
/// straight from the header, without parsing the instance or
/// canonicalizing. A miss (or a request without a key) parses the
/// instance — checking a carried key against it, a mismatch gets
/// kError "key does not match instance" and nothing is cached — and
/// blocks its pool thread until the solve is done, so run the handler
/// on a pool dedicated to the FrameServer, sized for the concurrent
/// misses it should carry. It answers kPing with kPong and
/// kMetricsRequest with this rank's exposition. Undecodable payloads
/// get kError frames.
///
/// `router` resolves this node's ShardRouter at call time (it is
/// usually constructed *after* the server, since peers need the bound
/// port): when it yields one, the membership and kEntries frames are
/// handed to it and every served solve goes through its note_served;
/// when it yields nullptr, those frames get kError "membership
/// disabled" — so publish the router before its join_now().
net::FrameHandler make_fabric_handler(
    SolveService& service,
    std::function<ShardRouter*()> router = {});

/// Parses "host:port,host:port,..." (one entry per rank, in rank
/// order); nullopt on malformed input.
std::optional<std::vector<PeerAddress>> parse_peer_list(
    const std::string& text);

struct RouterConfig {
  /// The number of founding members: 1 founds a fleet of this rank
  /// alone (others may join it), N > 1 needs one `peers` entry each.
  std::size_t world_size = 1;
  std::size_t rank = 0;
  /// The founding members' addresses, one per rank in rank order (the
  /// entry at `rank` is this rank's own). Every rank bootstraps the
  /// same epoch-1 view from it, so a founding fleet agrees on the ring
  /// without exchanging a frame. May be empty when world_size is 1.
  std::vector<PeerAddress> peers;
  net::FrameClientConfig client;

  /// Failure-detection knobs (self_rank is overwritten with `rank`).
  Membership::Config membership;
  /// This rank's own address, announced to the fleet on join and
  /// carried in every membership view; defaults to peers[rank].
  PeerAddress advertise;
  /// Any live member to dial to enter its fleet: the owner calls
  /// join_now() once the router is published to its frame handler;
  /// after that the heartbeat loop retries while this rank is alone.
  std::optional<PeerAddress> join_seed;
  /// Seconds between heartbeat rounds (membership-view exchanges +
  /// failure-detection ticks); <= 0 disables them (tests drive rounds
  /// via heartbeat_now()).
  double heartbeat_interval_seconds = 0.5;
  /// Cache entries per handoff kEntries frame — bounds both the frame
  /// size and how long the receiving rank's handler holds its cache.
  std::size_t handoff_chunk_entries = 64;
  /// Threads for the fabric's blocking background work: failover
  /// re-solves, heartbeats, handoff streams and double-writes. Forwards
  /// themselves hold no thread while on the wire (the peer client's
  /// reader completes them), so this does not cap in-flight forwards.
  std::size_t forward_threads = 8;

  /// The replica tier (capacity_bytes 0 disables replication).
  ReplicaCache::Config replica;
  /// Seconds between gossip rounds; <= 0 disables them (tests and
  /// benches drive rounds explicitly via gossip_now()). Heartbeats and
  /// gossip share one timer, which wakes at the shorter interval.
  double gossip_interval_seconds = 0.0;
  /// At most this many entries per gossip push.
  std::size_t gossip_top_k = 16;
  /// Keys with fewer hits since the last round are not worth pushing
  /// (a single hit is not "hot").
  std::uint64_t gossip_min_hits = 2;

  /// This rank's telemetry: the registry the router, membership and
  /// per-peer client counters live in (net_client_rank<r>_*), and the
  /// tracer. Must be its SolveService's, so traces begun by the router
  /// continue in the engine and one exposition carries every counter;
  /// nullptr uses the service's. Must outlive the router.
  obs::Telemetry* telemetry = nullptr;
};

/// A snapshot of the router's registry counters (ShardRouter::stats):
/// field <f> is stored in router_<f>_total.
struct RouterStats {
  std::uint64_t local = 0;      ///< keys this rank owns
  std::uint64_t forwarded = 0;  ///< remote keys answered by their owner
  std::uint64_t forward_hits = 0;      ///< ... that were remote cache hits
  std::uint64_t forward_failures = 0;  ///< peer down or bad reply
  std::uint64_t local_fallbacks = 0;   ///< remote keys solved locally
  std::uint64_t deduplicated = 0;      ///< attached to an in-flight forward
  std::uint64_t replica_hits = 0;   ///< remote keys served from the replica
                                    ///< tier (no network round trip)
  std::uint64_t prefetched = 0;     ///< gossip-pushed entries filed in
                                    ///< the replica tier
  std::uint64_t gossip_sent = 0;      ///< pushes acknowledged by a peer
  std::uint64_t gossip_failures = 0;  ///< pushes a peer never acked
  std::uint64_t gossip_received = 0;  ///< pushes received from peers
};

/// Membership state and counters (ShardRouter::membership_stats): the
/// current epoch and member count, and counter field <f> stored in
/// membership_<f>_total.
struct MembershipStats {
  std::uint64_t epoch = 0;   ///< current membership epoch
  std::size_t members = 0;   ///< current member count (incl. self)
  std::uint64_t joins = 0;   ///< members admitted (seen joining)
  std::uint64_t deaths = 0;  ///< members removed after silence
  std::uint64_t suspects = 0;          ///< healthy -> suspect transitions
  std::uint64_t handoffs_started = 0;  ///< slices this rank began streaming
  std::uint64_t handoffs_completed = 0;  ///< ... streamed to the end
  std::uint64_t handoff_chunks_sent = 0;
  /// kEntries frames with entries filed in the cache (handoff chunks
  /// and double-writes), and those entries.
  std::uint64_t handoff_chunks_received = 0;
  std::uint64_t handoff_entries_sent = 0;
  std::uint64_t handoff_entries_received = 0;
  /// Answers served for a key the ring now assigns elsewhere, copied to
  /// the new owner (the transition-window write path).
  std::uint64_t double_writes = 0;
};

class ShardRouter {
 public:
  /// The service answers local-shard requests and degraded remote ones;
  /// it must outlive the router. Throws std::invalid_argument when
  /// `peers` does not hold one address per founding member (rank
  /// included).
  ShardRouter(SolveService& service, RouterConfig config);

  /// Stops the fabric timer, fails every exchange still outstanding on
  /// the peer clients (in-flight forwards fail over locally), then
  /// drains the failovers and handoffs.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t rank() const noexcept { return config_.rank; }

  /// The rank owning `key` under the current membership view's ring.
  std::size_t shard_of(const CanonicalHash& key) const {
    return membership_.owner_of(key);
  }

  /// True when requests can route to another rank right now (more than
  /// one live member).
  bool distributed() const { return membership_.member_count() > 1; }

  /// Routes one request; the future resolves exactly like
  /// SolveService::submit's (statuses, never exceptions).
  std::future<SolveReply> submit(SolveRequest request);

  /// True while the peer owning `rank` is inside its backoff window.
  bool peer_suspect(std::size_t rank) const;

  /// Runs one gossip round synchronously: snapshot + reset the hit
  /// counts of this rank's hot owned keys, then push the top-K of them
  /// still cached, entries whole, to every reachable peer in one
  /// kEntries frame each. A peer files them in its replica tier before
  /// it acks, so they are in place when this returns. Also called by
  /// the fabric timer when gossip_interval_seconds > 0.
  void gossip_now();

  /// Bookkeeping for an answer this rank just served to a peer (the
  /// fabric handler calls it; submit() counts local traffic itself).
  /// When the ring assigns `key` here, the hit counts toward the next
  /// gossip push; when it assigns `key` elsewhere, the answer is
  /// shipped to the new owner as one async single-entry kEntries frame
  /// — the handoff-window double-write.
  void note_served(const CanonicalHash& key);

  // --- Membership ---

  /// The current membership epoch (1 at founding).
  std::uint64_t epoch() const;
  MembershipView membership_view() const;
  MembershipStats membership_stats() const;

  /// Dials the configured join seed once, synchronously: kJoinRequest
  /// out, the seed's merged view adopted from the reply. True when the
  /// fleet now has more than one member; false without a join seed.
  /// The seed streams this rank's slice the moment it admits the join,
  /// so the owner calls this only once the router is published to its
  /// frame handler; from then on the heartbeat loop retries it while
  /// the rank is alone, and never dials the seed before.
  bool join_now();

  /// One synchronous heartbeat round: failure-detection tick, then one
  /// kMembershipUpdate exchange per live peer (dispatched to the
  /// forward pool — a dead peer's connect timeout never stalls the
  /// caller). Any answer proves the peer alive. Also called by the
  /// fabric timer when heartbeat_interval_seconds > 0.
  void heartbeat_now();

  /// Handles kJoinRequest, kMembershipUpdate and kEntries — the server
  /// half of the membership and entry-shipping protocols, called by
  /// make_fabric_handler. A kEntries frame is filed by this rank's own
  /// ring: an entry whose key it assigns to the sender (a gossip push)
  /// goes to the replica tier, dropped when the tier is off; every
  /// other entry (a handoff chunk, a double-write) goes to the cache.
  net::Frame handle_fabric_frame(const net::Frame& request);

  /// Blocks until every scheduled handoff stream has completed (test
  /// and bench determinism).
  void wait_handoffs_idle();

  /// stats() and membership_stats() read the registry counters
  /// relaxed; neither takes the router's lock.
  RouterStats stats() const;
  ReplicaStats replica_stats() const { return replicas_.stats(); }
  static void write_stats_json(std::ostream& out, const RouterStats& stats);
  static void write_membership_stats_json(std::ostream& out,
                                          const MembershipStats& stats);

  /// Per-peer client counters, one (rank, stats) pair per wired peer
  /// (self has no client) — surfaces reconnect/backoff/suspect churn in
  /// the merged stats document.
  std::vector<std::pair<std::size_t, net::FrameClientStats>> client_stats()
      const;

 private:
  /// One forward in flight: the canonical request plus every waiter
  /// attached to it. Each waiter keeps its own label translation and
  /// its own deadline options — failover must not reject a patient
  /// waiter on an impatient stranger's policy.
  struct ForwardWaiter {
    std::promise<SolveReply> promise;
    std::shared_ptr<const CanonicalInstance> canonical;
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    bool deduplicated = false;
    std::uint64_t trace_id = 0;  ///< this waiter's own trace
    std::chrono::steady_clock::time_point submitted{};
  };
  struct Forward {
    std::shared_ptr<const CanonicalInstance> canonical;
    solver::Bounds bounds;
    std::string solver;
    /// The requester's best local near-miss (canonical labels), carried
    /// on the wire so the owner's solve starts warm.
    std::optional<solver::WarmStart> warm;
    /// The first submitter's deadline options, carried on the wire (a
    /// later waiter's options only matter on the failover path).
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    CanonicalHash key;
    std::size_t owner_rank;
    std::vector<ForwardWaiter> waiters;
    /// The first submitter's trace id, carried on the wire so the
    /// owner's spans land in the same trace.
    std::uint64_t trace_id = 0;
  };

  /// Encodes the forward (key line included) and hands it to the
  /// owner's client on the calling thread; the exchange then holds no
  /// thread until its completion runs finish_forward.
  void send_forward(std::shared_ptr<Forward> forward,
                    net::MuxFrameClient& client);
  /// The forward's completion, on the client's reader thread (or the
  /// caller's, for a fast-fail): decode, replicate, answer every waiter
  /// in its own labels — or queue the failover on forward_pool_.
  void finish_forward(std::shared_ptr<Forward> forward,
                      std::optional<net::Frame> reply,
                      std::chrono::steady_clock::time_point wire_start);
  /// Re-solves every waiter of a failed forward locally; blocks on the
  /// local solves, so it runs on forward_pool_.
  void fail_over(Forward& forward,
                 std::chrono::steady_clock::time_point wire_start,
                 double wire_seconds);
  /// Counts one served request against an owned `key` for the next
  /// gossip push; locks only the key's stripe.
  void count_owned_hit(const CanonicalHash& key);

  /// The client wired to `rank`, lazily created from the membership
  /// view; nullptr for self and for ranks with no known address.
  /// Created clients live until the router dies (an address change
  /// retires the old client without destroying it — in-flight
  /// exchanges may still hold it).
  net::MuxFrameClient* client_for(std::size_t rank);
  /// client_for without the create (health probes).
  net::MuxFrameClient* client_lookup(std::size_t rank) const;
  /// Every member rank but this one.
  std::vector<std::size_t> peer_ranks() const;

  /// Reacts to a membership change: counters/gauges, client retirement
  /// on address change, and one scheduled handoff stream per joined
  /// member (this rank streams the slice the ring now assigns to the
  /// newcomer).
  void apply_membership_changes(const Membership::ChangeSet& changes);
  void schedule_handoff(const Member& target);
  void run_handoff(Member target);
  void finish_handoff(bool completed);
  /// Updates the epoch/member-count gauges from the current view.
  void publish_membership_gauges();

  net::Frame handle_join_frame(const net::Frame& request);
  net::Frame handle_membership_frame(const net::Frame& request);
  net::Frame handle_entries_frame(const net::Frame& request);

  SolveService& service_;
  RouterConfig config_;
  obs::Telemetry& telemetry_;  ///< config_.telemetry, never null
  Membership membership_;

  /// Guards the client map only (leaf lock: taken while neither mutex_
  /// nor the membership lock is held... and never the reverse).
  mutable std::mutex clients_mutex_;
  std::unordered_map<std::size_t, std::unique_ptr<net::MuxFrameClient>>
      clients_;
  /// Clients replaced after an address change (a restarted member on a
  /// new port). Kept alive until destruction: an exchange may still be
  /// in flight on one, or a pool task blocked inside it.
  std::vector<std::unique_ptr<net::MuxFrameClient>> retired_clients_;
  /// Set by the destructor once it starts shutting clients down:
  /// client_for wires no new one.
  bool closing_ = false;

  ReplicaCache replicas_;

  /// Hits on owned keys since the last gossip round (windowed counts:
  /// gossip_now drains every stripe, so "hot" means *recently* hot).
  /// Striped by key.hi (the cache shards by key.lo): an owned hit locks
  /// only its key's stripe, never mutex_.
  struct alignas(64) HotKeyStripe {
    std::mutex mutex;
    std::unordered_map<CanonicalHash, std::uint64_t, CanonicalKeyHasher> hits;
  };
  static constexpr std::size_t kHotKeyStripes = 16;
  std::array<HotKeyStripe, kHotKeyStripes> owned_hits_;

  /// The router's central lock (in-flight map, pending handoffs),
  /// contention-profiled as "router_inflight".
  mutable obs::ProfiledMutex mutex_;
  std::unordered_map<CanonicalHash, Forward*, CanonicalKeyHasher> in_flight_;
  std::size_t outstanding_handoffs_ = 0;
  /// _any: waits on the ProfiledMutex above (handoff drains).
  std::condition_variable_any handoff_cv_;
  /// Last epoch a handoff stream was scheduled toward each rank — the
  /// dedup that keeps one membership change from streaming the same
  /// slice twice (equal-epoch updates arrive from several peers).
  std::unordered_map<std::size_t, std::uint64_t> handoff_epochs_;
  /// Ranks with a heartbeat exchange currently in flight (the timer
  /// must not stack exchanges onto a slow peer).
  std::unordered_set<std::size_t> heartbeats_in_flight_;
  /// Set by the first join_now(): the heartbeat loop retries a join
  /// only after the owner has published the router and asked for one.
  std::atomic<bool> join_requested_{false};

  /// RouterStats' and MembershipStats' only store: one registry counter
  /// per counter field, resolved once and bumped lock-free.
  struct Counters {
    explicit Counters(obs::Registry& metrics);
    obs::Counter& local;
    obs::Counter& forwarded;
    obs::Counter& forward_hits;
    obs::Counter& forward_failures;
    obs::Counter& local_fallbacks;
    obs::Counter& deduplicated;
    obs::Counter& replica_hits;
    obs::Counter& prefetched;
    obs::Counter& gossip_sent;
    obs::Counter& gossip_failures;
    obs::Counter& gossip_received;
    obs::Counter& joins;
    obs::Counter& deaths;
    obs::Counter& suspects;
    obs::Counter& handoffs_started;
    obs::Counter& handoffs_completed;
    obs::Counter& handoff_chunks_sent;
    obs::Counter& handoff_chunks_received;
    obs::Counter& handoff_entries_sent;
    obs::Counter& handoff_entries_received;
    obs::Counter& double_writes;
  };
  Counters counters_;

  /// Telemetry handles resolved once at construction.
  obs::Histogram& wire_hist_;
  obs::Histogram& router_latency_hist_;
  /// Sampled to in_flight_.size() at forward insert/erase.
  obs::Gauge& inflight_gauge_;
  /// Profiler components: the wire exchange (a wall-only sample — no
  /// thread owns a forward on the wire) and the replica-tier probe.
  obs::Profiler::Component& prof_wire_;
  obs::Profiler::Component& prof_replica_;
  /// Contention probe the in-flight mutex points at.
  obs::ProfiledMutex::Probe inflight_probe_;
  obs::Gauge& epoch_gauge_;
  obs::Gauge& members_gauge_;
  obs::Histogram& handoff_chunk_hist_;

  /// The fabric timer: heartbeat and gossip rounds, each when its own
  /// interval has lapsed.
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  bool timer_stop_ = false;
  std::thread timer_thread_;

  /// Failovers, heartbeats, handoffs and double-writes.
  /// Declared last: destroyed first, so draining tasks still see live
  /// clients (shut down by then), caches, maps and the service.
  ThreadPool forward_pool_;
};

}  // namespace prts::service
