// In-process multi-rank fabric simulation harness: spins N *real*
// fabric nodes (SolveService + FrameServer + ShardRouter, each with its
// own pools) over loopback sockets inside one process, with
// deterministic fault injection. This is what makes the replication /
// gossip layer testable at all — every network exchange is real TCP,
// but ranks can be killed, revived, paused mid-frame or made to drop
// frames on cue, and every rank's counters and caches are directly
// inspectable.
//
// Gtest-free: failures throw std::runtime_error instead of asserting,
// so they surface from constructors and helper threads too.
//
// Fault injection levers (per rank, applied to *inbound* frames before
// the fabric handler sees them):
//   - pause()/resume(): hold every arriving frame at the gate —
//     freezes a rank so forwards to it stay in flight while the test
//     arranges dedup waiters or kills the rank;
//   - drop_next(n): swallow the next n admitted frames without a reply
//     (the connection closes, exactly like a peer dying mid-exchange);
//   - delay(seconds): sleep every admitted frame at the gate before the
//     handler runs — a *slow* peer (overloaded, GC-pausing, swapping)
//     rather than a dead one, so requesters see long wire round trips
//     that should attribute as blocked time, not compute;
//   - kill()/revive(): stop the rank's FrameServer / restart it on the
//     same port (SO_REUSEADDR makes the rebind reliable).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/frame_server.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"
#include "service/router.hpp"

namespace prts::service::testing {

/// Per-rank switchboard the harness's handler wrapper consults for
/// every inbound frame. Thread-safe; levers can be flipped while frames
/// are in flight.
class FaultInjector {
 public:
  /// Holds subsequent frames at the gate until resume().
  void pause() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
  }

  /// Releases held frames (they then honor the drop counter).
  void resume() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      paused_ = false;
    }
    cv_.notify_all();
  }

  /// The next `count` admitted frames are dropped: no reply, the
  /// connection closes — indistinguishable from a peer dying
  /// mid-exchange.
  void drop_next(std::size_t count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    drop_remaining_ += count;
  }

  std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Every admitted frame sleeps this long at the gate before the
  /// handler runs (0 restores full speed). Models a slow-but-alive
  /// peer; the delay is inbound, so the *requester's* wire round trip
  /// stretches while its own solver stays idle.
  void delay(double seconds) {
    delay_ns_.store(seconds <= 0.0
                        ? 0
                        : static_cast<std::int64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
  }

  /// Called by the handler wrapper: waits out a pause, then reports
  /// whether the frame may proceed (false = drop it). Admitted frames
  /// additionally serve the configured slow-peer delay.
  bool admit() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return !paused_; });
      if (drop_remaining_ > 0) {
        --drop_remaining_;
        ++dropped_;
        return false;
      }
    }
    // Sleep outside the lock: a slow rank must still be pausable and
    // must not serialize its concurrent inbound frames on the gate.
    const std::int64_t delay = delay_ns_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
    return true;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool paused_ = false;
  std::size_t drop_remaining_ = 0;
  std::uint64_t dropped_ = 0;
  std::atomic<std::int64_t> delay_ns_{0};
};

class FabricHarness {
 public:
  struct Options {
    std::size_t world = 3;
    /// Applied to every rank's SolveService.
    ServiceConfig service;
    /// Template for every rank's router: world_size/rank/peers are
    /// overwritten, everything else (replica geometry, gossip knobs,
    /// client timeouts) is taken as configured.
    RouterConfig router;
    /// Per-rank FrameServer pool size; must exceed the number of
    /// long-lived inbound peer connections (each occupies a thread).
    std::size_t server_threads = 0;  ///< 0: world + 2 (elastic: world + 8)
    /// Fleet founded by join instead of by one founding peers list:
    /// rank 0 founds it alone, every later rank joins by dialing rank 0,
    /// and joins stream handoffs. `world` is the *initial* size —
    /// add_rank() grows the fleet mid-test, retire() shrinks it (true
    /// process death, unlike kill()). The router template's membership
    /// / heartbeat knobs apply as configured; with
    /// heartbeat_interval_seconds <= 0 the harness drives rounds itself
    /// inside wait_for_members().
    bool elastic = false;
  };

  FabricHarness() : FabricHarness(Options()) {}

  explicit FabricHarness(Options options) : options_(options) {
    if (options_.world == 0) throw std::runtime_error("world must be >= 1");
    server_threads_ = options_.server_threads
                          ? options_.server_threads
                          : options_.world + (options_.elastic ? 8 : 2);
    if (options_.elastic) {
      // Elastic fleet: rank 0 founds it, later ranks join through it.
      // Each rank is fully wired (server AND router) before the next
      // joins — the join exchange needs a live seed router.
      for (std::size_t r = 0; r < options_.world; ++r) {
        spawn_elastic_rank(r == 0 ? std::optional<PeerAddress>()
                                  : std::optional<PeerAddress>(PeerAddress{
                                        "127.0.0.1", ranks_[0]->port}));
      }
      // Ranks > 1 learned of each other only via rank 0; let the view
      // spread before the test starts routing.
      wait_for_members(options_.world);
      return;
    }
    // Phase 1: services + servers on ephemeral ports (the handler
    // resolves its rank's router lazily — it does not exist yet).
    for (std::size_t r = 0; r < options_.world; ++r) {
      auto rank = std::make_unique<Rank>();
      // Every rank gets its own telemetry (the real deployment shape:
      // one Telemetry per process), shared by its service and router so
      // a forwarded solve's spans land in one trace per rank.
      rank->telemetry = std::make_unique<obs::Telemetry>();
      rank->telemetry->rank = static_cast<int>(r);
      ServiceConfig service_config = options_.service;
      service_config.telemetry = rank->telemetry.get();
      rank->service = std::make_unique<SolveService>(service_config);
      rank->server_pool = std::make_unique<ThreadPool>(server_threads_);
      start_server(*rank, /*port=*/0);
      rank->port = rank->server->port();
      ranks_.push_back(std::move(rank));
    }
    // Phase 2: now every port is known, wire the routers.
    std::vector<PeerAddress> peers;
    for (const auto& rank : ranks_) {
      peers.push_back(PeerAddress{"127.0.0.1", rank->port});
    }
    for (std::size_t r = 0; r < options_.world; ++r) {
      RouterConfig config = options_.router;
      config.world_size = options_.world;
      config.rank = r;
      config.peers = peers;
      config.telemetry = ranks_[r]->telemetry.get();
      ranks_[r]->router =
          std::make_unique<ShardRouter>(*ranks_[r]->service, config);
      ranks_[r]->router_ptr.store(ranks_[r]->router.get());
    }
  }

  ~FabricHarness() {
    // Servers first: stop() drains every in-flight handler, so no
    // server-pool thread can still be inside a router (a cleared
    // router_ptr alone would be a check-then-use race against a
    // handler that already loaded it). Routers after that — their
    // draining forwards and handoffs now fail fast against the dead
    // servers and fail over to the still-live local services.
    for (auto& rank : ranks_) rank->router_ptr.store(nullptr);
    for (auto& rank : ranks_) {
      if (rank->server) rank->server->stop();
    }
    for (auto& rank : ranks_) rank->router.reset();
  }

  FabricHarness(const FabricHarness&) = delete;
  FabricHarness& operator=(const FabricHarness&) = delete;

  std::size_t world() const noexcept { return ranks_.size(); }
  SolveService& service(std::size_t rank) { return *ranks_.at(rank)->service; }
  obs::Telemetry& telemetry(std::size_t rank) {
    return *ranks_.at(rank)->telemetry;
  }
  ShardRouter& router(std::size_t rank) { return *ranks_.at(rank)->router; }
  FaultInjector& faults(std::size_t rank) { return ranks_.at(rank)->faults; }
  std::uint16_t port(std::size_t rank) const { return ranks_.at(rank)->port; }

  /// Stops the rank's FrameServer: peers' exchanges with it fail from
  /// now on (their clients mark it suspect). The rank's own router and
  /// service stay alive — a dead rank's *clients* are not the scenario
  /// under test, its unreachable *server* is. Frames must not be held
  /// at the pause gate when killing (stop() waits for handlers).
  void kill(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    if (node.server) {
      node.server->stop();
      node.server.reset();
    }
  }

  /// Restarts a killed rank's server on its original port. Throws when
  /// the port was meanwhile taken by another process.
  void revive(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    if (node.server) return;
    start_server(node, node.port);
  }

  /// True while the rank participates in the fabric (never retired).
  bool alive(std::size_t rank) const {
    return ranks_.at(rank)->router != nullptr;
  }

  /// Spawns one brand-new rank that joins the fleet by dialing `seed`;
  /// returns its index. Elastic mode only. The caller typically follows
  /// with wait_for_members(expected) — the join reaches the seed
  /// synchronously, the rest of the fleet learns by heartbeat.
  std::size_t add_rank(std::size_t seed = 0) {
    if (!options_.elastic) {
      throw std::runtime_error("add_rank: static fleets cannot grow");
    }
    const auto& seed_node = *ranks_.at(seed);
    if (!seed_node.server || !seed_node.router) {
      throw std::runtime_error("add_rank: seed rank is down");
    }
    return spawn_elastic_rank(PeerAddress{"127.0.0.1", seed_node.port});
  }

  /// Tears the rank down for good — server, router, heartbeat timer,
  /// peer clients — the real "process died" scenario (kill() only
  /// severs the server; the rank's router keeps heartbeating). The
  /// service and its cache stay inspectable. Peers notice through
  /// silence: suspect after suspect_after_seconds, removed (epoch bump,
  /// ring shrink) after dead_after_seconds.
  void retire(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    // Same ordering as the destructor: stop admitting router lookups,
    // drain in-flight handlers (which may hold the still-live router),
    // only then destroy the router.
    node.router_ptr.store(nullptr);
    if (node.server) {
      node.server->stop();
      node.server.reset();
    }
    node.router.reset();
  }

  /// Blocks until every live rank agrees the fleet has exactly `count`
  /// members (and, when nonzero, an epoch >= `min_epoch` — the
  /// monotonicity handle for join/death assertions). When the router
  /// template disables the heartbeat timer, heartbeat rounds are driven
  /// from here. Throws on timeout.
  void wait_for_members(std::size_t count, double timeout_seconds = 10.0,
                        std::uint64_t min_epoch = 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
      bool converged = false;
      for (auto& rank : ranks_) {
        if (!rank->router) continue;
        if (options_.router.heartbeat_interval_seconds <= 0.0) {
          rank->router->heartbeat_now();
        }
        const MembershipView view = rank->router->membership_view();
        if (view.members.size() == count && view.epoch >= min_epoch) {
          converged = true;  // needs every live rank to agree, see below
        } else {
          converged = false;
          break;
        }
      }
      if (converged) return;
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "fabric harness: fleet never converged to " +
            std::to_string(count) + " member(s)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Scans latency bounds >= 1000 (unconstraining for the tiny test
  /// instances, so every minted key is *solvable*) for one whose
  /// request key lands on `owner`; `salt` de-overlaps scans so repeated
  /// calls mint distinct keys. Other bounds are taken from `base` (set
  /// base.period_bound *before* calling — bounds are part of the key).
  /// Ownership is the ring's *current* opinion (asked of the first live
  /// router) — on a fleet founded by join, mint keys after convergence,
  /// and expect them to migrate when the fleet changes.
  solver::Bounds bounds_on_rank(const Instance& instance,
                                const std::string& solver_name,
                                std::size_t owner, double salt = 0.0,
                                solver::Bounds base = {}) const {
    const ShardRouter* ring = nullptr;
    for (const auto& rank : ranks_) {
      if (rank->router) {
        ring = rank->router.get();
        break;
      }
    }
    if (ring == nullptr) {
      throw std::runtime_error("bounds_on_rank: no live rank to ask");
    }
    const CanonicalInstance canonical = canonicalize(instance);
    for (double latency = 1000.0 + salt; latency < 4000.0 + salt;
         latency += 1.0) {
      solver::Bounds bounds = base;
      bounds.latency_bound = latency;
      const CanonicalHash key = request_key(canonical, solver_name, bounds);
      if (ring->shard_of(key) == owner) return bounds;
    }
    throw std::runtime_error("no bounds found landing on rank " +
                             std::to_string(owner));
  }

 private:
  struct Rank {
    /// First member: destroyed last, after every component holding a
    /// pointer into it.
    std::unique_ptr<obs::Telemetry> telemetry;
    std::unique_ptr<SolveService> service;
    std::unique_ptr<ThreadPool> server_pool;
    std::unique_ptr<net::FrameServer> server;
    std::unique_ptr<ShardRouter> router;
    std::atomic<ShardRouter*> router_ptr{nullptr};
    FaultInjector faults;
    std::uint16_t port = 0;
  };

  /// Builds one fully-wired rank outside any founding list (telemetry,
  /// service, server on an ephemeral port, router) at index
  /// ranks_.size(); with a seed it then joins synchronously.
  std::size_t spawn_elastic_rank(std::optional<PeerAddress> seed) {
    const std::size_t r = ranks_.size();
    auto rank = std::make_unique<Rank>();
    rank->telemetry = std::make_unique<obs::Telemetry>();
    rank->telemetry->rank = static_cast<int>(r);
    ServiceConfig service_config = options_.service;
    service_config.telemetry = rank->telemetry.get();
    rank->service = std::make_unique<SolveService>(service_config);
    rank->server_pool = std::make_unique<ThreadPool>(server_threads_);
    start_server(*rank, /*port=*/0);
    rank->port = rank->server->port();
    RouterConfig config = options_.router;
    config.world_size = 1;
    config.rank = r;
    config.peers.clear();
    config.advertise = PeerAddress{"127.0.0.1", rank->port};
    config.join_seed = std::move(seed);
    config.telemetry = rank->telemetry.get();
    rank->router = std::make_unique<ShardRouter>(*rank->service, config);
    // Published before the join: the seed streams this rank's slice the
    // moment it admits the join.
    rank->router_ptr.store(rank->router.get());
    rank->router->join_now();
    ranks_.push_back(std::move(rank));
    return r;
  }

  void start_server(Rank& rank, std::uint16_t port) {
    // The wrapper applies the rank's fault levers before the real
    // fabric handler sees the frame. Raw pointers are safe: the Rank
    // outlives its server, and router_ptr is cleared before teardown.
    Rank* node = &rank;
    net::FrameHandler fabric = make_fabric_handler(
        *rank.service, [node] { return node->router_ptr.load(); });
    net::FrameHandler wrapped =
        [node, fabric = std::move(fabric)](
            const net::Frame& frame) -> std::optional<net::Frame> {
      if (!node->faults.admit()) return std::nullopt;  // dropped
      return fabric(frame);
    };
    rank.server = net::FrameServer::start(
        port, std::move(wrapped), *rank.server_pool, net::kDefaultMaxPayload,
        &rank.telemetry->metrics, &rank.telemetry->watchdog,
        &rank.telemetry->profiler);
    if (!rank.server) {
      throw std::runtime_error("fabric harness: cannot bind port " +
                               std::to_string(port));
    }
  }

  Options options_;
  std::size_t server_threads_ = 0;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace prts::service::testing
