#include "service/router.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "service/protocol.hpp"

namespace prts::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points, floored at zero.
double seconds_since(Clock::time_point from, Clock::time_point to) noexcept {
  const double elapsed = std::chrono::duration<double>(to - from).count();
  return elapsed < 0.0 ? 0.0 : elapsed;
}

/// Hot-key hit counts tracked between gossip rounds are capped so each
/// stripe's map stays bounded even when gossip never runs to clear it.
constexpr std::size_t kMaxTrackedHotKeysPerStripe = 256;

/// Config invariants the rest of the router leans on, applied before
/// any member (the Membership in particular) is constructed from it.
RouterConfig normalize(RouterConfig config, SolveService& service) {
  if (config.world_size == 0) config.world_size = 1;
  const bool founding_ok =
      config.peers.empty()
          ? config.world_size == 1
          : config.peers.size() == config.world_size &&
                config.rank < config.peers.size();
  if (!founding_ok) {
    throw std::invalid_argument(
        "router: peers must list one address per founding member, "
        "this rank's included");
  }
  config.membership.self_rank = config.rank;
  if (config.advertise.port == 0 && !config.peers.empty()) {
    config.advertise = config.peers[config.rank];
  }
  if (config.advertise.host.empty()) config.advertise.host = "127.0.0.1";
  if (!config.telemetry) config.telemetry = &service.telemetry();
  return config;
}

/// The kEntries frame carrying `batch`.
net::Frame entries_frame(const EntryBatch& batch) {
  net::Frame frame;
  frame.type = net::FrameType::kEntries;
  frame.payload = encode_entries(batch);
  return frame;
}

/// What a fabric handler and the frames it defers share.
struct FabricNode {
  SolveService& service;
  std::function<ShardRouter*()> router;

  ShardRouter* resolve() const { return router ? router() : nullptr; }
};

net::Frame error_frame(std::string message) {
  net::Frame reply;
  reply.type = net::FrameType::kError;
  reply.payload = std::move(message);
  return reply;
}

/// The kSolveReply for `answer`, with this rank's spans attached.
net::Frame solve_reply(const FabricNode& node, SolveReply answer) {
  // Peer traffic is what makes an owned key hot, and an answer for a
  // key the ring has since assigned elsewhere belongs on its new owner.
  if (ShardRouter* owner = node.resolve()) owner->note_served(answer.key);
  // Ship this rank's spans back so the origin can merge them into the
  // one trace the request travels under. The local tracer keeps its
  // copy — `trace <id>` resolves on either rank.
  if (obs::Trace trace;
      node.service.telemetry().tracer.find(answer.trace_id, trace)) {
    answer.remote_spans = std::move(trace.spans);
  }
  net::Frame reply;
  reply.type = net::FrameType::kSolveReply;
  reply.payload = encode_wire_reply(answer);
  return reply;
}

/// A solve request the key could not answer, on a FrameServer pool
/// thread: parse the instance and check the carried key against it,
/// then hand the request and `respond` to the engine. The engine's
/// completion sends the reply (a dominating hit on this thread, a solve
/// on the worker that ran it), so no thread waits for the answer.
void solve_parsed(const std::shared_ptr<const FabricNode>& node,
                  std::string_view payload, net::Responder& respond) {
  std::string error;
  auto head = decode_wire_request_head(payload, error);
  if (!head) {
    respond.send(error_frame("bad solve request: " + error));
    return;
  }
  const std::optional<CanonicalHash> claimed = head->key;
  auto decoded = decode_wire_request(std::move(*head), error);
  if (!decoded) {
    respond.send(error_frame("bad solve request: " + error));
    return;
  }
  auto [canonical, key] = node->service.canonicalize_request(*decoded);
  // A request must never be solved — or cached — under a key its
  // instance does not have.
  if (claimed && key != *claimed) {
    respond.send(error_frame("key does not match instance"));
    return;
  }
  // SolveCompletion is a copyable std::function: the responder rides
  // in a shared slot.
  auto held = std::make_shared<net::Responder>(std::move(respond));
  node->service.submit_canonicalized(
      std::move(*decoded), std::move(canonical), key,
      [node, held](SolveReply answer) {
        held->send(solve_reply(*node, std::move(answer)));
      });
}

}  // namespace

net::FrameHandler make_fabric_handler(SolveService& service,
                                      std::function<ShardRouter*()> router) {
  auto node = std::make_shared<const FabricNode>(
      FabricNode{service, std::move(router)});
  return [node](net::Frame request, net::Responder& respond) {
    switch (request.type) {
      case net::FrameType::kPing:
        request.type = net::FrameType::kPong;
        respond.send(std::move(request));
        return;
      case net::FrameType::kSolveRequest: {
        std::string error;
        const auto head = decode_wire_request_head(request.payload, error);
        if (!head) {
          respond.send(error_frame("bad solve request: " + error));
          return;
        }
        // Key-first: an exact hit is answered from the header alone —
        // no instance parse, no canonicalization, no pool hand-off.
        if (head->key) {
          if (auto answer = node->service.answer_by_key(
                  *head->key, head->solver, head->trace_id)) {
            respond.send(solve_reply(*node, std::move(*answer)));
            return;
          }
        }
        respond.defer([node, request = std::move(request)](
                          net::Responder& deferred) {
          solve_parsed(node, request.payload, deferred);
        });
        return;
      }
      case net::FrameType::kMetricsRequest:
        // Any rank can scrape any other: the full text exposition of
        // this rank's registry.
        respond.defer([node](net::Responder& deferred) {
          std::ostringstream out;
          write_metrics_text(out, node->service);
          net::Frame reply;
          reply.type = net::FrameType::kMetricsReply;
          reply.payload = out.str();
          deferred.send(std::move(reply));
        });
        return;
      case net::FrameType::kJoinRequest:
      case net::FrameType::kMembershipUpdate:
      case net::FrameType::kEntries:
        // The membership and entry frames belong to the router (the
        // Membership merge rules and the ring that files entries live
        // there). A node without one cannot host a fleet.
        respond.defer([node, request = std::move(request)](
                          net::Responder& deferred) {
          ShardRouter* member = node->resolve();
          deferred.send(member ? member->handle_fabric_frame(request)
                               : error_frame("membership disabled"));
        });
        return;
      default:
        respond.send(error_frame("unexpected frame type"));
        return;
    }
  };
}

std::optional<std::vector<PeerAddress>> parse_peer_list(
    const std::string& text) {
  std::vector<PeerAddress> peers;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      return std::nullopt;
    }
    PeerAddress peer;
    peer.host = entry.substr(0, colon);
    const std::string port_text = entry.substr(colon + 1);
    unsigned long port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    // Full consumption: "76o1" must be rejected, not parsed as 76.
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        port == 0 || port > 65535) {
      return std::nullopt;
    }
    peer.port = static_cast<std::uint16_t>(port);
    peers.push_back(std::move(peer));
    start = comma + 1;
  }
  return peers;
}

ShardRouter::Counters::Counters(obs::Registry& metrics)
    : local(metrics.counter("router_local_total")),
      forwarded(metrics.counter("router_forwarded_total")),
      forward_hits(metrics.counter("router_forward_hits_total")),
      forward_failures(metrics.counter("router_forward_failures_total")),
      local_fallbacks(metrics.counter("router_local_fallbacks_total")),
      replica_hits(metrics.counter("router_replica_hits_total")),
      prefetched(metrics.counter("router_prefetched_total")),
      gossip_sent(metrics.counter("router_gossip_sent_total")),
      gossip_failures(metrics.counter("router_gossip_failures_total")),
      gossip_received(metrics.counter("router_gossip_received_total")),
      joins(metrics.counter("membership_joins_total")),
      deaths(metrics.counter("membership_deaths_total")),
      suspects(metrics.counter("membership_suspects_total")),
      handoffs_started(metrics.counter("membership_handoffs_started_total")),
      handoffs_completed(
          metrics.counter("membership_handoffs_completed_total")),
      handoff_chunks_sent(
          metrics.counter("membership_handoff_chunks_sent_total")),
      handoff_chunks_received(
          metrics.counter("membership_handoff_chunks_received_total")),
      handoff_entries_sent(
          metrics.counter("membership_handoff_entries_sent_total")),
      handoff_entries_received(
          metrics.counter("membership_handoff_entries_received_total")),
      double_writes(metrics.counter("membership_double_writes_total")) {}

ShardRouter::ShardRouter(SolveService& service, RouterConfig config)
    : service_(service),
      config_(normalize(std::move(config), service)),
      telemetry_(*config_.telemetry),
      membership_(config_.membership),
      counters_(telemetry_.metrics),
      wire_hist_(telemetry_.metrics.histogram("router_wire_seconds")),
      router_latency_hist_(
          telemetry_.metrics.histogram("router_request_latency_seconds")),
      prof_wire_(telemetry_.profiler.component("wire_round_trip")),
      prof_replica_(telemetry_.profiler.component("replica_lookup")),
      mutex_probe_(
          obs::ProfiledMutex::make_probe(telemetry_.metrics, "router")),
      epoch_gauge_(telemetry_.metrics.gauge("membership_epoch")),
      members_gauge_(telemetry_.metrics.gauge("membership_members")),
      handoff_chunk_hist_(
          telemetry_.metrics.histogram("handoff_chunk_seconds")),
      forward_pool_(std::max<std::size_t>(1, config_.forward_threads)) {
  mutex_.attach(&mutex_probe_);
  if (config_.replica.capacity_bytes > 0) replicas_.emplace(config_.replica);

  // The founding view at epoch 1: identical on every founding rank, so
  // they agree on the ring before any frame is exchanged. A lone
  // founder's view is just itself; the owner's join_now() merges it
  // into a running fleet (when a seed is configured), or the heartbeat
  // loop retries.
  std::vector<Member> founding;
  for (std::size_t r = 0; r < config_.peers.size(); ++r) {
    if (r == config_.rank) continue;
    founding.push_back(Member{r, config_.peers[r].host, config_.peers[r].port});
  }
  founding.push_back(
      Member{config_.rank, config_.advertise.host, config_.advertise.port});
  membership_.bootstrap(std::move(founding));
  publish_membership_gauges();
  for (const std::size_t r : peer_ranks()) client_for(r);

  // One fabric timer for heartbeats and gossip, waking at the shorter
  // of the two intervals; each round runs when its own interval lapsed.
  const double heartbeat_seconds = config_.heartbeat_interval_seconds;
  const double gossip_seconds = config_.gossip_interval_seconds;
  double wake_seconds = heartbeat_seconds > 0.0 ? heartbeat_seconds : 0.0;
  if (gossip_seconds > 0.0 &&
      (wake_seconds == 0.0 || gossip_seconds < wake_seconds)) {
    wake_seconds = gossip_seconds;
  }
  if (wake_seconds > 0.0) {
    obs::Heartbeat* const timer_heartbeat =
        &telemetry_.watchdog.component("router_timer", wake_seconds);
    timer_thread_ = std::thread([this, wake_seconds, heartbeat_seconds,
                                 gossip_seconds, timer_heartbeat] {
      const std::chrono::duration<double> wake(wake_seconds);
      Clock::time_point last_heartbeat = Clock::now();
      Clock::time_point last_gossip = last_heartbeat;
      std::unique_lock<std::mutex> lock(timer_mutex_);
      while (!timer_stop_) {
        if (timer_cv_.wait_for(lock, wake, [this] { return timer_stop_; })) {
          break;
        }
        lock.unlock();
        const Clock::time_point now = Clock::now();
        if (heartbeat_seconds > 0.0 &&
            seconds_since(last_heartbeat, now) >= heartbeat_seconds) {
          heartbeat_now();
          last_heartbeat = now;
        }
        if (gossip_seconds > 0.0 &&
            seconds_since(last_gossip, now) >= gossip_seconds) {
          gossip_now();
          last_gossip = now;
        }
        timer_heartbeat->beat();
        lock.lock();
      }
    });
  }
}

ShardRouter::~ShardRouter() {
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Fail every outstanding exchange while the pool and everything a
  // completion touches are still alive: forward completions run now and
  // hand their failovers to the engine; pool tasks blocked on a call get
  // nullopt, and later calls fail fast — no new client is wired from
  // here on.
  std::vector<net::MuxFrameClient*> clients;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    closing_ = true;
    for (const auto& [rank, client] : clients_) clients.push_back(client.get());
    for (const auto& client : retired_clients_) clients.push_back(client.get());
  }
  for (net::MuxFrameClient* const client : clients) client->shutdown();
}  // forward_pool_ then drains heartbeats, handoffs and double-writes

net::MuxFrameClient* ShardRouter::client_for(std::size_t rank) {
  if (rank == config_.rank) return nullptr;
  const auto member = membership_.member(rank);
  if (!member || member->port == 0) return nullptr;
  PeerAddress address;
  address.host = member->host.empty() ? "127.0.0.1" : member->host;
  address.port = member->port;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    if (closing_) return nullptr;
    const auto it = clients_.find(rank);
    if (it != clients_.end()) {
      if (it->second->host() == address.host &&
          it->second->port() == address.port) {
        return it->second.get();
      }
      // The member restarted on a new address: retire (not destroy —
      // an in-flight exchange may still be blocked inside) and rewire.
      retired_clients_.push_back(std::move(it->second));
      clients_.erase(it);
    }
  }
  // Per-peer counter families: suspect churn toward rank 2 must be
  // attributable to rank 2, not smeared across the fabric. A rewired
  // client re-registers the same family — the counters just continue.
  net::FrameClientConfig client_config = config_.client;
  client_config.metrics = &telemetry_.metrics;
  client_config.metrics_prefix = "net_client_rank" + std::to_string(rank) + "_";
  auto created = std::make_unique<net::MuxFrameClient>(
      address.host, address.port, std::move(client_config));
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  if (closing_) return nullptr;  // the loser of a race with teardown
  // emplace keeps the incumbent on a create race; the loser is simply
  // destroyed (it has no traffic yet).
  const auto [it, inserted] = clients_.emplace(rank, std::move(created));
  return it->second.get();
}

net::MuxFrameClient* ShardRouter::client_lookup(std::size_t rank) const {
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  const auto it = clients_.find(rank);
  return it == clients_.end() ? nullptr : it->second.get();
}

std::vector<std::size_t> ShardRouter::peer_ranks() const {
  std::vector<std::size_t> ranks;
  for (const Member& member : membership_.view().members) {
    if (member.rank != config_.rank) ranks.push_back(member.rank);
  }
  return ranks;
}

std::future<SolveReply> ShardRouter::submit(SolveRequest request) {
  // A NaN bound has no key to route by: the local engine refuses it.
  if (solver::has_nan_bound(request.bounds)) {
    return service_.submit(std::move(request));
  }
  if (!distributed()) {
    counters_.local.add();
    return service_.submit(std::move(request));
  }

  auto canonical = std::make_shared<const CanonicalInstance>(
      canonicalize(request.instance));
  const CanonicalHash key =
      request_key(*canonical, request.solver, request.bounds);
  const std::size_t owner = shard_of(key);
  net::MuxFrameClient* const owner_client =
      owner == config_.rank ? nullptr : client_for(owner);

  if (owner == config_.rank || owner_client == nullptr) {
    if (owner == config_.rank) count_owned_hit(key);
    counters_.local.add();
    // The canonical form was already computed to pick the shard; the
    // engine must not pay for it twice.
    return service_.submit_canonicalized(std::move(request),
                                         std::move(canonical), key);
  }

  // Remote shard: the router owns this request's trace from here on,
  // minted before the replica probe so locally-absorbed hits are traced
  // too. The engine path above never reaches this: submit_canonicalized
  // mints there.
  const Clock::time_point arrival = Clock::now();
  char label_buffer[kKeyLabelChars];
  const std::string_view label = key_label(request.solver, key, label_buffer);
  if (request.trace_id == 0) {
    request.trace_id = telemetry_.tracer.start(label);
  } else {
    telemetry_.tracer.start_with_id(request.trace_id, label);
  }

  // Replica tier: a repeat hit on a peer's key that was forwarded (or
  // pushed by gossip) before is answered here, in the caller's labels as
  // a cache hit is — no network round trip. A pushed entry arrived
  // without an instance: one that does not fit this one is a miss.
  if (replicas_) {
    // A per-request fast path: the dual-clock sample is 1-in-N, as on
    // the engine's, while the span's allocation bill stays exact.
    const obs::AllocScope allocs;
    std::optional<obs::ScopedSample> replica_sample;
    if (telemetry_.profiler.should_sample()) replica_sample.emplace();
    if (auto cached = replicas_->lookup(key);
        cached && cached->fits(canonical->instance)) {
      counters_.replica_hits.add();
      SolveReply reply;
      reply.key = key;
      reply.cache_hit = true;
      reply.solver_used = request.solver;
      if (cached->solution) {
        reply.status = ReplyStatus::kSolved;
        reply.solution = to_original_labels(*cached->solution, *canonical);
      } else {
        reply.status = ReplyStatus::kInfeasible;
      }
      const double elapsed = seconds_since(arrival, Clock::now());
      obs::WorkSample work;
      if (replica_sample) {
        work = replica_sample->finish();
        obs::Profiler::record(prof_replica_, work);
      } else {
        const obs::AllocCounts delta = allocs.delta();
        work.alloc_count = delta.count;
        work.alloc_bytes = delta.bytes;
      }
      obs::Span span;
      span.name = "replica_lookup";
      span.rank = static_cast<int>(config_.rank);
      span.duration_seconds = elapsed;
      span.cpu_seconds = work.cpu_seconds < elapsed ? work.cpu_seconds
                                                    : elapsed;
      span.alloc_count = work.alloc_count;
      span.alloc_bytes = work.alloc_bytes;
      telemetry_.tracer.record(request.trace_id, std::move(span));
      telemetry_.tracer.finish(request.trace_id, elapsed);
      router_latency_hist_.record(elapsed);
      reply.trace_id = request.trace_id;
      return ready_reply_future(std::move(reply));
    }
  }

  auto forward = std::make_shared<Forward>(
      Forward{std::move(request), std::move(canonical), key, arrival, {}});
  std::future<SolveReply> future = forward->promise.get_future();
  send_forward(std::move(forward), *owner_client);
  return future;
}

void ShardRouter::send_forward(std::shared_ptr<Forward> forward,
                               net::MuxFrameClient& client) {
  // The forwarded request carries the *canonical* instance, so the
  // owner's reply is already in canonical labels — finish_forward then
  // translates it into the caller's, as the engine does for a cache
  // hit. The key rides along so the owner answers an exact hit without
  // parsing the instance, and the trace id so the owner records its
  // engine spans under it and ships them back in the reply.
  const SolveRequest& request = forward->request;
  SolveRequest remote_request{forward->canonical->instance, request.solver,
                              request.bounds, request.deadline_seconds,
                              request.deadline_policy};
  remote_request.trace_id = request.trace_id;
  net::Frame frame;
  frame.type = net::FrameType::kSolveRequest;
  frame.payload = encode_wire_request(remote_request, forward->key);
  const Clock::time_point wire_start = Clock::now();
  client.call_async(std::move(frame),
                    [this, forward = std::move(forward),
                     wire_start](std::optional<net::Frame> reply) mutable {
                      finish_forward(std::move(forward), std::move(reply),
                                     wire_start);
                    });
}

void ShardRouter::finish_forward(std::shared_ptr<Forward> forward,
                                 std::optional<net::Frame> reply_frame,
                                 Clock::time_point wire_start) {
  const double wire_seconds = seconds_since(wire_start, Clock::now());
  wire_hist_.record(wire_seconds);
  // No thread owns the exchange while it is on the wire, so the sample
  // is wall-only (like batch_wait): all of it counts as blocked time,
  // which is what tells a slow peer from a slow local solver.
  obs::WorkSample waited;
  waited.wall_seconds = wire_seconds;
  obs::Profiler::record(prof_wire_, waited);
  std::optional<SolveReply> remote;
  if (reply_frame && reply_frame->type == net::FrameType::kSolveReply) {
    std::string error;
    remote = decode_wire_reply(reply_frame->payload, error);
  }

  // A remote answer is only authoritative when the owner actually
  // answered this forward's question: rejections, errors, another key's
  // entry and a mapping that does not fit this instance degrade to a
  // local solve just like an unreachable peer, and nothing is filed.
  if (!remote || remote->key != forward->key ||
      (remote->status != ReplyStatus::kSolved &&
       remote->status != ReplyStatus::kInfeasible) ||
      (remote->solution &&
       !fits_instance(remote->solution->mapping,
                      forward->canonical->instance))) {
    counters_.forward_failures.add();
    counters_.local_fallbacks.add();
    fail_over(std::move(forward), wire_start, wire_seconds);
    return;
  }

  // Replicate: the next repeat hit on this key is served locally until
  // the tier's LRU evicts it (the entry is immutable, so the copy can
  // never go stale).
  if (replicas_) {
    replicas_->insert(forward->key, CachedSolution{remote->solution,
                                                   remote->cost_seconds});
  }
  counters_.forwarded.add();
  if (remote->cache_hit) counters_.forward_hits.add();
  SolveReply reply = std::move(*remote);
  if (reply.solution) {
    reply.solution = to_original_labels(*reply.solution, *forward->canonical);
  }
  // The caller's spans are offsets from its arrival. The owner's spans
  // came back as offsets from the owner's submit point; shifting them by
  // the wire-start offset lines the two ranks' work up on one timeline
  // (clock skew between ranks is absorbed — only the origin's clock is
  // used for placement).
  const std::uint64_t trace_id = forward->request.trace_id;
  const double wire_offset = seconds_since(forward->arrival, wire_start);
  telemetry_.tracer.record(trace_id, "wire_round_trip",
                           static_cast<int>(config_.rank), wire_offset,
                           wire_seconds);
  for (obs::Span& span : reply.remote_spans) {
    span.start_seconds += wire_offset;
    telemetry_.tracer.record(trace_id, std::move(span));
  }
  reply.remote_spans.clear();
  const double total = seconds_since(forward->arrival, Clock::now());
  telemetry_.tracer.finish(trace_id, total);
  router_latency_hist_.record(total);
  reply.trace_id = trace_id;
  forward->promise.set_value(std::move(reply));
}

void ShardRouter::fail_over(std::shared_ptr<Forward> forward,
                            Clock::time_point wire_start,
                            double wire_seconds) {
  // Failover: the caller's own request, solved locally with its own
  // deadline options, canonical form and key, so the engine answers in
  // the caller's labels and the local cache fills under the key a
  // recovered owner would use. Twins failing over together meet in the
  // engine's dedup: one solve.
  //
  // Nothing here waits: the completion answers the caller, on this
  // thread for a hit and on the engine worker otherwise. It holds the
  // forward and this rank's telemetry, never the router, so a router
  // torn down meanwhile is not touched.
  SolveRequest& request = forward->request;
  // Charge the dead wire exchange against the caller's budget: the
  // rescue solve gets what REMAINS of the deadline, not a fresh full
  // grant. Floored at zero so an already-expired request hits the
  // engine's downgrade/reject policy immediately instead of burning a
  // worker on an answer nobody is waiting for.
  if (std::isfinite(request.deadline_seconds)) {
    request.deadline_seconds -= seconds_since(forward->arrival, Clock::now());
    if (request.deadline_seconds < 0.0) request.deadline_seconds = 0.0;
  }
  // The caller's trace follows it onto the failover path: the engine
  // adopts the id, so the trace shows the dead wire exchange AND the
  // local rescue solve — the whole story of the request.
  telemetry_.tracer.record(request.trace_id, "forward_failover",
                           static_cast<int>(config_.rank),
                           seconds_since(forward->arrival, wire_start),
                           wire_seconds);
  obs::Telemetry* const telemetry = &telemetry_;
  obs::Histogram* const latency = &router_latency_hist_;
  service_.submit_canonicalized(
      std::move(request), forward->canonical, forward->key,
      [forward, telemetry, latency](SolveReply reply) {
        // The engine finished the trace with only the rescue-solve
        // span's clock; re-finish with the full router-side total
        // (finish keeps the max) and feed the router latency histogram
        // — failover requests must not vanish from the tail.
        const double total = seconds_since(forward->arrival, Clock::now());
        telemetry->tracer.finish(reply.trace_id, total);
        latency->record(total);
        forward->promise.set_value(std::move(reply));
      });
}

void ShardRouter::count_owned_hit(const CanonicalHash& key) {
  HotKeyStripe& stripe = owned_hits_[(key.lo >> 32) % kHotKeyStripes];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  if (const auto it = stripe.hits.find(key); it != stripe.hits.end()) {
    ++it->second;
    return;
  }
  // Bounded tracking window: only gossip_now() clears the stripes, which
  // a node with gossip disabled never runs — a long uptime over millions
  // of distinct keys must not grow them without limit. Hot keys recur, so
  // dropping first-seen keys past the cap loses nothing a digest (top-K
  // of it) would have kept.
  if (stripe.hits.size() >= kMaxTrackedHotKeysPerStripe) return;
  stripe.hits.emplace(key, 1);
}

void ShardRouter::gossip_now() {
  if (!distributed()) return;
  std::vector<std::pair<CanonicalHash, std::uint64_t>> hot;
  for (HotKeyStripe& stripe : owned_hits_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, count] : stripe.hits) {
      if (count >= config_.gossip_min_hits) hot.emplace_back(key, count);
    }
    stripe.hits.clear();
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  // The hottest keys still cached, shipped whole: a peer files them in
  // its replica tier before it acks.
  EntryBatch batch;
  batch.from = config_.rank;
  for (const auto& [key, hits] : hot) {
    if (batch.entries.size() >= config_.gossip_top_k) break;
    if (auto value = service_.cache().peek(key)) {
      batch.entries.emplace_back(key, std::move(*value));
    }
  }
  if (batch.entries.empty()) return;

  const net::Frame frame = entries_frame(batch);
  for (const std::size_t r : peer_ranks()) {
    net::MuxFrameClient* const client = client_for(r);
    if (client == nullptr) continue;
    const auto ack = client->call(frame);
    if (ack && ack->type == net::FrameType::kPong) {
      counters_.gossip_sent.add();
    } else {
      counters_.gossip_failures.add();
    }
  }
}

bool ShardRouter::peer_suspect(std::size_t rank) const {
  net::MuxFrameClient* const client = client_lookup(rank);
  return client != nullptr && client->suspect();
}

// --- Membership ---------------------------------------------------------

std::uint64_t ShardRouter::epoch() const { return membership_.epoch(); }

MembershipView ShardRouter::membership_view() const {
  return membership_.view();
}

MembershipStats ShardRouter::membership_stats() const {
  MembershipStats out;
  out.epoch = membership_.epoch();
  out.members = membership_.member_count();
  out.joins = counters_.joins.value();
  out.deaths = counters_.deaths.value();
  out.suspects = counters_.suspects.value();
  out.handoffs_started = counters_.handoffs_started.value();
  out.handoffs_completed = counters_.handoffs_completed.value();
  out.handoff_chunks_sent = counters_.handoff_chunks_sent.value();
  out.handoff_chunks_received = counters_.handoff_chunks_received.value();
  out.handoff_entries_sent = counters_.handoff_entries_sent.value();
  out.handoff_entries_received = counters_.handoff_entries_received.value();
  out.double_writes = counters_.double_writes.value();
  return out;
}

bool ShardRouter::join_now() {
  if (!config_.join_seed) return false;
  join_requested_.store(true, std::memory_order_relaxed);
  // A transient client: the join is a one-shot exchange with whatever
  // seed the operator named, not necessarily a future peer — its
  // counters stay in a registry of its own, and no connection persists.
  net::FrameClientConfig seed_config = config_.client;
  seed_config.metrics = nullptr;
  net::MuxFrameClient seed(config_.join_seed->host, config_.join_seed->port,
                           std::move(seed_config));
  Member self;
  self.rank = config_.rank;
  self.host = config_.advertise.host;
  self.port = config_.advertise.port;
  net::Frame frame;
  frame.type = net::FrameType::kJoinRequest;
  frame.payload = encode_join_request(self);
  const auto reply = seed.call(frame);
  if (!reply || reply->type != net::FrameType::kMembershipUpdate) {
    return false;
  }
  std::string error;
  const auto update = decode_membership_update(reply->payload, error);
  if (!update) return false;
  const auto changes = membership_.handle_update(update->view);
  membership_.note_heard_from(update->from);
  apply_membership_changes(changes);
  return membership_.member_count() > 1;
}

void ShardRouter::heartbeat_now() {
  // A rank still alone keeps dialing its seed once its owner asked it
  // to join — an unreachable seed at startup (rolling restart, slow
  // peer) must not strand the rank outside the fleet forever.
  if (membership_.member_count() <= 1 &&
      join_requested_.load(std::memory_order_relaxed)) {
    join_now();
  }

  const auto ticked = membership_.tick();
  if (!ticked.suspected.empty() || !ticked.died.empty()) {
    counters_.suspects.add(ticked.suspected.size());
    counters_.deaths.add(ticked.died.size());
    {
      // A dead rank's handoff dedup is forgotten: if it rejoins later
      // (new epoch) it deserves a fresh stream.
      const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
      for (const std::size_t rank : ticked.died) {
        handoff_epochs_.erase(rank);
      }
    }
    publish_membership_gauges();
  }

  // One view exchange per live peer, dispatched to the forward pool so
  // a dead peer's connect timeout stalls a pool worker, never the
  // timer. At most one exchange per peer in flight: the timer must not
  // stack rounds onto a slow peer.
  const MembershipView view = membership_.view();
  MembershipUpdate update;
  update.from = config_.rank;
  update.view = view;
  net::Frame frame;
  frame.type = net::FrameType::kMembershipUpdate;
  frame.payload = encode_membership_update(update);
  for (const Member& member : view.members) {
    if (member.rank == config_.rank) continue;
    {
      const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
      if (!heartbeats_in_flight_.insert(member.rank).second) continue;
    }
    forward_pool_.submit([this, rank = member.rank, frame] {
      std::optional<net::Frame> reply;
      if (net::MuxFrameClient* const client = client_for(rank)) {
        reply = client->call(frame);
      }
      // Any answer proves the peer alive, even one from a node that
      // cannot merge views.
      if (reply) membership_.note_heard_from(rank);
      if (reply && reply->type == net::FrameType::kMembershipUpdate) {
        std::string error;
        if (const auto peer_update =
                decode_membership_update(reply->payload, error)) {
          const auto changes = membership_.handle_update(peer_update->view);
          membership_.note_heard_from(peer_update->from);
          apply_membership_changes(changes);
        }
      }
      const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
      heartbeats_in_flight_.erase(rank);
    });
  }
}

void ShardRouter::apply_membership_changes(
    const Membership::ChangeSet& changes) {
  if (!changes.changed) return;
  publish_membership_gauges();
  if (!changes.joined.empty() || !changes.left.empty()) {
    for (const Member& member : changes.joined) {
      if (member.rank != config_.rank) counters_.joins.add();
    }
    // Members a higher-epoch view dropped were detected dead by a peer;
    // count them here too so every rank's death counter moves.
    counters_.deaths.add(changes.left.size());
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    for (const std::size_t rank : changes.left) {
      handoff_epochs_.erase(rank);
    }
  }
  for (const Member& member : changes.joined) {
    if (member.rank == config_.rank) continue;
    // Wire (or rewire, on an address change) the client now, then
    // stream the newcomer the slice the ring just assigned it.
    client_for(member.rank);
    schedule_handoff(member);
  }
}

void ShardRouter::schedule_handoff(const Member& target) {
  const std::uint64_t epoch = membership_.epoch();
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    // Equal-epoch updates naming the same joiner arrive from several
    // peers; one stream per (target, epoch) is enough.
    auto& last = handoff_epochs_[target.rank];
    if (last >= epoch) return;
    last = epoch;
    counters_.handoffs_started.add();
    ++outstanding_handoffs_;
  }
  forward_pool_.submit([this, target] { run_handoff(target); });
}

void ShardRouter::run_handoff(Member target) {
  net::MuxFrameClient* const client = client_for(target.rank);
  if (client == nullptr) {
    finish_handoff(false);
    return;
  }
  // The slice: every owned entry the ring now assigns to the newcomer.
  // keys() is a point-in-time snapshot; entries answered during the
  // stream are covered by the double-write path, entries evicted before
  // their chunk simply drop out (peek misses are skipped).
  std::vector<CanonicalHash> slice;
  for (const CanonicalHash& key : service_.cache().keys()) {
    if (shard_of(key) == target.rank) slice.push_back(key);
  }

  // Bounded chunks: each frame carries at most handoff_chunk_entries
  // entries, so neither the frame size nor the receiver's cache hold
  // time grows with the slice.
  const std::size_t per_chunk =
      std::max<std::size_t>(1, config_.handoff_chunk_entries);
  std::size_t sent_entries = 0;
  std::size_t sent_chunks = 0;
  bool completed = true;
  for (std::size_t offset = 0; offset < slice.size(); offset += per_chunk) {
    EntryBatch chunk;
    chunk.from = config_.rank;
    const std::size_t end = std::min(slice.size(), offset + per_chunk);
    for (std::size_t i = offset; i < end; ++i) {
      if (auto value = service_.cache().peek(slice[i])) {
        chunk.entries.emplace_back(slice[i], std::move(*value));
      }
    }
    if (chunk.entries.empty()) continue;
    const Clock::time_point chunk_start = Clock::now();
    const auto ack = client->call(entries_frame(chunk));
    handoff_chunk_hist_.record(seconds_since(chunk_start, Clock::now()));
    if (!ack || ack->type != net::FrameType::kPong) {
      completed = false;
      break;
    }
    sent_entries += chunk.entries.size();
    ++sent_chunks;
  }

  counters_.handoff_chunks_sent.add(sent_chunks);
  counters_.handoff_entries_sent.add(sent_entries);
  finish_handoff(completed);
}

void ShardRouter::finish_handoff(bool completed) {
  if (completed) counters_.handoffs_completed.add();
  const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
  --outstanding_handoffs_;
  handoff_cv_.notify_all();
}

void ShardRouter::wait_handoffs_idle() {
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  handoff_cv_.wait(lock, [this] { return outstanding_handoffs_ == 0; });
}

void ShardRouter::note_served(const CanonicalHash& key) {
  const std::size_t owner = shard_of(key);
  if (owner == config_.rank) {
    count_owned_hit(key);
    return;
  }
  // The transition-window write path: this rank just answered a key the
  // ring assigns elsewhere (the requester dialed the old owner, or the
  // bulk stream has not reached this entry yet). Copy the answer over
  // asynchronously — the reply to the requester must not wait on it.
  forward_pool_.submit([this, key, owner] {
    auto value = service_.cache().peek(key);
    if (!value) return;  // evicted already; the new owner will re-solve
    net::MuxFrameClient* const client = client_for(owner);
    if (client == nullptr) return;
    EntryBatch batch;
    batch.from = config_.rank;
    batch.entries.emplace_back(key, std::move(*value));
    const auto ack = client->call(entries_frame(batch));
    if (ack && ack->type == net::FrameType::kPong) {
      counters_.double_writes.add();
    }
  });
}

net::Frame ShardRouter::handle_fabric_frame(const net::Frame& request) {
  net::Frame reply;
  switch (request.type) {
    case net::FrameType::kJoinRequest:
      return handle_join_frame(request);
    case net::FrameType::kMembershipUpdate:
      return handle_membership_frame(request);
    case net::FrameType::kEntries:
      return handle_entries_frame(request);
    default:
      reply.type = net::FrameType::kError;
      reply.payload = "unexpected membership frame";
      return reply;
  }
}

net::Frame ShardRouter::handle_join_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  const auto member = decode_join_request(request.payload, error);
  if (!member) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad join request: " + error;
    return reply;
  }
  apply_membership_changes(membership_.handle_join(*member));
  // The reply carries the merged view: the joiner adopts it (higher
  // epoch) and learns the whole fleet from this one exchange.
  MembershipUpdate update;
  update.from = config_.rank;
  update.view = membership_.view();
  reply.type = net::FrameType::kMembershipUpdate;
  reply.payload = encode_membership_update(update);
  return reply;
}

net::Frame ShardRouter::handle_membership_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  const auto update = decode_membership_update(request.payload, error);
  if (!update) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad membership update: " + error;
    return reply;
  }
  const auto changes = membership_.handle_update(update->view);
  membership_.note_heard_from(update->from);
  apply_membership_changes(changes);
  // Answer with our (possibly newer) view — a stale sender catches up
  // on the same exchange.
  MembershipUpdate ours;
  ours.from = config_.rank;
  ours.view = membership_.view();
  reply.type = net::FrameType::kMembershipUpdate;
  reply.payload = encode_membership_update(ours);
  return reply;
}

net::Frame ShardRouter::handle_entries_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  auto batch = decode_entries(request.payload, error);
  if (!batch) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad entries: " + error;
    return reply;
  }
  membership_.note_heard_from(batch->from);
  // Filed by this rank's own ring. Entries are immutable under their
  // canonical key, so a batch replayed by a retrying sender is harmless.
  std::size_t pushed = 0;
  std::size_t cached = 0;
  for (auto& [key, value] : batch->entries) {
    if (batch->from != config_.rank && shard_of(key) == batch->from) {
      if (replicas_) {
        // A replica stays a plain exact-key entry: the tier keeps no
        // bounds index.
        value.instance_key.reset();
        value.bounds.reset();
        replicas_->insert(key, std::move(value));
      }
      ++pushed;
    } else {
      service_.cache().insert(key, std::move(value));
      ++cached;
    }
  }
  if (pushed > 0) {
    counters_.gossip_received.add();
    if (replicas_) counters_.prefetched.add(pushed);
  }
  if (cached > 0) {
    counters_.handoff_chunks_received.add();
    counters_.handoff_entries_received.add(cached);
  }
  reply.type = net::FrameType::kPong;
  return reply;
}

void ShardRouter::publish_membership_gauges() {
  epoch_gauge_.set(static_cast<double>(membership_.epoch()));
  members_gauge_.set(static_cast<double>(membership_.member_count()));
}

RouterStats ShardRouter::stats() const {
  RouterStats out;
  out.local = counters_.local.value();
  out.forwarded = counters_.forwarded.value();
  out.forward_hits = counters_.forward_hits.value();
  out.forward_failures = counters_.forward_failures.value();
  out.local_fallbacks = counters_.local_fallbacks.value();
  out.replica_hits = counters_.replica_hits.value();
  out.prefetched = counters_.prefetched.value();
  out.gossip_sent = counters_.gossip_sent.value();
  out.gossip_failures = counters_.gossip_failures.value();
  out.gossip_received = counters_.gossip_received.value();
  return out;
}

CacheStats ShardRouter::replica_stats() const {
  return replicas_ ? replicas_->stats() : CacheStats{};
}

std::vector<std::pair<std::size_t, net::FrameClientStats>>
ShardRouter::client_stats() const {
  std::vector<std::pair<std::size_t, net::FrameClientStats>> out;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    out.reserve(clients_.size());
    for (const auto& [rank, client] : clients_) {
      out.emplace_back(rank, client->stats());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ShardRouter::write_stats_json(std::ostream& out,
                                   const RouterStats& stats) {
  out << "{\"local\":" << stats.local
      << ",\"forwarded\":" << stats.forwarded
      << ",\"forward_hits\":" << stats.forward_hits
      << ",\"forward_failures\":" << stats.forward_failures
      << ",\"local_fallbacks\":" << stats.local_fallbacks
      << ",\"replica_hits\":" << stats.replica_hits
      << ",\"prefetched\":" << stats.prefetched
      << ",\"gossip_sent\":" << stats.gossip_sent
      << ",\"gossip_failures\":" << stats.gossip_failures
      << ",\"gossip_received\":" << stats.gossip_received << "}";
}

void ShardRouter::write_membership_stats_json(std::ostream& out,
                                              const MembershipStats& stats) {
  out << "{\"epoch\":" << stats.epoch
      << ",\"members\":" << stats.members
      << ",\"joins\":" << stats.joins
      << ",\"deaths\":" << stats.deaths
      << ",\"suspects\":" << stats.suspects
      << ",\"handoffs_started\":" << stats.handoffs_started
      << ",\"handoffs_completed\":" << stats.handoffs_completed
      << ",\"handoff_chunks_sent\":" << stats.handoff_chunks_sent
      << ",\"handoff_chunks_received\":" << stats.handoff_chunks_received
      << ",\"handoff_entries_sent\":" << stats.handoff_entries_sent
      << ",\"handoff_entries_received\":" << stats.handoff_entries_received
      << ",\"double_writes\":" << stats.double_writes << "}";
}

}  // namespace prts::service
