// Distributed fabric throughput on a loopback world of two: the same
// repeated-probe workload as service_throughput, but driven through a
// ShardRouter whose remote shard lives behind a real FrameServer on
// 127.0.0.1 — so the numbers include canonicalization, wire encoding,
// TCP round trips and the owner's cache. Emits BENCH_fabric.json so
// the perf trajectory records what a forwarded miss and a forwarded
// hit cost relative to purely local serving.
//
// A second pair of laps measures the pipelining win: a remote-miss
// workload pushed by 8 threads through ONE MuxFrameClient whose calls
// are serialized to depth 1 (lock-step: one exchange in flight) versus
// the same client unserialized (request-id multiplexing, 8 in flight on
// the single connection). Loopback has no propagation delay, so the wire
// laps' owner holds every inbound frame for --wire-delay seconds
// (default 2ms — a cross-rack round trip): exactly the latency the
// lock-step discipline pays per exchange and the mux discipline
// overlaps. Every request uses a distinct instance, so the owner's
// engine never batch-deduplicates the concurrent solves.
//
//   fabric_throughput [--requests N] [--unique U] [--solver NAME]
//                     [--threads T] [--mux-requests M] [--wire-delay S]
//                     [--quick] [--out PATH]
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "model/generator.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "service/router.hpp"
#include "service/wire.hpp"

namespace {

using namespace prts;

/// One timed pass of the workload through the router; returns seconds.
double run_pass(service::ShardRouter& router,
                const std::vector<Instance>& instances,
                std::size_t requests, const std::string& solver,
                std::size_t& solved) {
  // Sequential client, like service_throughput: each repeat arrives
  // after its twin completed, so the second pass measures *cache*
  // forwarding, not in-flight dedup.
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < requests; ++r) {
    service::SolveRequest request{instances[r % instances.size()], solver,
                                  {}};
    if (router.submit(std::move(request)).get().status ==
        service::ReplyStatus::kSolved) {
      ++solved;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The lock-step discipline on the mux client: callers take turns, so
/// exactly one exchange is in flight — a MuxFrameClient at depth 1.
class LockStep {
 public:
  explicit LockStep(prts::net::MuxFrameClient& client) : client_(client) {}

  std::optional<prts::net::Frame> call(const prts::net::Frame& frame) {
    const std::lock_guard<std::mutex> turn(turn_);
    return client_.call(frame);
  }

 private:
  prts::net::MuxFrameClient& client_;
  std::mutex turn_;
};

/// `concurrency` threads drain the instance list through one shared
/// client (LockStep or a bare MuxFrameClient — both expose
/// call(Frame)); returns seconds, accumulates solved replies.
template <typename Client>
double run_wire_pass(Client& client, const std::vector<Instance>& instances,
                     const std::string& solver, std::size_t concurrency,
                     std::size_t& solved) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> ok{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < concurrency; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= instances.size()) return;
        service::SolveRequest request{instances[i], solver, {}};
        prts::net::Frame frame;
        frame.type = prts::net::FrameType::kSolveRequest;
        frame.payload = service::encode_wire_request(request);
        const std::optional<prts::net::Frame> reply = client.call(frame);
        if (!reply || reply->type != prts::net::FrameType::kSolveReply) {
          continue;
        }
        std::string error;
        const auto decoded =
            service::decode_wire_reply(reply->payload, error);
        if (decoded && decoded->status == service::ReplyStatus::kSolved) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  solved += ok.load();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Distinct instances (one per request): engine batching keys on
/// (instance, solver), so identical instances would serialize behind
/// one batch entry and hide the pipelining win.
std::vector<Instance> distinct_instances(std::size_t count,
                                         std::uint64_t seed_base) {
  std::vector<Instance> instances;
  instances.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(seed_base + i);
    instances.push_back(Instance{
        paper::chain(rng),
        Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }
  return instances;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 200;
  std::size_t unique = 8;
  std::size_t threads = 0;
  std::size_t mux_requests = 256;
  double wire_delay = 0.002;
  constexpr std::size_t kWireConcurrency = 8;
  std::string solver = "exact";
  std::string out_path = "BENCH_fabric.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--requests") {
      requests = std::stoul(next());
    } else if (arg == "--unique") {
      unique = std::stoul(next());
    } else if (arg == "--threads") {
      threads = std::stoul(next());
    } else if (arg == "--solver") {
      solver = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--mux-requests") {
      mux_requests = std::stoul(next());
    } else if (arg == "--wire-delay") {
      wire_delay = std::stod(next());
    } else if (arg == "--quick") {
      requests = 60;
      unique = 4;
      mux_requests = 64;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (unique == 0 || requests == 0) {
    std::cerr << "--requests and --unique must be positive\n";
    return 2;
  }

  std::vector<Instance> instances;
  for (std::size_t u = 0; u < unique; ++u) {
    Rng rng(1000 + u);
    instances.push_back(Instance{
        paper::chain(rng),
        Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  // Rank 0 (the driver's side) and rank 1 (the remote owner) of a
  // loopback world of two.
  service::ServiceConfig config;
  config.threads = threads;
  config.max_queue_depth = requests + 1;
  service::SolveService local(config);
  service::SolveService remote(config);
  // Sized for the pipelining laps: 8 handler invocations in flight on
  // one connection, plus headroom for the router laps.
  ThreadPool server_pool(kWireConcurrency + 2);
  auto server = prts::net::FrameServer::start(
      0, service::make_fabric_handler(remote), server_pool);
  if (!server) {
    std::cerr << "cannot open a loopback listener\n";
    return 1;
  }
  service::RouterConfig router_config;
  router_config.world_size = 2;
  router_config.rank = 0;
  router_config.peers = {{"127.0.0.1", 1},
                         {"127.0.0.1", server->port()}};
  service::ShardRouter router(local, router_config);

  std::size_t solved = 0;
  const double cold_seconds =
      run_pass(router, instances, requests, solver, solved);
  const double warm_seconds =
      run_pass(router, instances, requests, solver, solved);
  if (solved != 2 * requests) {
    std::cerr << "warning: " << (2 * requests - solved) << "/"
              << 2 * requests << " requests not solved\n";
  }

  // Pipelining laps: same remote-miss shape, one connection, eight
  // pushing threads — first serialized to depth 1 (lock-step), then
  // multiplexed. heur-p keeps the per-solve cost small so the laps
  // measure the wire discipline, not the solver.
  const std::string wire_solver = "heur-p";
  service::SolveService wire_remote(config);
  prts::net::FrameHandler wire_handler =
      [fabric = service::make_fabric_handler(wire_remote),
       wire_delay](const prts::net::Frame& frame) {
        if (wire_delay > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(wire_delay));
        }
        return fabric(frame);
      };
  auto wire_server = prts::net::FrameServer::start(
      0, std::move(wire_handler), server_pool);
  if (!wire_server) {
    std::cerr << "cannot open a loopback listener for the wire laps\n";
    return 1;
  }
  std::size_t wire_solved = 0;
  double lockstep_seconds = 0.0;
  double mux_seconds = 0.0;
  {
    const std::vector<Instance> lockstep_instances =
        distinct_instances(mux_requests, /*seed_base=*/500000);
    prts::net::MuxFrameClient client("127.0.0.1", wire_server->port());
    LockStep lockstep(client);
    lockstep_seconds = run_wire_pass(lockstep, lockstep_instances,
                                     wire_solver, kWireConcurrency,
                                     wire_solved);
  }
  std::uint64_t mux_max_inflight = 0;
  {
    const std::vector<Instance> mux_instances =
        distinct_instances(mux_requests, /*seed_base=*/900000);
    prts::net::MuxFrameClient mux("127.0.0.1", wire_server->port());
    mux_seconds = run_wire_pass(mux, mux_instances, wire_solver,
                                kWireConcurrency, wire_solved);
    mux_max_inflight = mux.stats().max_inflight;
  }
  if (wire_solved != 2 * mux_requests) {
    std::cerr << "warning: " << (2 * mux_requests - wire_solved) << "/"
              << 2 * mux_requests << " wire requests not solved\n";
  }
  const double lockstep_rps =
      static_cast<double>(mux_requests) / lockstep_seconds;
  const double mux_rps = static_cast<double>(mux_requests) / mux_seconds;
  const double mux_speedup = mux_rps / lockstep_rps;
  if (mux_speedup < 3.0) {
    std::cerr << "warning: mux speedup " << mux_speedup
              << "x below the 3x pipelining floor\n";
  }

  const double cold_rps = static_cast<double>(requests) / cold_seconds;
  const double warm_rps = static_cast<double>(requests) / warm_seconds;
  const service::RouterStats stats = router.stats();
  const double forward_share =
      static_cast<double>(stats.forwarded) /
      static_cast<double>(stats.forwarded + stats.local);

  std::cout << "fabric throughput (world 2, loopback): " << requests
            << " requests over " << unique << " unique instances, solver "
            << solver << "\n"
            << "  cold pass  " << cold_rps << " req/s\n"
            << "  warm pass  " << warm_rps << " req/s\n"
            << "  forwarded  " << stats.forwarded << " (hits "
            << stats.forward_hits << "), local " << stats.local << "\n"
            << "pipelining (" << mux_requests << " remote misses, "
            << kWireConcurrency << " threads, one connection, "
            << wire_delay * 1e3 << "ms emulated RTT):\n"
            << "  lock-step  " << lockstep_rps << " req/s\n"
            << "  mux        " << mux_rps << " req/s ("
            << mux_speedup << "x, max inflight " << mux_max_inflight
            << ")\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"fabric_throughput\",\"world\":2,\"solver\":\""
      << solver << "\",\"requests\":" << requests
      << ",\"unique_instances\":" << unique << ",\"threads\":" << threads
      << ",\"cold_seconds\":" << cold_seconds << ",\"cold_rps\":" << cold_rps
      << ",\"warm_seconds\":" << warm_seconds << ",\"warm_rps\":" << warm_rps
      << ",\"forwarded\":" << stats.forwarded
      << ",\"forward_hits\":" << stats.forward_hits
      << ",\"local\":" << stats.local
      << ",\"forward_share\":" << forward_share
      << ",\"mux_requests\":" << mux_requests
      << ",\"wire_concurrency\":" << kWireConcurrency
      << ",\"wire_delay_seconds\":" << wire_delay
      << ",\"lockstep_rps\":" << lockstep_rps
      << ",\"mux_rps\":" << mux_rps
      << ",\"mux_speedup\":" << mux_speedup
      << ",\"mux_max_inflight\":" << mux_max_inflight << "}\n";
  return 0;
}
