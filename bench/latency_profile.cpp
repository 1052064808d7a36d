// Latency profile on the warm path: the same repeated-instance workload
// service_throughput uses, with the engine's always-on telemetry
// (registry + tracer live, every request traced). Emits
// BENCH_observability.json with the throughput and the p50/p90/p99/p999
// of the run's engine_request_latency_seconds histogram — the numbers
// the ROADMAP's tail-latency framing asks for.
//
// A second phase measures the same warm path under concurrent load: N
// closed-loop client threads hammer one instrumented engine and each
// records its own per-request wall latency, so the reported
// p50/p99/p999 (and jitter = p99 - p50) include queueing and
// cross-client interference that the sequential phase cannot see.
//
//   latency_profile [--requests N] [--unique U] [--solver NAME]
//                   [--threads T] [--clients C] [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/generator.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"

namespace {

using namespace prts;

/// Warm-path run: cache enabled, U unique probes cycled sequentially,
/// so after the first lap every request is a cache hit — the path where
/// instrumentation cost would show, because the work per request is
/// small. Returns wall seconds.
double run_workload(const std::vector<Instance>& instances,
                    std::size_t requests, const std::string& solver,
                    std::size_t threads, obs::Telemetry& telemetry) {
  service::ServiceConfig config;
  config.threads = threads;
  config.max_queue_depth = requests + 1;
  config.telemetry = &telemetry;
  service::SolveService engine(config);

  const auto start = std::chrono::steady_clock::now();
  std::size_t answered = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    service::SolveRequest request{instances[r % instances.size()], solver,
                                  {}};
    const service::SolveReply reply = engine.submit(std::move(request)).get();
    if (reply.status == service::ReplyStatus::kSolved ||
        reply.status == service::ReplyStatus::kInfeasible) {
      ++answered;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (answered != requests) {
    std::cerr << "warning: " << (requests - answered) << "/" << requests
              << " requests unanswered\n";
  }
  return seconds;
}

struct ConcurrentResult {
  double seconds = 0.0;
  double rps = 0.0;
  std::vector<double> latencies;  ///< sorted, seconds

  double quantile(double q) const {
    if (latencies.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(index, latencies.size() - 1)];
  }
};

/// Closed-loop concurrent phase: `clients` threads split `requests`
/// between them against one shared engine; every thread clocks each of
/// its own requests end to end.
ConcurrentResult run_concurrent(const std::vector<Instance>& instances,
                                std::size_t requests,
                                const std::string& solver,
                                std::size_t threads, std::size_t clients) {
  service::ServiceConfig config;
  config.threads = threads;
  config.max_queue_depth = requests + clients + 1;
  service::SolveService engine(config);

  ConcurrentResult result;
  std::mutex mutex;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      // Interleave so every client cycles the whole instance set.
      std::vector<double> mine;
      const std::size_t share =
          requests / clients + (c < requests % clients ? 1 : 0);
      mine.reserve(share);
      for (std::size_t r = 0; r < share; ++r) {
        service::SolveRequest request{
            instances[(c + r * clients) % instances.size()], solver, {}};
        const auto begin = std::chrono::steady_clock::now();
        engine.submit(std::move(request)).get();
        mine.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
      }
      const std::lock_guard<std::mutex> lock(mutex);
      result.latencies.insert(result.latencies.end(), mine.begin(),
                              mine.end());
    });
  }
  for (std::thread& client : pool) client.join();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.rps = result.seconds > 0.0
                   ? static_cast<double>(result.latencies.size()) /
                         result.seconds
                   : 0.0;
  std::sort(result.latencies.begin(), result.latencies.end());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 5000;
  std::size_t unique = 4;
  std::size_t threads = 0;
  std::size_t clients = 8;
  std::string solver = "heur-p";
  std::string out_path = "BENCH_observability.json";
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
    } else if (arg == "--clients") {
      clients = std::stoul(next());
    } else if (arg == "--solver") {
      solver = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quick") {
      requests = 500;
      unique = 3;
      clients = 4;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (unique == 0 || requests == 0 || clients == 0) {
    std::cerr << "--requests, --unique and --clients must be positive\n";
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

  // Every request counted, latency-recorded and traced (the tracer ring
  // cycling through all N requests); the run includes its warm-up lap.
  obs::Telemetry telemetry;
  const double seconds =
      run_workload(instances, requests, solver, threads, telemetry);
  const double rps = static_cast<double>(requests) / seconds;

  const obs::Histogram::Snapshot latency =
      telemetry.metrics.histogram("engine_request_latency_seconds")
          .snapshot();
  if (latency.count != requests) {
    std::cerr << "warning: latency histogram holds " << latency.count
              << " samples, expected " << requests << "\n";
  }

  // Concurrent closed-loop load on a fresh engine — client-side
  // latencies, so queueing shows up in the quantiles.
  const ConcurrentResult concurrent =
      run_concurrent(instances, requests, solver, threads, clients);
  const double concurrent_p50 = concurrent.quantile(0.50);
  const double concurrent_p99 = concurrent.quantile(0.99);
  const double concurrent_p999 = concurrent.quantile(0.999);
  const double jitter = concurrent_p99 - concurrent_p50;

  std::cout << "latency profile: " << requests << " warm-path requests over "
            << unique << " unique instances, solver " << solver << "\n"
            << "  sequential " << rps << " req/s\n"
            << "  latency p50 " << latency.quantile(0.50) * 1e6 << " us, p90 "
            << latency.quantile(0.90) * 1e6 << " us, p99 "
            << latency.quantile(0.99) * 1e6 << " us, p999 "
            << latency.quantile(0.999) * 1e6 << " us\n"
            << "  concurrent (" << clients << " clients) " << concurrent.rps
            << " req/s, p50 " << concurrent_p50 * 1e6 << " us, p99 "
            << concurrent_p99 * 1e6 << " us, p999 " << concurrent_p999 * 1e6
            << " us, jitter " << jitter * 1e6 << " us\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"latency_profile\",\"solver\":\"" << solver
      << "\",\"requests\":" << requests << ",\"unique_instances\":" << unique
      << ",\"threads\":" << threads << ",\"on_seconds\":" << seconds
      << ",\"on_rps\":" << rps
      << ",\"latency_seconds\":{\"count\":" << latency.count
      << ",\"mean\":" << latency.mean() << ",\"p50\":" << latency.quantile(0.5)
      << ",\"p90\":" << latency.quantile(0.9)
      << ",\"p99\":" << latency.quantile(0.99)
      << ",\"p999\":" << latency.quantile(0.999)
      << "},\"concurrent\":{\"clients\":" << clients
      << ",\"requests\":" << concurrent.latencies.size()
      << ",\"seconds\":" << concurrent.seconds
      << ",\"rps\":" << concurrent.rps << ",\"p50\":" << concurrent_p50
      << ",\"p99\":" << concurrent_p99 << ",\"p999\":" << concurrent_p999
      << ",\"jitter\":" << jitter << "}}\n";
  return 0;
}
