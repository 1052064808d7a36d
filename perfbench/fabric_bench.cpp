// fabric_bench: the repo benchmark's main program. One process runs one
// workload on an in-process 2-rank loopback fabric, built from the
// public constructors only (SolveService, FrameServer +
// make_fabric_handler, ShardRouter), and prints its metrics. README.md
// beside this file explains the workloads, the metric table and the
// noise rules this code follows.
//
//   fabric_bench --workload local_hits|forward_hits|cold_sweep
//                --seed N --seconds S --trace 0|1 [--tiny] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with nothing but the
// program's own telemetry running. --trace 1 reruns the workload with a
// span around every call the benchmark makes into a layer, then replays
// the same inputs one layer at a time (the layer ladder) and prints the
// per-layer metrics. The last line of stdout is one JSON object
// {correct, attempted, failed, metrics}; the lines before it are
// diagnostics. Exit status 1 means the correctness gate failed or a
// budget was broken, 2 a usage error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "model/generator.hpp"
#include "net/frame.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "service/engine.hpp"
#include "service/router.hpp"
#include "service/wire.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace {

namespace net = prts::net;
namespace obs = prts::obs;
namespace service = prts::service;
namespace solver = prts::solver;
using prts::Instance;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- budgets
// Every pool is sized here, never from the hardware: two ranks of two
// solver workers fill a 4-vCPU box during cold_sweep, and the two
// client threads are the only load generators.
constexpr std::size_t kRanks = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kEngineThreads = 2;   // per rank
constexpr std::size_t kServerThreads = 4;   // prts_cli serve: max(2, 2*world)
constexpr std::size_t kForwardThreads = 8;  // the RouterConfig default
constexpr std::size_t kCacheShards = 16;
constexpr std::size_t kCacheBytes = std::size_t{64} << 20;
constexpr std::size_t kReplicaBytes = std::size_t{16} << 20;
constexpr std::size_t kQueueDepth = 4096;
constexpr std::size_t kReferenceThreads = 4;  // untimed; capped at the CPUs

// ------------------------------------------------------- workload shape
constexpr std::size_t kHitKeys = 1024;
constexpr std::size_t kCopiesPerKey = 4;
constexpr const char* kHitSolver = "heur-p+ls";
constexpr std::size_t kLadderSteps = 16;
constexpr std::array<const char*, 2> kSweepSolvers = {"exact", "heur-p+ls"};
constexpr std::size_t kSweepLadders = 1000;  // 10 samples beyond p99
constexpr std::size_t kTraceSweepLadders = 160;
constexpr std::size_t kWarmupLadders = 16;
constexpr std::size_t kSetupRepeats = 5;
/// Timed windows are cut into slices. Host steal comes in episodes of a
/// fraction of a second to several seconds; figures pool the samples of
/// the slices it left alone.
constexpr double kSliceSeconds = 0.5;       // hit workloads
constexpr double kSweepSliceSeconds = 1.0;  // cold_sweep (bursts of ~80 ms)
constexpr std::size_t kSweepMaxSlices = 180;  // the run's own time limit
/// Latency samples kept per client per slice: a uniform reservoir over
/// the whole slice (every reply is still counted and checked).
constexpr std::size_t kSliceSamples = 16384;
constexpr std::size_t kSweepSliceSamples = 256;
/// A percentile needs at least ten samples beyond it: 100 for a p90.
constexpr std::size_t kMinSamplesForP90 = 100;
/// Figures never rest on less than this much of a window.
constexpr double kMinPoolSeconds = 2.0;
/// A slice is quiet when host steal took at most this share of it and
/// every client's calibration probe in it ran within this share of the
/// client's median probe over the window.
constexpr double kQuietSteal = 0.02;
constexpr double kProbeTolerance = 0.25;
/// The calibration probe: a pointer chase around one random cycle of
/// 4096 entries (16 KiB, inside a core's L1), four laps per repeat; the
/// fastest of kProbeRepeats repeats counts, so the first one warms it.
constexpr std::size_t kProbeEntries = 4096;
constexpr std::size_t kProbeSteps = 4 * kProbeEntries;
constexpr std::size_t kProbeRepeats = 3;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
/// The layer ladder replays this many of the workload's requests.
constexpr std::size_t kLadderSample = 1024;
constexpr std::size_t kExactPrepareSample = 24;
constexpr std::size_t kHeuristicSample = 256;
constexpr auto kReplyTimeout = std::chrono::seconds(60);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< the self-test's size: seconds of work, not minutes
  std::string spans_path;
};

bool sweep_workload(const Options& options) {
  return options.workload == "cold_sweep";
}

// ------------------------------------------------------------ answers

struct Expected {
  service::ReplyStatus status = service::ReplyStatus::kError;
  std::optional<solver::Solution> solution;  ///< the request's labels
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Byte-for-byte: every interval, replica set and metric double.
bool same_solution(const solver::Solution& a, const solver::Solution& b) {
  const prts::Mapping& ma = a.mapping;
  const prts::Mapping& mb = b.mapping;
  if (ma.interval_count() != mb.interval_count()) return false;
  for (std::size_t j = 0; j < ma.interval_count(); ++j) {
    const prts::Interval& ia = ma.partition().interval(j);
    const prts::Interval& ib = mb.partition().interval(j);
    if (ia.first != ib.first || ia.last != ib.last) return false;
    if (!std::ranges::equal(ma.processors(j), mb.processors(j))) return false;
  }
  const prts::MappingMetrics& x = a.metrics;
  const prts::MappingMetrics& y = b.metrics;
  return same_bits(x.reliability.log(), y.reliability.log()) &&
         same_bits(x.failure, y.failure) &&
         same_bits(x.expected_latency, y.expected_latency) &&
         same_bits(x.worst_latency, y.worst_latency) &&
         same_bits(x.expected_period, y.expected_period) &&
         same_bits(x.worst_period, y.worst_period) &&
         x.interval_count == y.interval_count &&
         x.processors_used == y.processors_used &&
         same_bits(x.replication_level, y.replication_level);
}

bool matches(const service::SolveReply& reply, const Expected& expected) {
  if (reply.status != expected.status) return false;
  if (reply.solution.has_value() != expected.solution.has_value()) {
    return false;
  }
  return !reply.solution || same_solution(*reply.solution, *expected.solution);
}

/// The correctness gate's tally: every reply the benchmark receives is
/// checked against the reference answer.
struct Gate {
  std::uint64_t checked = 0;
  std::uint64_t errors = 0;      ///< kError replies
  std::uint64_t rejected = 0;    ///< admission or deadline rejections
  std::uint64_t unresolved = 0;  ///< no reply within kReplyTimeout
  std::uint64_t wrong = 0;       ///< answered, but not byte-identical

  std::uint64_t failed() const { return errors + rejected + unresolved + wrong; }

  void check(const service::SolveReply& reply, const Expected& expected) {
    ++checked;
    switch (reply.status) {
      case service::ReplyStatus::kError:
        ++errors;
        return;
      case service::ReplyStatus::kRejectedQueue:
      case service::ReplyStatus::kRejectedDeadline:
        ++rejected;
        return;
      default:
        if (!matches(reply, expected)) ++wrong;
    }
  }

  void merge(const Gate& other) {
    checked += other.checked;
    errors += other.errors;
    rejected += other.rejected;
    unresolved += other.unresolved;
    wrong += other.wrong;
  }
};

/// future.get() with a bound: a reply that never comes is counted, not
/// waited on forever.
std::optional<service::SolveReply> await(std::future<service::SolveReply>& f,
                                         Gate& gate) {
  if (f.wait_for(kReplyTimeout) != std::future_status::ready) {
    ++gate.checked;
    ++gate.unresolved;
    return std::nullopt;
  }
  return f.get();
}

// --------------------------------------------------------------- inputs

/// One distinct cache key: (canonical instance, solver, bounds).
struct Key {
  std::shared_ptr<const service::CanonicalInstance> canonical;
  std::string solver;
  solver::Bounds bounds;
  service::CanonicalHash hash;
  service::CanonicalHash batch;
  std::optional<solver::Solution> reference;  ///< canonical labels
  std::size_t owner = 0;
};

/// One request the clients send: a (possibly processor-permuted) copy
/// of a key's instance.
struct Job {
  std::shared_ptr<const Instance> instance;
  std::size_t key = 0;
  Expected expected;
};

struct Inputs {
  std::vector<Key> keys;
  std::vector<Job> jobs;
  /// cold_sweep only: job indices of one burst (a ladder for each solver
  /// of one instance), in submission order.
  std::vector<std::vector<std::size_t>> bursts;
  /// Keys whose references share one prepared session (a ladder).
  std::size_t group = 1;
};

service::SolveRequest request_for(const Inputs& inputs, const Job& job) {
  const Key& key = inputs.keys[job.key];
  return service::SolveRequest(*job.instance, key.solver, key.bounds);
}

Instance permuted(const Instance& instance, prts::Rng& rng) {
  const prts::Platform& platform = instance.platform;
  std::vector<prts::Processor> processors;
  for (std::size_t u = 0; u < platform.processor_count(); ++u) {
    processors.push_back(platform.processor(u));
  }
  for (std::size_t i = processors.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(processors[i - 1], processors[j]);
  }
  return Instance{instance.chain,
                  prts::Platform(std::move(processors), platform.bandwidth(),
                                 platform.link_failure_rate(),
                                 platform.max_replication())};
}

Key make_key(std::shared_ptr<const service::CanonicalInstance> canonical,
             std::string solver_name, solver::Bounds bounds) {
  Key key;
  key.canonical = std::move(canonical);
  key.solver = std::move(solver_name);
  key.bounds = bounds;
  key.hash = service::request_key(*key.canonical, key.solver, bounds);
  key.batch = service::batch_key(*key.canonical, key.solver);
  return key;
}

/// Section 8 (instance, bounds) keys owned by `owner`, alternating the
/// homogeneous platform of Section 8.1 and random heterogeneous ones of
/// Section 8.2, with bounds between tight and loose, plus
/// kCopiesPerKey processor-permuted copies of each.
Inputs hit_inputs(std::uint64_t seed, std::size_t key_count, std::size_t owner,
                  const std::function<std::size_t(const service::CanonicalHash&)>&
                      owner_of) {
  prts::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  prts::Rng shuffle(seed * 0x9e3779b97f4a7c15ULL + 12);
  Inputs inputs;
  std::vector<std::shared_ptr<const Instance>> originals;
  for (std::size_t candidate = 0; inputs.keys.size() < key_count; ++candidate) {
    const bool het = candidate % 2 == 1;
    Instance instance{prts::paper::chain(rng),
                      het ? prts::paper::het_platform(rng)
                          : prts::paper::hom_platform()};
    double fastest = 0.0;
    for (std::size_t u = 0; u < instance.platform.processor_count(); ++u) {
      fastest = std::max(fastest, instance.platform.speed(u));
    }
    const double floor = instance.chain.total_work() / fastest;
    solver::Bounds bounds;
    bounds.latency_bound = floor * rng.uniform_real(1.1, 2.5);
    bounds.period_bound = bounds.latency_bound * rng.uniform_real(0.3, 0.9);
    Key key = make_key(std::make_shared<const service::CanonicalInstance>(
                           service::canonicalize(instance)),
                       kHitSolver, bounds);
    key.owner = owner_of(key.hash);
    if (key.owner != owner) continue;
    inputs.keys.push_back(std::move(key));
    originals.push_back(std::make_shared<const Instance>(std::move(instance)));
  }
  for (std::size_t copy = 0; copy < kCopiesPerKey; ++copy) {
    for (std::size_t k = 0; k < inputs.keys.size(); ++k) {
      Job job;
      job.key = k;
      job.instance = copy == 0 ? originals[k]
                               : std::make_shared<const Instance>(
                                     permuted(*originals[k], shuffle));
      inputs.jobs.push_back(std::move(job));
    }
  }
  return inputs;
}

/// Fresh Section 8.1 instances, one burst each: a kLadderSteps latency
/// ladder from loose to tight for every sweep solver, at one period
/// bound per instance.
Inputs sweep_inputs(std::uint64_t seed, std::uint64_t stream,
                    std::size_t ladders,
                    const std::function<std::size_t(const service::CanonicalHash&)>&
                        owner_of) {
  prts::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  Inputs inputs;
  inputs.group = kLadderSteps;
  for (std::size_t l = 0; l < ladders; ++l) {
    const auto instance = std::make_shared<const Instance>(
        Instance{prts::paper::chain(rng), prts::paper::hom_platform()});
    const auto canonical = std::make_shared<const service::CanonicalInstance>(
        service::canonicalize(*instance));
    const double work = instance->chain.total_work();
    const double period = work * rng.uniform_real(0.3, 0.6);
    std::vector<std::size_t> burst;
    for (const char* solver_name : kSweepSolvers) {
      for (std::size_t step = 0; step < kLadderSteps; ++step) {
        solver::Bounds bounds;
        bounds.period_bound = period;
        bounds.latency_bound =
            work * (2.5 - 1.5 * static_cast<double>(step) /
                              static_cast<double>(kLadderSteps - 1));
        Key key = make_key(canonical, solver_name, bounds);
        key.owner = owner_of(key.hash);
        Job job;
        job.key = inputs.keys.size();
        job.instance = instance;
        burst.push_back(inputs.jobs.size());
        inputs.keys.push_back(std::move(key));
        inputs.jobs.push_back(std::move(job));
      }
    }
    inputs.bursts.push_back(std::move(burst));
  }
  return inputs;
}

/// The reference answers: a direct solver session on each canonical
/// instance (one prepare per ladder), then each job's expected reply in
/// its own processor labels. Runs outside every timed window.
void compute_references(Inputs& inputs, std::size_t threads) {
  const solver::SolverRegistry& registry = solver::SolverRegistry::builtin();
  const std::size_t groups = inputs.keys.size() / inputs.group;
  prts::ThreadPool pool(threads);
  pool.parallel_for(groups, [&](std::size_t g) {
    Key& first = inputs.keys[g * inputs.group];
    const auto engine = registry.find(first.solver);
    if (!engine) throw std::runtime_error("unknown solver " + first.solver);
    const auto session = engine->prepare(first.canonical->instance);
    for (std::size_t k = g * inputs.group; k < (g + 1) * inputs.group; ++k) {
      inputs.keys[k].reference = session->solve(inputs.keys[k].bounds);
    }
  });
  pool.parallel_for(inputs.jobs.size(), [&](std::size_t j) {
    Job& job = inputs.jobs[j];
    const Key& key = inputs.keys[job.key];
    if (key.reference) {
      job.expected.status = service::ReplyStatus::kSolved;
      job.expected.solution = service::to_original_labels(
          *key.reference, service::canonicalize(*job.instance));
    } else {
      job.expected.status = service::ReplyStatus::kInfeasible;
    }
  });
}

// --------------------------------------------------------------- fabric

/// One rank, wired the way `prts_cli serve --listen` wires it.
struct Rank {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<service::SolveService> engine;
  std::unique_ptr<prts::ThreadPool> server_pool;
  std::atomic<service::ShardRouter*> router_ptr{nullptr};
  std::unique_ptr<net::FrameServer> server;
  std::unique_ptr<service::ShardRouter> router;
};

class Fabric {
 public:
  /// `entry_replicas` = false turns rank 0's replica tier off
  /// (`--replica-mb 0`), so every remote-shard request crosses loopback.
  explicit Fabric(bool entry_replicas) {
    std::vector<service::PeerAddress> peers;
    for (std::size_t r = 0; r < kRanks; ++r) {
      Rank& rank = ranks_[r];
      rank.telemetry = std::make_unique<obs::Telemetry>();
      obs::Telemetry& telemetry = *rank.telemetry;
      telemetry.rank = static_cast<int>(r);
      // Telemetry as serve runs it: flight recorder, watchdog and the
      // default stall alert.
      obs::FlightRecorderConfig recorder;
      recorder.interval_seconds = 1.0;
      telemetry.recorder.configure(recorder);
      telemetry.recorder.start();
      obs::WatchdogConfig watchdog;
      watchdog.stall_threshold_seconds = 2.0;
      telemetry.watchdog.start(watchdog);
      telemetry.alerts.add_rule("watchdog_stalls_total_delta>0;hold=5");

      service::ServiceConfig config;
      config.threads = kEngineThreads;
      config.cache_enabled = true;
      config.cache.shards = kCacheShards;
      config.cache.capacity_bytes = kCacheBytes;
      config.near_miss = true;
      config.max_queue_depth = kQueueDepth;
      config.fallback_solver = "heur-p";
      config.telemetry = &telemetry;
      rank.engine = std::make_unique<service::SolveService>(config);
      rank.server_pool = std::make_unique<prts::ThreadPool>(kServerThreads);
      rank.server = net::FrameServer::start(
          0,
          service::make_fabric_handler(
              *rank.engine, [&rank] { return rank.router_ptr.load(); }),
          *rank.server_pool, net::kDefaultMaxPayload, &telemetry.metrics,
          &telemetry.watchdog, &telemetry.profiler);
      if (!rank.server) throw std::runtime_error("cannot bind a loopback port");
      peers.push_back(service::PeerAddress{"127.0.0.1", rank.server->port()});
    }
    for (std::size_t r = 0; r < kRanks; ++r) {
      Rank& rank = ranks_[r];
      service::RouterConfig config;
      config.world_size = kRanks;
      config.rank = r;
      config.peers = peers;
      config.forward_threads = kForwardThreads;
      config.replica.capacity_bytes =
          (r == 0 && !entry_replicas) ? 0 : kReplicaBytes;
      config.gossip_interval_seconds = 0.0;
      config.telemetry = rank.telemetry.get();
      rank.router = std::make_unique<service::ShardRouter>(*rank.engine, config);
      rank.router_ptr.store(rank.router.get());
    }
  }

  ~Fabric() {
    for (Rank& rank : ranks_) rank.server->stop();
    for (Rank& rank : ranks_) rank.router_ptr.store(nullptr);
    for (Rank& rank : ranks_) rank.router.reset();
    for (Rank& rank : ranks_) {
      rank.server.reset();
      rank.server_pool.reset();
      rank.engine.reset();
      rank.telemetry.reset();
    }
  }

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Rank& rank(std::size_t r) { return ranks_[r]; }
  service::ShardRouter& entry() { return *ranks_[0].router; }

 private:
  std::array<Rank, kRanks> ranks_;
};

// ---------------------------------------------------------------- spans

enum SpanName : std::uint16_t {
  kSpanRequest,
  kSpanSubmit,
  kSpanGet,
  kSpanBurst,
  kSpanLadder,
  kSpanCanonicalKey,
  kSpanCanonicalLabels,
  kSpanCacheInsert,
  kSpanCacheLookup,
  kSpanCacheDominating,
  kSpanCacheFeasible,
  kSpanEngineSubmit,
  kSpanWireEncodeRequest,
  kSpanWireDecodeRequest,
  kSpanWireEncodeReply,
  kSpanWireDecodeReply,
  kSpanNetPing,
  kSpanNetPing8,
  kSpanNetSolveHit,
  kSpanRouterSubmit,
  kSpanExactPrepare,
  kSpanExactQuery,
  kSpanHeuristic,
  kSpanObsTrace,
  kSpanObsHistogram,
  kSpanNameCount,
};

constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "request",          "router.submit",       "router.get",
    "burst",            "ladder",              "canonical.key",
    "canonical.labels", "cache.insert",        "cache.lookup",
    "cache.dominating", "cache.feasible",      "engine.submit",
    "wire.encode_request", "wire.decode_request", "wire.encode_reply",
    "wire.decode_reply", "net.ping",           "net.ping8",
    "net.solve_hit",    "router.submit_depth1", "solver.exact_prepare",
    "solver.exact_query", "solver.heur_p_ls",  "obs.trace",
    "obs.histogram_record"};

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

/// One thread's spans, kept in memory until the run ends. A handle is
/// the span's index + 1; 0 means "no span" (root parent, or log full).
class SpanLog {
 public:
  struct Record {
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = 0;
    SpanName name = kSpanRequest;
  };

  SpanLog() { records_.reserve(kSpanCapacity); }

  std::uint32_t open(SpanName name, std::uint32_t parent,
                     std::uint64_t request) {
    if (records_.size() >= kSpanCapacity) return 0;
    records_.push_back(Record{request, now_ns(), 0, parent, name});
    return static_cast<std::uint32_t>(records_.size());
  }

  void close(std::uint32_t handle) {
    if (handle != 0) records_[handle - 1].end_ns = now_ns();
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

/// Self time per span: its duration minus its children's.
struct SelfTimes {
  std::array<std::vector<double>, kSpanNameCount> seconds;
  /// Self seconds by (name, request) for per-request subsets.
  std::array<std::map<std::uint64_t, double>, kSpanNameCount> by_request;

  void add(const SpanLog& log) {
    const auto& records = log.records();
    std::vector<std::int64_t> child_ns(records.size(), 0);
    for (const auto& record : records) {
      if (record.parent != 0) {
        child_ns[record.parent - 1] += record.end_ns - record.start_ns;
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& record = records[i];
      const double self =
          static_cast<double>(record.end_ns - record.start_ns - child_ns[i]) *
          1e-9;
      seconds[record.name].push_back(self);
      by_request[record.name][record.request] = self;
    }
  }
};

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "thread\tspan\tparent\tname\trequest\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& records = logs[t]->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      out << t << '\t' << i + 1 << '\t' << r.parent << '\t'
          << kSpanNames[r.name] << '\t' << r.request << '\t' << r.start_ns
          << '\t' << r.end_ns << '\n';
    }
  }
}

// --------------------------------------------------------------- process

struct Usage {
  double cpu_seconds = 0.0;
  std::uint64_t nivcsw = 0;
  double max_rss_mb = 0.0;
};

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                      1e-6;
  u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Host-wide (steal, total) jiffies from /proc/stat's first line.
std::pair<std::uint64_t, std::uint64_t> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::size_t process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread to `cpu`; false when the kernel refused.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// A fixed amount of work that runs none of the program's code, so its
/// time tracks only the speed of the core it ran on: a pointer chase
/// through one random cycle (Sattolo's shuffle) over kProbeEntries
/// entries. The cycle is the same on every run.
class Probe {
 public:
  Probe() : next_(kProbeEntries) {
    std::iota(next_.begin(), next_.end(), std::uint32_t{0});
    prts::Rng rng(0x70726f6265ULL);
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(next_[i], next_[j]);
    }
  }

  /// The fastest of kProbeRepeats chases of kProbeSteps steps, in ns.
  std::int64_t run() {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::size_t r = 0; r < kProbeRepeats; ++r) {
      const auto start = Clock::now();
      std::uint32_t at = at_;
      for (std::size_t s = 0; s < kProbeSteps; ++s) at = next_[at];
      at_ = at;  // the next chase starts here, so none is dead code
      best = std::min<std::int64_t>(
          best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count());
    }
    return best;
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

/// The window the end-to-end metrics are taken over.
struct Window {
  Clock::time_point start;
  Usage usage;
  std::pair<std::uint64_t, std::uint64_t> steal;

  static Window open() {
    Window w;
    w.usage = read_usage();
    w.steal = steal_jiffies();
    w.start = Clock::now();
    return w;
  }
};

// --------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(lo),
                   values.end());
  const double low = values[lo];
  if (hi == lo) return low;
  const double high =
      *std::min_element(values.begin() + static_cast<long>(lo) + 1, values.end());
  return low + (high - low) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// (Q3 - Q1) / median, the spread measure of the benchmark's rules.
double spread(const std::vector<double>& values) {
  return ratio(percentile(values, 0.75) - percentile(values, 0.25),
               median(values));
}

/// A latency sample that stands for `weight` replies: a client's
/// reservoir keeps k of a slice's n samples, so each stands for n / k.
struct Sample {
  double us = 0.0;
  double weight = 1.0;
};

/// Weighted samples, sorted once and queried for any quantile.
class Distribution {
 public:
  explicit Distribution(std::vector<Sample> samples)
      : samples_(std::move(samples)) {
    std::sort(samples_.begin(), samples_.end(),
              [](const Sample& a, const Sample& b) { return a.us < b.us; });
    for (const Sample& sample : samples_) total_ += sample.weight;
  }

  std::size_t size() const { return samples_.size(); }

  /// The smallest sample whose cumulative weight reaches q of the total.
  double quantile(double q) const {
    double cumulative = 0.0;
    for (const Sample& sample : samples_) {
      cumulative += sample.weight;
      if (cumulative >= q * total_) return sample.us;
    }
    return samples_.empty() ? 0.0 : samples_.back().us;
  }

 private:
  std::vector<Sample> samples_;
  double total_ = 0.0;
};

// ---------------------------------------------------------------- clients

/// What one client thread measured, per slice of the timed window.
/// Buffers are sized and touched before set-up, so peak RSS moves only
/// with the program's own memory.
struct ClientRun {
  std::size_t slices = 1;
  std::size_t per_slice = 1;              ///< reservoir size per slice
  std::vector<std::uint32_t> latency_ns;  ///< slices x per_slice
  std::vector<std::uint64_t> seen;        ///< samples offered per slice
  std::vector<std::uint64_t> answered;    ///< replies per slice
  std::vector<std::int64_t> probe_ns;     ///< per slice; 0 = no probe
  prts::Rng rng;                          ///< picks the reservoir slots
  Probe probe;
  std::size_t probed = 0;  ///< slices probed so far (they come in order)
  Gate gate;
  SpanLog* spans = nullptr;  ///< set on the traced run only

  ClientRun(std::size_t max_slices, std::size_t samples_per_slice,
            std::uint64_t seed)
      : slices(max_slices),
        per_slice(samples_per_slice),
        latency_ns(max_slices * samples_per_slice, 0),
        seen(max_slices, 0),
        answered(max_slices, 0),
        probe_ns(max_slices, 0),
        rng(seed) {}

  /// One latency sample that answered `replies` requests, kept by
  /// reservoir sampling (Algorithm R), so the kept samples are a
  /// uniform draw from the whole slice. Completions past the last slice
  /// (each client's closing request) are dropped.
  void record(std::size_t slice, Clock::duration elapsed,
              std::uint64_t replies = 1) {
    if (slice >= slices) return;
    answered[slice] += replies;
    const std::uint64_t n = ++seen[slice];
    std::uint64_t slot = n - 1;
    if (n > per_slice) {
      slot = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (slot >= per_slice) return;
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    latency_ns[slice * per_slice + slot] = static_cast<std::uint32_t>(
        std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
  }

  /// Runs the calibration probe once per slice, on the client's first
  /// completion in it: between two requests, so no latency sample
  /// holds it.
  void probe_slice(std::size_t slice) {
    if (slice >= slices || slice < probed) return;
    probe_ns[slice] = probe.run();
    probed = slice + 1;
  }

  std::size_t kept(std::size_t slice) const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(seen[slice], per_slice));
  }

  void reset() {
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(answered.begin(), answered.end(), 0);
    std::fill(probe_ns.begin(), probe_ns.end(), 0);
    probed = 0;
    gate = Gate{};
  }
};

/// The slice a completion at `now` falls in.
struct Slicer {
  Clock::time_point start;
  Clock::duration width;
  std::size_t operator()(Clock::time_point now) const {
    return static_cast<std::size_t>((now - start) / width);
  }
};

/// A closed loop of single requests: submit, wait for the reply, check
/// it, send the next. Client c walks jobs c, c+kClients, ... so no two
/// clients ever have the same key in flight.
void hit_client(const Inputs& inputs, std::size_t client,
                service::ShardRouter& router, const std::atomic<bool>& stop,
                const Slicer& slicer, std::uint64_t request_base,
                ClientRun& run) {
  std::size_t i = client;
  std::uint64_t request = request_base;
  while (!stop.load(std::memory_order_relaxed)) {
    const Job& job = inputs.jobs[i];
    service::SolveRequest copy = request_for(inputs, job);
    std::uint32_t root = 0;
    std::uint32_t span = 0;
    if (run.spans) {
      root = run.spans->open(kSpanRequest, 0, request);
      span = run.spans->open(kSpanSubmit, root, request);
    }
    const Clock::time_point t0 = Clock::now();
    auto future = router.submit(std::move(copy));
    if (run.spans) {
      run.spans->close(span);
      span = run.spans->open(kSpanGet, root, request);
    }
    const auto reply = await(future, run.gate);
    const Clock::time_point now = Clock::now();
    if (run.spans) {
      run.spans->close(span);
      run.spans->close(root);
    }
    ++request;
    if (reply) {
      const std::size_t slice = slicer(now);
      run.record(slice, now - t0);
      run.gate.check(*reply, job.expected);
      run.probe_slice(slice);
    }
    i += kClients;
    if (i >= inputs.jobs.size()) i = client;
  }
}

/// A closed loop of bursts: all points of one instance's ladders are
/// submitted back to back, and the sample is first submit to last
/// reply. Fixed work: client c runs bursts c, c+kClients, ...
void sweep_client(const Inputs& inputs, std::size_t client,
                  service::ShardRouter& router, const Slicer& slicer,
                  std::uint64_t request_base, ClientRun& run) {
  std::vector<service::SolveRequest> copies;
  std::vector<std::future<service::SolveReply>> futures;
  std::vector<std::optional<service::SolveReply>> replies;
  for (std::size_t b = client; b < inputs.bursts.size(); b += kClients) {
    const auto& burst = inputs.bursts[b];
    copies.clear();
    futures.clear();
    replies.clear();
    for (std::size_t j : burst) {
      copies.push_back(request_for(inputs, inputs.jobs[j]));
    }
    const std::uint64_t request = request_base + b;
    std::uint32_t root = 0;
    if (run.spans) root = run.spans->open(kSpanBurst, 0, request);
    const Clock::time_point t0 = Clock::now();
    for (auto& copy : copies) {
      std::uint32_t span = 0;
      if (run.spans) span = run.spans->open(kSpanSubmit, root, request);
      futures.push_back(router.submit(std::move(copy)));
      if (run.spans) run.spans->close(span);
    }
    for (auto& future : futures) {
      std::uint32_t span = 0;
      if (run.spans) span = run.spans->open(kSpanGet, root, request);
      replies.push_back(await(future, run.gate));
      if (run.spans) run.spans->close(span);
    }
    const Clock::time_point t1 = Clock::now();
    if (run.spans) run.spans->close(root);
    bool complete = true;
    for (std::size_t p = 0; p < burst.size(); ++p) {
      if (replies[p]) {
        run.gate.check(*replies[p], inputs.jobs[burst[p]].expected);
      } else {
        complete = false;
      }
    }
    if (complete) run.record(slicer(t1), t1 - t0, burst.size());
    run.probe_slice(slicer(t1));
  }
}

/// One slice of a timed window, both clients merged.
struct Slice {
  std::vector<Sample> latency;
  double answered = 0.0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double steal_jiffies = 0.0;
  double total_jiffies = 0.0;
  /// The largest |probe / client's median probe - 1| over the clients
  /// that probed in this slice.
  double probe_deviation = 0.0;

  double steal_share() const { return ratio(steal_jiffies, total_jiffies); }
  bool quiet() const {
    return steal_share() <= kQuietSteal && probe_deviation <= kProbeTolerance;
  }
};

/// End-to-end figures over a set of slices, their samples pooled.
struct Figures {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double throughput_rps = 0.0;
  double cpu_us_per_req = 0.0;
  double steal_share = 0.0;
  std::size_t slices = 0;
  std::size_t samples = 0;
};

/// The result of one timed window across both clients.
struct WindowResult {
  double seconds = 0.0;
  std::vector<Slice> slices;
  std::uint64_t answered = 0;  ///< requests (cold_sweep: points) answered
  double cpu_seconds = 0.0;
  std::uint64_t nivcsw = 0;
  double steal_share = 0.0;
  /// Read as the clients stop, before the slices are assembled.
  double peak_rss_mb = 0.0;
  /// Every probe of the window, in µs.
  std::vector<double> probe_us;
  bool pinned = false;  ///< every client ran on its own CPU
  Gate gate;

  Distribution all_latency() const {
    std::vector<Sample> all;
    for (const Slice& slice : slices) {
      all.insert(all.end(), slice.latency.begin(), slice.latency.end());
    }
    return Distribution(std::move(all));
  }

  /// Every quiet slice, then the least-stolen others while the pool
  /// holds fewer than kMinSamplesForP90 samples or kMinPoolSeconds.
  std::vector<const Slice*> quiet_slices() const {
    std::vector<const Slice*> ranked;
    for (const Slice& slice : slices) ranked.push_back(&slice);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Slice* a, const Slice* b) {
                       if (a->quiet() != b->quiet()) return a->quiet();
                       return a->steal_share() < b->steal_share();
                     });
    std::size_t keep = 0;
    std::size_t samples = 0;
    double seconds = 0.0;
    while (keep < ranked.size() &&
           (ranked[keep]->quiet() || samples < kMinSamplesForP90 ||
            seconds < kMinPoolSeconds)) {
      samples += ranked[keep]->latency.size();
      seconds += ranked[keep++]->seconds;
    }
    ranked.resize(keep);
    return ranked;
  }

  Figures figures() const {
    Figures f;
    std::vector<Sample> pooled;
    double answered_sum = 0, seconds_sum = 0, cpu_sum = 0, steal = 0, total = 0;
    for (const Slice* slice : quiet_slices()) {
      pooled.insert(pooled.end(), slice->latency.begin(), slice->latency.end());
      answered_sum += slice->answered;
      seconds_sum += slice->seconds;
      cpu_sum += slice->cpu_seconds;
      steal += slice->steal_jiffies;
      total += slice->total_jiffies;
      ++f.slices;
    }
    const Distribution latency(std::move(pooled));
    f.samples = latency.size();
    f.p50_us = latency.quantile(0.50);
    f.p90_us = latency.quantile(0.90);
    f.p99_us = latency.quantile(0.99);
    f.throughput_rps = ratio(answered_sum, seconds_sum);
    f.cpu_us_per_req = ratio(cpu_sum * 1e6, answered_sum);
    f.steal_share = ratio(steal, total);
    return f;
  }
};

/// Runs the workload's clients for one timed window, cut into slices
/// with process CPU and host steal read at every boundary. Client c
/// runs pinned to client_cpus[c]. cold_sweep runs every burst once, in
/// 1 s slices; the hit workloads run closed loops for `seconds`.
WindowResult run_window(const Options& options, const Inputs& inputs,
                        Fabric& fabric, double seconds,
                        std::vector<ClientRun>& clients,
                        const std::vector<int>& client_cpus,
                        std::uint64_t request_base) {
  const bool sweep = sweep_workload(options);
  const std::size_t capacity = clients.front().slices;
  const std::size_t planned =
      sweep ? capacity - 1
            : std::clamp<std::size_t>(
                  static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)),
                  1, capacity - 1);
  for (ClientRun& client : clients) client.reset();
  const Window window = Window::open();
  const Slicer slicer{
      window.start,
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          sweep ? kSweepSliceSeconds : seconds / static_cast<double>(planned)))};
  std::atomic<bool> stop{false};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::atomic<std::size_t> pinned{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      if (pin_to(client_cpus[c])) ++pinned;
      const std::uint64_t base = request_base + (std::uint64_t{c} << 40);
      if (sweep) {
        sweep_client(inputs, c, fabric.entry(), slicer, base, clients[c]);
      } else {
        hit_client(inputs, c, fabric.entry(), stop, slicer, base, clients[c]);
      }
      {
        const std::lock_guard<std::mutex> lock(done_mutex);
        ++done;
      }
      done_cv.notify_all();
    });
  }
  std::vector<Clock::time_point> marks = {window.start};
  std::vector<double> cpu_marks = {window.usage.cpu_seconds};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steal_marks = {
      window.steal};
  const auto mark = [&](Clock::time_point at) {
    marks.push_back(at);
    cpu_marks.push_back(read_usage().cpu_seconds);
    steal_marks.push_back(steal_jiffies());
  };
  for (std::size_t s = 1; s <= planned; ++s) {
    const Clock::time_point boundary = window.start + slicer.width * static_cast<long>(s);
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      if (done_cv.wait_until(lock, boundary, [&] { return done == kClients; })) {
        break;  // cold_sweep finished inside slice s - 1
      }
    }
    mark(boundary);
  }
  stop = true;
  for (std::thread& thread : threads) thread.join();
  const Clock::time_point end = Clock::now();
  const Usage after = read_usage();
  const auto steal_after = steal_jiffies();
  // cold_sweep's last slice ends with its last burst.
  if (sweep) mark(end);

  WindowResult result;
  result.seconds = std::chrono::duration<double>(end - window.start).count();
  result.cpu_seconds = after.cpu_seconds - window.usage.cpu_seconds;
  result.nivcsw = after.nivcsw - window.usage.nivcsw;
  result.peak_rss_mb = after.max_rss_mb;
  result.steal_share =
      ratio(static_cast<double>(steal_after.first - window.steal.first),
            static_cast<double>(steal_after.second - window.steal.second));
  result.pinned = pinned == kClients;
  const std::size_t slices = marks.size() - 1;
  std::vector<double> median_probe;
  for (const ClientRun& client : clients) {
    std::vector<double> probes;
    for (std::size_t s = 0; s < slices; ++s) {
      if (client.probe_ns[s] > 0) {
        probes.push_back(static_cast<double>(client.probe_ns[s]));
        result.probe_us.push_back(probes.back() * 1e-3);
      }
    }
    median_probe.push_back(median(std::move(probes)));
  }
  result.slices.resize(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    Slice& slice = result.slices[s];
    slice.seconds = std::chrono::duration<double>(marks[s + 1] - marks[s]).count();
    slice.cpu_seconds = cpu_marks[s + 1] - cpu_marks[s];
    slice.steal_jiffies =
        static_cast<double>(steal_marks[s + 1].first - steal_marks[s].first);
    slice.total_jiffies =
        static_cast<double>(steal_marks[s + 1].second - steal_marks[s].second);
    for (std::size_t c = 0; c < kClients; ++c) {
      const ClientRun& client = clients[c];
      slice.answered += static_cast<double>(client.answered[s]);
      const std::size_t kept = client.kept(s);
      const double weight = ratio(static_cast<double>(client.seen[s]),
                                  static_cast<double>(kept));
      for (std::size_t i = 0; i < kept; ++i) {
        slice.latency.push_back(
            {static_cast<double>(client.latency_ns[s * client.per_slice + i]) *
                 1e-3,
             weight});
      }
      if (client.probe_ns[s] > 0) {
        slice.probe_deviation = std::max(
            slice.probe_deviation,
            std::abs(ratio(static_cast<double>(client.probe_ns[s]),
                           median_probe[c]) -
                     1.0));
      }
    }
  }
  for (const ClientRun& client : clients) result.gate.merge(client.gate);
  result.answered = result.gate.checked - result.gate.unresolved;
  return result;
}

// --------------------------------------------------------------- set-up

/// Pre-solves every key on its owner, straight into the owner's engine,
/// and checks those replies too.
void prefill(Fabric& fabric, const Inputs& inputs, Gate& gate) {
  std::vector<std::future<service::SolveReply>> futures;
  std::vector<std::size_t> jobs;
  for (std::size_t k = 0; k < inputs.keys.size(); ++k) {
    const Job& job = inputs.jobs[k];  // copy 0 of key k
    futures.push_back(fabric.rank(inputs.keys[job.key].owner)
                          .engine->submit(request_for(inputs, job)));
    jobs.push_back(k);
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (auto reply = await(futures[i], gate)) {
      gate.check(*reply, inputs.jobs[jobs[i]].expected);
    }
  }
}

/// Warm-up ladders through the entry rank, one burst at a time.
void warm_sweep(Fabric& fabric, const Inputs& inputs, Gate& gate) {
  for (const auto& burst : inputs.bursts) {
    std::vector<std::future<service::SolveReply>> futures;
    for (std::size_t j : burst) {
      futures.push_back(
          fabric.entry().submit(request_for(inputs, inputs.jobs[j])));
    }
    for (std::size_t p = 0; p < burst.size(); ++p) {
      if (auto reply = await(futures[p], gate)) {
        gate.check(*reply, inputs.jobs[burst[p]].expected);
      }
    }
  }
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_diag(const std::vector<std::pair<std::string, double>>& values) {
  std::ostringstream out;
  out << "# diag {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? ", " : "") << '"' << values[i].first
        << "\": " << json_number(values[i].second);
  }
  out << "}";
  std::cout << out.str() << std::endl;
}

// ------------------------------------------------------ the run itself

struct Budget {
  bool ok = true;
  std::string why;
  void fail(const std::string& reason) {
    ok = false;
    why += (why.empty() ? "" : "; ") + reason;
  }
};

/// One connection per peer: the entry rank's router dialled its peer
/// at most once, and no rank's server saw more than one fabric link.
void check_connections(Fabric& fabric, Budget& budget) {
  for (const auto& [peer, stats] : fabric.entry().client_stats()) {
    if (stats.connects > 1) {
      budget.fail("rank 0 connected to rank " + std::to_string(peer) + " " +
                  std::to_string(stats.connects) + " times");
    }
  }
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto connections = fabric.rank(r).server->stats().connections;
    if (connections > 1) {
      budget.fail("rank " + std::to_string(r) + " accepted " +
                  std::to_string(connections) + " connections");
    }
  }
}

/// Fabric-wide counters, read before and after a window.
struct Counters {
  std::array<service::EngineStats, kRanks> engine;
  std::array<service::CacheStats, kRanks> cache;
  service::RouterStats router;
  net::FrameClientStats client;
  std::array<net::FrameServerStats, kRanks> server;
  std::array<obs::RegistrySnapshot, kRanks> registry;

  static Counters read(Fabric& fabric) {
    Counters c;
    for (std::size_t r = 0; r < kRanks; ++r) {
      Rank& rank = fabric.rank(r);
      c.engine[r] = rank.engine->stats();
      c.cache[r] = rank.engine->cache_stats();
      c.server[r] = rank.server->stats();
      c.registry[r] = rank.telemetry->metrics.snapshot();
    }
    c.router = fabric.entry().stats();
    for (const auto& [peer, stats] : fabric.entry().client_stats()) {
      if (peer == 1) c.client = stats;
    }
    return c;
  }

  std::uint64_t counter(std::size_t r, const std::string& name) const {
    const auto it = registry[r].counters.find(name);
    return it == registry[r].counters.end() ? 0 : it->second;
  }

  obs::Histogram::Snapshot histogram(std::size_t r,
                                     const std::string& name) const {
    const auto it = registry[r].histograms.find(name);
    return it == registry[r].histograms.end() ? obs::Histogram::Snapshot{}
                                              : it->second;
  }
};

double delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

/// Per-layer counts of one window, summed over ranks where a layer
/// runs on both. A count's sample count is the window's `requests`.
void window_counts(const Counters& a, const Counters& b, std::size_t ladders,
                   std::uint64_t requests, std::vector<Metric>& out) {
  double submitted = 0, dominating = 0, dedup = 0, batches = 0, batched = 0,
         rejected = 0, errors = 0, hits = 0, misses = 0, near_hits = 0,
         evictions = 0, locks = 0, contended = 0;
  obs::Histogram::Snapshot batch_wait;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto& e0 = a.engine[r];
    const auto& e1 = b.engine[r];
    submitted += delta(e1.submitted, e0.submitted);
    dominating += delta(e1.dominating_hits, e0.dominating_hits);
    dedup += delta(e1.deduplicated, e0.deduplicated);
    batches += delta(e1.batches, e0.batches);
    batched += delta(e1.batched_requests, e0.batched_requests);
    rejected += delta(e1.rejected_queue + e1.rejected_deadline,
                      e0.rejected_queue + e0.rejected_deadline);
    errors += delta(e1.errors, e0.errors);
    hits += delta(b.cache[r].hits, a.cache[r].hits);
    misses += delta(b.cache[r].misses, a.cache[r].misses);
    near_hits += delta(b.cache[r].near_hits, a.cache[r].near_hits);
    evictions += delta(b.cache[r].evictions, a.cache[r].evictions);
    locks += delta(b.counter(r, "mutex_engine_queue_acquisitions_total"),
                   a.counter(r, "mutex_engine_queue_acquisitions_total"));
    contended += delta(b.counter(r, "mutex_engine_queue_contended_total"),
                       a.counter(r, "mutex_engine_queue_contended_total"));
    batch_wait.merge(b.histogram(r, "engine_batch_wait_seconds")
                         .delta_since(a.histogram(r, "engine_batch_wait_seconds")));
  }
  const auto& r0 = a.router;
  const auto& r1 = b.router;
  const double local = delta(r1.local, r0.local);
  const double forwarded = delta(r1.forwarded, r0.forwarded);
  const double replica = delta(r1.replica_hits, r0.replica_hits);
  const double fallbacks = delta(r1.local_fallbacks, r0.local_fallbacks);
  const double routed = local + forwarded + replica + fallbacks;
  const auto server_frames =
      static_cast<std::uint64_t>(delta(b.server[1].frames, a.server[1].frames) +
                                 delta(b.server[0].frames, a.server[0].frames));
  const auto n = static_cast<std::uint64_t>(submitted);
  out.push_back({"cache.hit_rate", "ratio", ratio(hits, hits + misses),
                 static_cast<std::uint64_t>(hits + misses)});
  out.push_back({"cache.near_hits", "count", near_hits, requests});
  out.push_back({"cache.evictions", "count", evictions, requests});
  out.push_back({"engine.queue_contended_share", "ratio",
                 ratio(contended, locks), static_cast<std::uint64_t>(locks)});
  out.push_back({"engine.batch_wait_p50_us", "us",
                 batch_wait.quantile(0.5) * 1e6, batch_wait.count});
  out.push_back({"engine.dominating_share", "ratio", ratio(dominating, submitted), n});
  out.push_back({"engine.dedup_share", "ratio", ratio(dedup, submitted), n});
  out.push_back({"engine.points_per_invocation", "count",
                 ratio(batches + batched, batches),
                 static_cast<std::uint64_t>(batches)});
  out.push_back({"engine.rejected", "count", rejected, requests});
  out.push_back({"engine.errors", "count", errors, requests});
  out.push_back({"solver.invocations_per_ladder", "count",
                 ratio(batches, static_cast<double>(ladders)),
                 static_cast<std::uint64_t>(ladders)});
  out.push_back({"net.max_inflight", "count",
                 static_cast<double>(b.client.max_inflight), requests});
  out.push_back({"net.client_failures", "count",
                 delta(b.client.failures, a.client.failures), requests});
  out.push_back({"net.client_timeouts", "count",
                 delta(b.client.timeouts, a.client.timeouts), requests});
  out.push_back({"net.server_frames", "count",
                 static_cast<double>(server_frames), requests});
  out.push_back({"router.local_share", "ratio", ratio(local, routed),
                 static_cast<std::uint64_t>(routed)});
  out.push_back({"router.forwarded", "count", forwarded, requests});
  out.push_back({"router.forward_hits", "count",
                 delta(r1.forward_hits, r0.forward_hits), requests});
  out.push_back({"router.local_fallbacks", "count", fallbacks, requests});
  out.push_back({"router.forward_failures", "count",
                 delta(r1.forward_failures, r0.forward_failures), requests});
}

/// The layer ladder: the same inputs replayed one layer at a time from
/// the benchmark's single main thread, each call inside a span.
class LadderPass {
 public:
  LadderPass(const Inputs& inputs, Fabric& fabric, SpanLog& log, Gate& gate)
      : inputs_(inputs), fabric_(fabric), log_(log), gate_(gate) {
    const std::size_t stride =
        std::max<std::size_t>(1, inputs.jobs.size() / kLadderSample);
    for (std::size_t j = 0; j < inputs.jobs.size() && sample_.size() < kLadderSample;
         j += stride) {
      sample_.push_back(j);
    }
  }

  void run(std::vector<Metric>& out) {
    canonical();
    cache();
    engine(out);
    wire(out);
    network();
    router();
    solvers();
    telemetry(out);
  }

  const std::vector<std::size_t>& sample() const { return sample_; }

  /// True when the router step forwarded sample request `request`.
  bool forwarded(std::size_t request) const { return forwarded_[request]; }

 private:
  template <typename Body>
  void step(SpanName name, Body&& body) {
    const std::uint32_t root = log_.open(kSpanLadder, 0, name);
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      body(i, [&](SpanName span_name) { return log_.open(span_name, root, i); });
    }
    log_.close(root);
  }

  const Job& job(std::size_t i) const { return inputs_.jobs[sample_[i]]; }
  const Key& key(std::size_t i) const { return inputs_.keys[job(i).key]; }

  void canonical() {
    step(kSpanCanonicalKey, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanCanonicalKey);
      const auto canonical = service::canonicalize(*job(i).instance);
      const auto hash =
          service::request_key(canonical, key(i).solver, key(i).bounds);
      log_.close(span);
      if (hash != key(i).hash) ++gate_.wrong;
      ++gate_.checked;
      if (key(i).reference) {
        const std::uint32_t labels = open(kSpanCanonicalLabels);
        auto solution = service::to_original_labels(*key(i).reference, canonical);
        log_.close(labels);
        if (!same_solution(solution, *job(i).expected.solution)) ++gate_.wrong;
      }
    });
  }

  void cache() {
    service::ShardedSolutionCache::Config config;
    config.shards = kCacheShards;
    config.capacity_bytes = kCacheBytes;
    service::ShardedSolutionCache cache(config);
    step(kSpanCacheInsert, [&](std::size_t i, auto open) {
      service::CachedSolution value(key(i).reference, 0.0, key(i).batch,
                                    key(i).bounds);
      const std::uint32_t span = open(kSpanCacheInsert);
      cache.insert(key(i).hash, std::move(value));
      log_.close(span);
    });
    step(kSpanCacheLookup, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanCacheLookup);
      const auto found = cache.lookup(key(i).hash);
      log_.close(span);
      ++gate_.checked;
      if (!found) ++gate_.wrong;
    });
    step(kSpanCacheDominating, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanCacheDominating);
      const auto found = cache.find_dominating(key(i).batch, key(i).bounds);
      log_.close(span);
      (void)found;
    });
    step(kSpanCacheFeasible, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanCacheFeasible);
      const auto found = cache.find_feasible(key(i).batch, key(i).bounds);
      log_.close(span);
      (void)found;
    });
  }

  void engine(std::vector<Metric>& out) {
    const Counters before = Counters::read(fabric_);
    step(kSpanEngineSubmit, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanEngineSubmit);
      auto future = fabric_.rank(key(i).owner)
                        .engine->submit(request_for(inputs_, job(i)));
      const auto reply = await(future, gate_);
      log_.close(span);
      if (reply) gate_.check(*reply, job(i).expected);
    });
    const Counters after = Counters::read(fabric_);
    double requests = 0, allocs = 0, locks = 0;
    for (std::size_t r = 0; r < kRanks; ++r) {
      requests += delta(after.counter(r, "engine_requests_total"),
                        before.counter(r, "engine_requests_total"));
      allocs += delta(after.counter(r, "engine_request_allocs_total"),
                      before.counter(r, "engine_request_allocs_total"));
      locks += delta(after.counter(r, "mutex_engine_queue_acquisitions_total"),
                     before.counter(r, "mutex_engine_queue_acquisitions_total"));
    }
    const auto n = static_cast<std::uint64_t>(requests);
    out.push_back({"engine.allocs_per_hit", "count", ratio(allocs, requests), n});
    out.push_back({"engine.queue_locks_per_hit", "count", ratio(locks, requests), n});
  }

  /// Canonical-labels requests and the owner's replies, as the entry
  /// rank's router and the owner's frame handler exchange them.
  void wire(std::vector<Metric>& out) {
    double request_bytes = 0, reply_bytes = 0;
    frames_.clear();
    step(kSpanWireEncodeRequest, [&](std::size_t i, auto open) {
      service::SolveRequest canonical_request(key(i).canonical->instance,
                                              key(i).solver, key(i).bounds);
      auto owner_future =
          fabric_.rank(key(i).owner).engine->submit(canonical_request);
      auto owner_reply = await(owner_future, gate_);
      if (!owner_reply) return;
      std::uint32_t span = open(kSpanWireEncodeRequest);
      std::string request_payload = service::encode_wire_request(canonical_request);
      log_.close(span);
      std::string error;
      span = open(kSpanWireDecodeRequest);
      const auto decoded = service::decode_wire_request(request_payload, error);
      log_.close(span);
      span = open(kSpanWireEncodeReply);
      std::string reply_payload = service::encode_wire_reply(*owner_reply);
      log_.close(span);
      span = open(kSpanWireDecodeReply);
      const auto reply = service::decode_wire_reply(reply_payload, error);
      log_.close(span);
      ++gate_.checked;
      if (!decoded || !reply) {
        ++gate_.errors;
      } else if (!matches(*reply, canonical_expected(i))) {
        ++gate_.wrong;
      }
      request_bytes += static_cast<double>(request_payload.size());
      reply_bytes += static_cast<double>(reply_payload.size());
      frames_.emplace_back(i, std::move(request_payload));
    });
    const auto n = static_cast<std::uint64_t>(frames_.size());
    out.push_back({"wire.request_bytes", "bytes",
                   ratio(request_bytes, static_cast<double>(n)), n});
    out.push_back({"wire.reply_bytes", "bytes",
                   ratio(reply_bytes, static_cast<double>(n)), n});
  }

  Expected canonical_expected(std::size_t i) const {
    Expected expected;
    expected.status = key(i).reference ? service::ReplyStatus::kSolved
                                       : service::ReplyStatus::kInfeasible;
    expected.solution = key(i).reference;
    return expected;
  }

  /// MuxFrameClient calls to the owner's frame server, on connections of
  /// the benchmark's own (one per rank).
  void network() {
    std::array<std::unique_ptr<net::MuxFrameClient>, kRanks> clients;
    for (std::size_t r = 0; r < kRanks; ++r) {
      clients[r] = std::make_unique<net::MuxFrameClient>(
          "127.0.0.1", fabric_.rank(r).server->port());
    }
    net::Frame ping;
    ping.type = net::FrameType::kPing;
    for (auto& client : clients) client->call(ping);  // connect
    step(kSpanNetPing, [&](std::size_t i, auto open) {
      const std::uint32_t span = open(kSpanNetPing);
      const auto pong = clients[key(i).owner]->call(ping);
      log_.close(span);
      ++gate_.checked;
      if (!pong || pong->type != net::FrameType::kPong) ++gate_.errors;
    });
    step(kSpanNetPing8, [&](std::size_t i, auto open) {
      std::array<std::future<std::optional<net::Frame>>, 8> pongs;
      const std::uint32_t span = open(kSpanNetPing8);
      for (auto& pong : pongs) pong = clients[key(i).owner]->call_async(ping);
      bool ok = true;
      for (auto& pong : pongs) {
        const auto frame = pong.get();
        ok = ok && frame && frame->type == net::FrameType::kPong;
      }
      log_.close(span);
      ++gate_.checked;
      if (!ok) ++gate_.errors;
    });
    for (const auto& [i, payload] : frames_) {
      net::Frame frame;
      frame.type = net::FrameType::kSolveRequest;
      frame.payload = payload;
      const std::uint32_t span = log_.open(kSpanNetSolveHit, 0, i);
      const auto reply_frame = clients[key(i).owner]->call(frame);
      log_.close(span);
      std::string error;
      std::optional<service::SolveReply> reply;
      if (reply_frame && reply_frame->type == net::FrameType::kSolveReply) {
        reply = service::decode_wire_reply(reply_frame->payload, error);
      }
      ++gate_.checked;
      if (!reply) {
        ++gate_.errors;
      } else if (!matches(*reply, canonical_expected(i))) {
        ++gate_.wrong;
      }
    }
  }

  /// ShardRouter::submit + get at depth 1 through the entry rank,
  /// noting which requests crossed loopback (not a local or replica hit).
  void router() {
    forwarded_.assign(sample_.size(), false);
    step(kSpanRouterSubmit, [&](std::size_t i, auto open) {
      const std::uint64_t before = fabric_.entry().stats().forwarded;
      const std::uint32_t span = open(kSpanRouterSubmit);
      auto future = fabric_.entry().submit(request_for(inputs_, job(i)));
      const auto reply = await(future, gate_);
      log_.close(span);
      forwarded_[i] = fabric_.entry().stats().forwarded > before;
      if (reply) gate_.check(*reply, job(i).expected);
    });
  }

  /// Solver::prepare / PreparedSolver::solve on the sample's instances:
  /// exact on homogeneous ones, heur-p+ls on every one.
  void solvers() {
    const solver::SolverRegistry& registry = solver::SolverRegistry::builtin();
    const auto exact = registry.find("exact");
    const auto heuristic = registry.find("heur-p+ls");
    std::vector<std::size_t> exact_keys;
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      if (exact->supports(key(i).canonical->instance) &&
          (exact_keys.empty() || key(i).canonical->instance_hash !=
                                     key(exact_keys.back())
                                         .canonical->instance_hash)) {
        exact_keys.push_back(i);
      }
      if (exact_keys.size() == kExactPrepareSample) break;
    }
    const std::uint32_t root = log_.open(kSpanLadder, 0, kSpanExactPrepare);
    for (std::size_t i : exact_keys) {
      std::uint32_t span = log_.open(kSpanExactPrepare, root, i);
      const auto session = exact->prepare(key(i).canonical->instance);
      log_.close(span);
      // The key's own bounds plus the sweep's ladder shape.
      const double work = key(i).canonical->instance.chain.total_work();
      for (std::size_t step = 0; step < kLadderSteps; ++step) {
        solver::Bounds bounds = key(i).bounds;
        bounds.latency_bound =
            work * (2.5 - 1.5 * static_cast<double>(step) /
                              static_cast<double>(kLadderSteps - 1));
        span = log_.open(kSpanExactQuery, root, i);
        const auto answer = session->solve(bounds);
        log_.close(span);
        (void)answer;
      }
    }
    log_.close(root);
    const std::uint32_t heuristic_root =
        log_.open(kSpanLadder, 0, kSpanHeuristic);
    for (std::size_t i = 0; i < std::min(sample_.size(), kHeuristicSample); ++i) {
      const std::uint32_t span = log_.open(kSpanHeuristic, heuristic_root, i);
      const auto answer = heuristic->prepare(key(i).canonical->instance)
                              ->solve(key(i).bounds);
      log_.close(span);
      if (key(i).solver == "heur-p+ls") {
        ++gate_.checked;
        if (answer.has_value() != key(i).reference.has_value() ||
            (answer && !same_solution(*answer, *key(i).reference))) {
          ++gate_.wrong;
        }
      }
    }
    log_.close(heuristic_root);
  }

  /// The Tracer calls one request makes, and Histogram::record (timed
  /// in batches of 1000: one record is below the clock's resolution).
  void telemetry(std::vector<Metric>& out) {
    obs::Tracer tracer;
    step(kSpanObsTrace, [&](std::size_t i, auto open) {
      const std::string label = key(i).solver + ":" + service::to_hex(key(i).hash);
      const std::uint32_t span = open(kSpanObsTrace);
      const std::uint64_t id = tracer.start(label);
      tracer.record(id, "cache_lookup", 0, 0.0, 1e-6);
      tracer.finish(id, 2e-6);
      log_.close(span);
    });
    obs::Histogram histogram;
    std::vector<double> per_record_ns;
    const std::uint32_t root = log_.open(kSpanLadder, 0, kSpanObsHistogram);
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      const std::uint32_t span = log_.open(kSpanObsHistogram, root, i);
      const std::int64_t start = now_ns();
      for (int r = 0; r < 1000; ++r) {
        histogram.record(1e-6 * static_cast<double>((i * 1000 + r) % 4096));
      }
      per_record_ns.push_back(static_cast<double>(now_ns() - start) / 1000.0);
      log_.close(span);
    }
    log_.close(root);
    out.push_back({"obs.histogram_record_ns", "ns", median(per_record_ns),
                   per_record_ns.size()});
  }

  const Inputs& inputs_;
  Fabric& fabric_;
  SpanLog& log_;
  Gate& gate_;
  std::vector<std::size_t> sample_;
  std::vector<std::pair<std::size_t, std::string>> frames_;
  std::vector<bool> forwarded_;
};

int usage_error(const std::string& message) {
  std::cerr << "fabric_bench: " << message
            << "\nusage: fabric_bench --workload local_hits|forward_hits|"
               "cold_sweep --seed N --seconds S --trace 0|1 [--tiny] "
               "[--spans PATH]\n";
  return 2;
}

int run(const Options& options) {
  const std::vector<int> usable = usable_cpus();
  const std::size_t cpus = usable.size();
  if (kClients > cpus) {
    std::cerr << "fabric_bench: " << kClients << " client threads exceed the "
              << cpus << " usable CPUs\n";
    return 1;
  }
  // Each client runs pinned to a CPU of its own (the last usable ones),
  // so the scheduler never moves it between cores inside a window.
  const std::vector<int> client_cpus(usable.end() - kClients, usable.end());
  const bool sweep = sweep_workload(options);
  const bool forward = options.workload == "forward_hits";
  const std::size_t hit_keys = options.tiny ? 64 : kHitKeys;
  const std::size_t sweep_ladders =
      options.tiny ? 8 : (options.trace ? kTraceSweepLadders : kSweepLadders);
  const std::size_t warmup_ladders = options.tiny ? 2 : kWarmupLadders;
  const std::size_t setups = options.trace ? 1 : kSetupRepeats;
  const std::size_t reference_threads = std::min(kReferenceThreads, cpus);

  // The planned slices plus one for the clients' closing requests.
  const std::size_t max_slices =
      sweep ? kSweepMaxSlices
            : std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                           options.seconds / kSliceSeconds))) +
                  1;
  std::vector<ClientRun> clients;  // touched before any set-up
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(max_slices, sweep ? kSweepSliceSamples : kSliceSamples,
                         options.seed * 0x9e3779b97f4a7c15ULL + 31 + c);
  }
  Gate gate;
  Budget budget;

  // Set-up, repeated: fabric start plus cache fill (hits) or warm-up
  // ladders (cold_sweep). Input generation and reference solves happen
  // once, between the first fabric's start and its fill, untimed.
  std::unique_ptr<Fabric> fabric;
  Inputs inputs;
  Inputs warmup;
  std::vector<double> setup_seconds;
  std::vector<double> start_seconds;
  for (std::size_t s = 0; s < setups; ++s) {
    fabric.reset();
    const Clock::time_point start = Clock::now();
    fabric = std::make_unique<Fabric>(/*entry_replicas=*/!forward);
    const double started =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (s == 0) {
      service::ShardRouter& entry = fabric->entry();
      const auto owner_of = [&entry](const service::CanonicalHash& key) {
        return entry.shard_of(key);
      };
      if (sweep) {
        inputs = sweep_inputs(options.seed, 21, sweep_ladders, owner_of);
        warmup = sweep_inputs(options.seed, 22, warmup_ladders, owner_of);
        compute_references(warmup, reference_threads);
      } else {
        inputs = hit_inputs(options.seed, hit_keys, forward ? 1 : 0, owner_of);
      }
      compute_references(inputs, reference_threads);
    }
    const Clock::time_point fill = Clock::now();
    if (sweep) {
      warm_sweep(*fabric, warmup, gate);
    } else {
      prefill(*fabric, inputs, gate);
    }
    const double filled =
        std::chrono::duration<double>(Clock::now() - fill).count();
    start_seconds.push_back(started);
    setup_seconds.push_back(started + filled);
  }

  // Warm the timed path: one untimed pass of each client over its jobs.
  if (!sweep) {
    const double seconds = options.tiny ? 0.2 : 1.0;
    run_window(options, inputs, *fabric, seconds, clients, client_cpus, 0);
    for (const ClientRun& client : clients) gate.merge(client.gate);
  }

  const double window_seconds =
      options.trace ? options.seconds * 0.3 : options.seconds;
  const WindowResult result = run_window(options, inputs, *fabric,
                                         window_seconds, clients, client_cpus, 1);
  gate.merge(result.gate);
  check_connections(*fabric, budget);

  const Distribution all_latency = result.all_latency();
  const Figures figures = result.figures();
  if (!options.tiny && !options.trace && figures.samples < kMinSamplesForP90) {
    budget.fail("p90 has fewer than 10 samples beyond it");
  }
  const double answered = static_cast<double>(result.answered);
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> diag = {
      {"diag.steal_share", result.steal_share},
      {"diag.quiet_steal_share", figures.steal_share},
      {"diag.slices", static_cast<double>(result.slices.size())},
      {"diag.quiet_slices", static_cast<double>(figures.slices)},
      {"diag.samples", static_cast<double>(figures.samples)},
      {"diag.all_samples", static_cast<double>(all_latency.size())},
      {"diag.probe_us", median(result.probe_us)},
      {"diag.probe_spread", spread(result.probe_us)},
      {"diag.nivcsw_per_req", ratio(static_cast<double>(result.nivcsw), answered)},
      {"diag.threads", static_cast<double>(process_threads())},
      {"diag.usable_cpus", static_cast<double>(cpus)},
      {"diag.clients_pinned", result.pinned ? 1.0 : 0.0},
      {"diag.fabric_start_s", median(start_seconds)},
  };
  // Tails are printed only where ten samples lie beyond them.
  if (figures.samples >= 1000) diag.push_back({"diag.p99_us", figures.p99_us});
  if (all_latency.size() >= 10000) {
    diag.push_back({"diag.p999_us", all_latency.quantile(0.999)});
  }

  if (!options.trace) {
    metrics = {
        {"p50_us", "us", figures.p50_us, figures.samples},
        {"p90_us", "us", figures.p90_us, figures.samples},
        {"throughput_rps", "1/s", figures.throughput_rps, result.answered},
        {"cpu_us_per_req", "us", figures.cpu_us_per_req, result.answered},
        {"peak_rss_mb", "MB", result.peak_rss_mb, 1},
        {"setup_s", "s", median(setup_seconds), setup_seconds.size()},
    };
  } else {
    // The traced window: the same workload with a span around every
    // ShardRouter::submit and future::get. The untraced window cached
    // cold_sweep's bursts, so they are replayed on a fresh fabric,
    // warmed up the same way: both windows do the same work.
    if (sweep) {
      fabric.reset();
      fabric = std::make_unique<Fabric>(/*entry_replicas=*/true);
      warm_sweep(*fabric, warmup, gate);
    }
    std::array<SpanLog, kClients> client_logs;
    for (std::size_t c = 0; c < kClients; ++c) clients[c].spans = &client_logs[c];
    const Counters before = Counters::read(*fabric);
    const WindowResult traced_result =
        run_window(options, inputs, *fabric, window_seconds, clients,
                   client_cpus, std::uint64_t{1} << 50);
    const Counters after = Counters::read(*fabric);
    gate.merge(traced_result.gate);
    check_connections(*fabric, budget);
    for (ClientRun& client : clients) client.spans = nullptr;

    const double untraced_mean = ratio(result.seconds, answered);
    const double traced_mean =
        ratio(traced_result.seconds, static_cast<double>(traced_result.answered));
    window_counts(before, after, sweep ? inputs.bursts.size() * 2 : 0,
                  traced_result.answered, metrics);

    SpanLog ladder_log;
    LadderPass ladder(inputs, *fabric, ladder_log, gate);
    ladder.run(metrics);

    SelfTimes self;
    for (const SpanLog& log : client_logs) self.add(log);
    self.add(ladder_log);
    const auto us = [&](SpanName name) {
      return Metric{"", "us", median(self.seconds[name]) * 1e6,
                    self.seconds[name].size()};
    };
    const auto named = [&](const char* metric, SpanName name) {
      Metric m = us(name);
      m.name = metric;
      metrics.push_back(m);
    };
    named("canonical.key_us", kSpanCanonicalKey);
    named("canonical.labels_us", kSpanCanonicalLabels);
    named("cache.lookup_us", kSpanCacheLookup);
    named("cache.insert_us", kSpanCacheInsert);
    named("cache.dominating_us", kSpanCacheDominating);
    named("cache.feasible_us", kSpanCacheFeasible);
    named("engine.hit_us", kSpanEngineSubmit);
    named("wire.encode_request_us", kSpanWireEncodeRequest);
    named("wire.decode_request_us", kSpanWireDecodeRequest);
    named("wire.encode_reply_us", kSpanWireEncodeReply);
    named("wire.decode_reply_us", kSpanWireDecodeReply);
    named("net.ping_rtt_us", kSpanNetPing);
    named("net.ping_rtt_depth8_us", kSpanNetPing8);
    named("net.solve_hit_rtt_us", kSpanNetSolveHit);
    named("router.submit_us", kSpanRouterSubmit);
    named("router.submit_call_us", kSpanSubmit);
    named("router.get_wait_us", kSpanGet);
    named("solver.exact_query_us", kSpanExactQuery);
    named("solver.heur_p_ls_us", kSpanHeuristic);
    named("obs.trace_us", kSpanObsTrace);
    {
      Metric prepare = us(kSpanExactPrepare);
      prepare.name = "solver.exact_prepare_ms";
      prepare.unit = "ms";
      prepare.value /= 1e3;
      metrics.push_back(prepare);
    }
    {
      // The forward-pool hand-off: a depth-1 forwarded hit minus the
      // parts timed on their own, over the ladder's forwarded requests.
      std::array<std::vector<double>, kSpanNameCount> forwarded;
      for (std::size_t i = 0; i < ladder.sample().size(); ++i) {
        if (!ladder.forwarded(i)) continue;
        for (SpanName name :
             {kSpanRouterSubmit, kSpanCanonicalKey, kSpanCanonicalLabels,
              kSpanWireEncodeRequest, kSpanWireDecodeReply, kSpanNetSolveHit}) {
          const auto& by_request = self.by_request[name];
          if (const auto it = by_request.find(i); it != by_request.end()) {
            forwarded[name].push_back(it->second);
          }
        }
      }
      const auto part = [&](SpanName name) { return median(forwarded[name]); };
      const double overhead =
          part(kSpanRouterSubmit) -
          (part(kSpanCanonicalKey) + part(kSpanCanonicalLabels) +
           part(kSpanWireEncodeRequest) + part(kSpanWireDecodeReply) +
           part(kSpanNetSolveHit));
      metrics.push_back({"router.forward_overhead_us", "us", overhead * 1e6,
                         forwarded[kSpanRouterSubmit].size()});
    }
    metrics.push_back({"trace.overhead_pct", "%",
                       (ratio(traced_mean, untraced_mean) - 1.0) * 100.0,
                       traced_result.answered});

    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : client_logs) logs.push_back(&log);
    logs.push_back(&ladder_log);
    write_spans(options.spans_path, logs);

    std::cout << "# per-layer metric\tvalue\tunit\tsamples\n";
    for (const Metric& m : metrics) {
      std::cout << "# " << m.name << '\t' << json_number(m.value) << '\t'
                << m.unit << '\t' << m.samples << '\n';
    }
  }

  const double attempted = static_cast<double>(gate.checked);
  diag.push_back({"gate.replies_checked", attempted});
  diag.push_back({"gate.error_rate", ratio(static_cast<double>(gate.failed()),
                                           attempted)});
  print_diag(diag);
  if (!budget.ok) std::cout << "# budget broken: " << budget.why << std::endl;
  fabric.reset();
  const bool correct = gate.failed() == 0 && budget.ok;
  print_result(correct, gate.checked, gate.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value());
      } else if (flag == "--trace") {
        options.trace = value() != "0";
      } else if (flag == "--tiny") {
        options.tiny = true;
      } else if (flag == "--spans") {
        options.spans_path = value();
      } else {
        return usage_error("unknown flag " + flag);
      }
    } catch (const std::exception& e) {
      return usage_error(e.what());
    }
  }
  if (!have_workload || (options.workload != "local_hits" &&
                         options.workload != "forward_hits" &&
                         options.workload != "cold_sweep")) {
    return usage_error("--workload must be local_hits, forward_hits or "
                       "cold_sweep");
  }
  if (!(options.seconds > 0.0)) return usage_error("--seconds must be > 0");
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "fabric_bench: " << e.what() << "\n";
    return 1;
  }
}
