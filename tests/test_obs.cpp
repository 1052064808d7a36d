// The observability layer: histogram quantiles against a sorted
// reference on randomized samples, bucket-boundary placement, lock-free
// recording and snapshot-and-reset under concurrency, tracer ring /
// slow-ring semantics, and the cross-rank tracing guarantees over the
// in-process fabric harness — a forwarded solve yields ONE trace whose
// spans name both ranks, and the trace survives failover after a rank
// kill.
#include "fabric_harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/mux_client.hpp"
#include "obs/alerts.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "service/protocol.hpp"

namespace prts::service {
namespace {

using testing::FabricHarness;

// ---------------------------------------------------------- histogram

/// Nearest-rank reference quantile, the same rank formula the histogram
/// uses — the two must land in the same bucket.
double reference_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

TEST(ObsHistogram, QuantilesTrackSortedReferenceOnRandomSamples) {
  std::mt19937 rng(42);
  // Log-uniform over the histogram's finite range: every decade gets
  // traffic, so the test exercises many buckets, not one.
  std::uniform_real_distribution<double> exponent(std::log(2e-6),
                                                  std::log(50.0));
  obs::Histogram hist;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double value = std::exp(exponent(rng));
    samples.push_back(value);
    hist.record(value);
  }
  const obs::Histogram::Snapshot snap = hist.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double truth = reference_quantile(samples, q);
    const double estimate = snap.quantile(q);
    // Estimate and truth share a bucket, so their ratio is bounded by
    // the bucket width 10^0.1 ~ 1.2589 (plus float slack).
    EXPECT_GT(estimate, truth / 1.27) << "q=" << q;
    EXPECT_LT(estimate, truth * 1.27) << "q=" << q;
  }
}

TEST(ObsHistogram, BucketBoundaryValuesLandInclusively) {
  // Bucket i covers (upper_bound(i-1), upper_bound(i)]: the bound value
  // itself belongs to the bucket it names.
  for (const std::size_t i : {std::size_t{0}, std::size_t{10},
                              std::size_t{39}, std::size_t{79}}) {
    const double bound = obs::Histogram::upper_bound(i);
    EXPECT_EQ(obs::Histogram::bucket_index(bound), i) << "bound " << bound;
    EXPECT_EQ(obs::Histogram::bucket_index(bound * 1.0001), i + 1);
  }
  // Below the first bound, zero and negative all land in bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_index(2e-7), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-1.0), 0u);
  // Above the last finite bound: the overflow bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(1000.0),
            obs::Histogram::kFiniteBuckets);

  obs::Histogram hist;
  hist.record(1000.0);
  // The overflow bucket reports the largest finite bound rather than
  // inventing a value beyond the histogram's range.
  EXPECT_DOUBLE_EQ(
      hist.snapshot().quantile(0.5),
      obs::Histogram::upper_bound(obs::Histogram::kFiniteBuckets - 1));
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing) {
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(1e-5 * (1 + t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += kPerThread * 1e-5 * (1 + t);
  EXPECT_NEAR(snap.sum, expected_sum, expected_sum * 1e-9);
}

TEST(ObsHistogram, SnapshotAndResetPartitionsConcurrentTraffic) {
  obs::Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::atomic<bool> done{false};
  std::uint64_t scraped = 0;
  // A scraper racing the recorders: every record must land in exactly
  // one snapshot — nothing lost, nothing double-counted.
  std::thread scraper([&] {
    while (!done.load()) {
      scraped += hist.snapshot_and_reset().count;
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.record(1e-4);
    });
  }
  for (std::thread& thread : recorders) thread.join();
  done.store(true);
  scraper.join();
  scraped += hist.snapshot_and_reset().count;
  EXPECT_EQ(scraped, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.snapshot().count, 0u);
}

// ----------------------------------------------------------- registry

TEST(ObsRegistry, ExpositionCarriesEveryRegisteredMetric) {
  obs::Registry registry;
  registry.counter("requests_total").add(3);
  registry.gauge("queue_depth").set(7.0);
  registry.histogram("latency_seconds").record(0.002);

  std::ostringstream prom;
  registry.write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 7"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_p99"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
  }

  std::ostringstream json;
  registry.write_json(json);
  EXPECT_EQ(json.str().front(), '{');
  EXPECT_EQ(json.str().back(), '}');
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
}

TEST(ObsRegistry, ReferencesAreStableAndCountersReset) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("hits_total");
  EXPECT_EQ(&counter, &registry.counter("hits_total"));
  counter.add(5);
  EXPECT_EQ(counter.exchange(), 5u);
  EXPECT_EQ(counter.value(), 0u);
}

// ------------------------------------------------------------- tracer

bool has_span(const obs::Trace& trace, const std::string& name, int rank) {
  for (const obs::Span& span : trace.spans) {
    if (span.name == name && span.rank == rank) return true;
  }
  return false;
}

TEST(ObsTracer, StartRecordFinishRoundTrip) {
  obs::Tracer tracer;
  const std::uint64_t id = tracer.start("heur-p:abc");
  ASSERT_NE(id, 0u);
  tracer.record(id, "solver_run", 0, 0.001, 0.5);
  tracer.finish(id, 0.6);
  obs::Trace trace;
  ASSERT_TRUE(tracer.find(id, trace));
  EXPECT_EQ(trace.label, "heur-p:abc");
  EXPECT_TRUE(trace.finished);
  EXPECT_DOUBLE_EQ(trace.total_seconds, 0.6);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_TRUE(has_span(trace, "solver_run", 0));
  // Upsert finish keeps the max: a later re-finish with a larger total
  // (the router amending after failover) wins, a smaller one does not.
  tracer.finish(id, 0.4);
  tracer.find(id, trace);
  EXPECT_DOUBLE_EQ(trace.total_seconds, 0.6);
  tracer.finish(id, 0.9);
  tracer.find(id, trace);
  EXPECT_DOUBLE_EQ(trace.total_seconds, 0.9);
}

TEST(ObsTracer, RingEvictsOldestAndIgnoresUnknownIds) {
  obs::TracerConfig config;
  config.capacity = 4;
  obs::Tracer tracer(config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(tracer.start("t"));
  obs::Trace trace;
  EXPECT_FALSE(tracer.find(ids[0], trace));  // evicted
  EXPECT_TRUE(tracer.find(ids.back(), trace));
  EXPECT_LE(tracer.recent(32).size(), 4u);
  // Recording against an evicted id is a silent no-op, not a crash.
  tracer.record(ids[0], "late", 0, 0.0, 0.1);
  tracer.finish(ids[0], 0.1);
}

TEST(ObsTracer, SlowTracesAreCopiedAndLoggedOnce) {
  std::ostringstream log;
  obs::TracerConfig config;
  config.slow_threshold_seconds = 0.01;
  config.slow_log = &log;
  obs::Tracer tracer(config);

  const std::uint64_t fast = tracer.start("fast");
  tracer.finish(fast, 0.001);
  EXPECT_EQ(tracer.slow_count(), 0u);

  const std::uint64_t slow = tracer.start("slow");
  tracer.record(slow, "solver_run", 0, 0.0, 0.02);
  tracer.finish(slow, 0.02);
  EXPECT_EQ(tracer.slow_count(), 1u);
  ASSERT_EQ(tracer.slow(8).size(), 1u);
  EXPECT_EQ(tracer.slow(8)[0].id, slow);
  EXPECT_NE(log.str().find("[slow-trace]"), std::string::npos);
  EXPECT_NE(log.str().find(obs::id_to_hex(slow)), std::string::npos);
  // A second finish (the failover amend path) does not double-log.
  tracer.finish(slow, 0.03);
  EXPECT_EQ(tracer.slow_count(), 1u);
}

TEST(ObsTracer, ExternalIdsAreAdoptedAndHexRoundTrips) {
  obs::Tracer tracer;
  tracer.start_with_id(0xdeadbeef12345678ull, "adopted");
  obs::Trace trace;
  ASSERT_TRUE(tracer.find(0xdeadbeef12345678ull, trace));
  EXPECT_EQ(trace.label, "adopted");

  EXPECT_EQ(obs::id_from_hex(obs::id_to_hex(0xdeadbeef12345678ull)),
            0xdeadbeef12345678ull);
  EXPECT_EQ(obs::id_to_hex(0xdeadbeef12345678ull).size(), 16u);
  EXPECT_EQ(obs::id_from_hex("nonsense"), 0u);
  EXPECT_EQ(obs::id_from_hex(""), 0u);
}

TEST(ObsTracer, AdoptedIdKeepsItsSpansAcrossASecondStart) {
  obs::TracerConfig config;
  config.capacity = 8;
  obs::Tracer tracer(config);
  const std::uint64_t id = 0xdeadbeef12345678ull;
  tracer.start_with_id(id, "first");
  tracer.record(id, "before", 1, 0.0, 0.1);
  // A failover re-submits a forward locally under its trace id, so the
  // engine adopts an id its rank already holds: the trace is re-opened,
  // not reset.
  tracer.start_with_id(id, "second");
  tracer.record(id, "after", 1, 0.2, 0.1);
  tracer.finish(id, 0.4);
  obs::Trace trace;
  ASSERT_TRUE(tracer.find(id, trace));
  EXPECT_EQ(trace.label, "first");
  EXPECT_TRUE(trace.finished);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "before");
  EXPECT_EQ(trace.spans[1].name, "after");
}

TEST(ObsTracer, RecentIsNewestFirstAcrossSlotsAndBoundedByCapacity) {
  obs::TracerConfig config;
  config.capacity = 8;
  obs::Tracer tracer(config);
  // Labels carry the creation order. The adopted id lands in the slot
  // its value names, between minted ones.
  for (int order = 0; order < 20; ++order) tracer.start(std::to_string(order));
  tracer.start_with_id(0x1234567812345678ull, "20");
  tracer.start("21");
  tracer.start("22");

  const std::vector<obs::Trace> recent = tracer.recent(100);
  ASSERT_EQ(recent.size(), 8u);
  EXPECT_EQ(recent[0].label, "22");
  EXPECT_EQ(recent[1].label, "21");
  EXPECT_EQ(recent[2].label, "20");
  EXPECT_EQ(recent[2].id, 0x1234567812345678ull);
  for (std::size_t k = 1; k < recent.size(); ++k) {
    EXPECT_GT(std::stoi(recent[k - 1].label), std::stoi(recent[k].label));
  }
  const std::vector<obs::Trace> newest = tracer.recent(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].label, "22");
  EXPECT_EQ(newest[1].label, "21");
}

TEST(ObsTracer, ConcurrentTracesAreFoundWholeOrEvicted) {
  // Four threads trace into a 64-slot ring while a fifth lists it: a
  // thread finding its own just-finished trace sees exactly its spans
  // or learns it was evicted, and a listed trace never mixes spans of
  // two traces.
  obs::TracerConfig config;
  config.capacity = 64;
  config.slow_threshold_seconds = 0.5;
  obs::Tracer tracer(config);
  constexpr int kThreads = 4;
  constexpr int kTraces = 20000;
  std::atomic<bool> writing{true};
  std::atomic<int> torn{0};
  std::atomic<std::uint64_t> found{0};
  const auto span_name = [](const std::string& label, std::size_t k) {
    return label + "/" + std::to_string(k);
  };

  std::thread reader([&] {
    while (writing.load()) {
      const std::vector<obs::Trace> recent = tracer.recent(1000);
      if (recent.size() > config.capacity) ++torn;
      for (const obs::Trace& trace : recent) {
        for (std::size_t k = 0; k < trace.spans.size(); ++k) {
          if (trace.spans[k].name != span_name(trace.label, k)) ++torn;
        }
      }
      tracer.slow(8);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kTraces; ++i) {
        const std::string label = std::to_string(t) + ":" + std::to_string(i);
        const std::uint64_t id = tracer.start(label);
        const std::size_t spans = 1 + static_cast<std::size_t>(i % 3);
        for (std::size_t k = 0; k < spans; ++k) {
          tracer.record(id, span_name(label, k), t, 0.0, 0.001);
        }
        tracer.finish(id, i % 97 == 0 ? 1.0 : 0.01);
        obs::Trace trace;
        if (!tracer.find(id, trace)) continue;  // evicted
        ++found;
        bool whole = trace.id == id && trace.label == label &&
                     trace.finished && trace.spans.size() == spans;
        for (std::size_t k = 0; whole && k < spans; ++k) {
          whole = trace.spans[k].name == span_name(label, k) &&
                  trace.spans[k].rank == t;
        }
        if (!whole) ++torn;
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  writing.store(false);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(found.load(), 0u);
  EXPECT_EQ(tracer.recent(1000).size(), config.capacity);
  EXPECT_GT(tracer.slow_count(), 0u);
  EXPECT_LE(tracer.slow(1000).size(), config.slow_capacity);
}

// -------------------------------------------------- engine integration

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

TEST(EngineTelemetry, SolveAndCacheHitEachGetTheirOwnTrace) {
  obs::Telemetry telemetry;
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);
  const SolveRequest request{hom_instance(), "heur-p", {}};

  const SolveReply cold = engine.submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  ASSERT_NE(cold.trace_id, 0u);
  obs::Trace cold_trace;
  ASSERT_TRUE(telemetry.tracer.find(cold.trace_id, cold_trace));
  EXPECT_TRUE(cold_trace.finished);
  EXPECT_TRUE(has_span(cold_trace, "batch_wait", 0));
  EXPECT_TRUE(has_span(cold_trace, "solver_run", 0));
  EXPECT_GT(cold_trace.total_seconds, 0.0);

  const SolveReply warm = engine.submit(request).get();
  ASSERT_TRUE(warm.cache_hit);
  ASSERT_NE(warm.trace_id, 0u);
  EXPECT_NE(warm.trace_id, cold.trace_id);
  obs::Trace warm_trace;
  ASSERT_TRUE(telemetry.tracer.find(warm.trace_id, warm_trace));
  EXPECT_TRUE(has_span(warm_trace, "cache_lookup", 0));

  EXPECT_EQ(telemetry.metrics.counter("engine_requests_total").value(), 2u);
  EXPECT_EQ(telemetry.metrics.histogram("engine_request_latency_seconds")
                .snapshot()
                .count,
            2u);
}

TEST(EngineTelemetry, WarmHitsTakeNoEngineLock) {
  obs::Telemetry telemetry;
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);
  const SolveRequest request{hom_instance(), "heur-p", {}};
  ASSERT_EQ(engine.submit(request).get().status, ReplyStatus::kSolved);
  engine.wait_idle();

  // The engine_queue probe counts every acquisition of the engine's
  // central mutex; exact hits are counted in the registry instead.
  const obs::Counter& locks =
      telemetry.metrics.counter("mutex_engine_queue_acquisitions_total");
  const std::uint64_t before = locks.value();
  constexpr std::uint64_t kHits = 64;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    ASSERT_TRUE(engine.submit(request).get().cache_hit);
  }
  EXPECT_EQ(locks.value() - before, 0u);
  EXPECT_EQ(telemetry.metrics.counter("engine_cache_hits_total").value(),
            kHits);
}

// The sampling rate the profiler-overhead gate (bench/profile_overhead)
// is built on: a warm exact hit makes two fast-path should_sample()
// calls (canonicalize, then the submit profile), so at the default
// period of 37 one thread's 37·k hits take exactly 2·k dual-clock
// samples, and the odd period splits them evenly between the sites.
TEST(EngineTelemetry, WarmHitsTakeTwoFastPathSamplesPerPeriod) {
  obs::Telemetry telemetry;
  ASSERT_EQ(telemetry.profiler.sample_period(), 37u);
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);
  const SolveRequest request{hom_instance(), "heur-p", {}};
  ASSERT_EQ(engine.submit(request).get().status, ReplyStatus::kSolved);
  engine.wait_idle();

  const obs::Counter& canonicalize =
      telemetry.metrics.counter("profile_canonicalize_samples_total");
  const obs::Counter& submit_path =
      telemetry.metrics.counter("profile_submit_path_samples_total");
  const std::uint64_t canonicalize_before = canonicalize.value();
  const std::uint64_t submit_path_before = submit_path.value();
  constexpr std::uint64_t kPeriods = 8;
  for (std::uint64_t i = 0; i < 37 * kPeriods; ++i) {
    ASSERT_TRUE(engine.submit(request).get().cache_hit);
  }
  EXPECT_EQ(canonicalize.value() - canonicalize_before, kPeriods);
  EXPECT_EQ(submit_path.value() - submit_path_before, kPeriods);
}

TEST(ProtocolTelemetry, ServeCommandsExposeMetricsAndTraces) {
  obs::Telemetry telemetry;
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);

  std::istringstream script(
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 3 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a heur-p inf inf\n"
      "sync\n"
      "stats --json\n"
      "metrics\n"
      "traces\n");
  std::ostringstream out;
  const ServeResult result = run_serve(script, out, engine);
  EXPECT_EQ(result.protocol_errors, 0u);
  const std::string text = out.str();
  EXPECT_NE(text.find("# stats-json {\"engine\""), std::string::npos);
  EXPECT_NE(text.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(text.find("# metrics begin"), std::string::npos);
  EXPECT_NE(text.find("engine_requests_total 1"), std::string::npos);
  EXPECT_NE(text.find("engine_solver_invocations_total 1"), std::string::npos);
  EXPECT_NE(text.find("cache_entries 1"), std::string::npos);
  EXPECT_EQ(text.find("prts_"), std::string::npos);
  EXPECT_NE(text.find("# metrics end"), std::string::npos);
  EXPECT_NE(text.find("# trace-entry id="), std::string::npos);

  // Round-trip: the id printed by `traces` resolves via `trace <id>`.
  const std::size_t pos = text.find("# trace-entry id=");
  const std::string id_hex = text.substr(pos + 17, 16);
  std::istringstream follow_up("trace " + id_hex + "\ntrace 0123\n");
  std::ostringstream detail;
  run_serve(follow_up, detail, engine);
  EXPECT_NE(detail.str().find("# trace id=" + id_hex), std::string::npos);
  EXPECT_NE(detail.str().find("# span rank=0 name="), std::string::npos);
  EXPECT_NE(detail.str().find("not-found"), std::string::npos);

  // A service configured without telemetry owns one: every telemetry
  // command answers.
  SolveService plain(ServiceConfig{});
  std::istringstream plain_script(
      "traces\ntrace 0011223344556677\nslowlog\ntimeseries\nprofile\n"
      "alerts\n");
  std::ostringstream plain_out;
  EXPECT_EQ(run_serve(plain_script, plain_out, plain).protocol_errors, 0u);
  EXPECT_NE(plain_out.str().find("# timeseries end"), std::string::npos);
  EXPECT_NE(plain_out.str().find("# profile {\"enabled\":true"),
            std::string::npos);
  EXPECT_NE(plain_out.str().find("# alerts {\"firing\":0"),
            std::string::npos);
}

TEST(ProtocolTelemetry, ListLimitsArePositiveIntegers) {
  SolveService engine(ServiceConfig{});
  std::istringstream script(
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 3 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a heur-p inf inf\n"
      "sync\n"
      "traces inf\n"
      "traces nan\n"
      "traces 1e300\n"
      "traces 0\n"
      "slowlog inf\n"
      "timeseries inf\n"
      "traces 1\n"
      "timeseries 2\n");
  std::ostringstream out;
  const ServeResult result = run_serve(script, out, engine);
  // One error per bad limit, and the session keeps serving.
  EXPECT_EQ(result.protocol_errors, 6u);
  const std::string text = out.str();
  std::size_t bad = 0;
  for (std::size_t pos = text.find("bad limit"); pos != std::string::npos;
       pos = text.find("bad limit", pos + 1)) {
    ++bad;
  }
  EXPECT_EQ(bad, 6u);
  const std::size_t entry = text.find("# trace-entry id=");
  ASSERT_NE(entry, std::string::npos);
  EXPECT_EQ(text.find("# trace-entry id=", entry + 1), std::string::npos);
  EXPECT_NE(text.find("# timeseries end"), std::string::npos);
}

// -------------------------------------------------- histogram merging

TEST(ObsHistogram, MergeAcrossRanksEqualsUnionHistogram) {
  // Three "ranks" record disjoint sample streams; merging their
  // snapshots must be indistinguishable from one rank having seen the
  // union — same counts, sum, and every quantile.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> exponent(std::log(1e-5),
                                                  std::log(10.0));
  obs::Histogram union_hist;
  std::vector<obs::Histogram> ranks(3);
  for (int i = 0; i < 30000; ++i) {
    const double value = std::exp(exponent(rng));
    union_hist.record(value);
    ranks[i % 3].record(value);
  }
  obs::Histogram::Snapshot merged = ranks[0].snapshot();
  merged.merge(ranks[1].snapshot());
  merged.merge(ranks[2].snapshot());
  const obs::Histogram::Snapshot truth = union_hist.snapshot();
  EXPECT_EQ(merged.count, truth.count);
  EXPECT_NEAR(merged.sum, truth.sum, truth.sum * 1e-12);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), truth.quantile(q)) << "q=" << q;
  }
}

// ----------------------------------------------------- flight recorder

TEST(ObsFlightRecorder, TickDeltasDescribeOnlyThatWindow) {
  obs::Registry registry;
  obs::FlightRecorder recorder(registry);
  registry.counter("requests_total").add(5);
  registry.counter("idle_total").add(2);
  recorder.tick_now();

  registry.counter("requests_total").add(3);
  registry.gauge("queue_depth").set(9.0);
  registry.histogram("latency_seconds").record(0.001);
  registry.histogram("latency_seconds").record(0.004);
  recorder.tick_now();

  const std::vector<obs::FlightRecorder::Tick> ticks = recorder.recent();
  ASSERT_EQ(ticks.size(), 2u);
  // Tick 0 baselines against zero: the pre-existing counts are its
  // window.
  EXPECT_EQ(ticks[0].counter_deltas.at("requests_total"), 5u);
  // Tick 1 sees only what moved since tick 0 — and idle_total, which
  // did not move, is dropped from the delta map entirely.
  EXPECT_EQ(ticks[1].counter_deltas.at("requests_total"), 3u);
  EXPECT_EQ(ticks[1].counter_deltas.count("idle_total"), 0u);
  EXPECT_DOUBLE_EQ(ticks[1].gauges.at("queue_depth"), 9.0);
  const auto& window = ticks[1].histograms.at("latency_seconds");
  EXPECT_EQ(window.count, 2u);
  EXPECT_NEAR(window.mean, 0.0025, 0.0025);
  EXPECT_GT(window.p99, window.p50 * 0.99);
  // The registry itself stayed cumulative: nothing was reset.
  EXPECT_EQ(registry.counter("requests_total").value(), 8u);
  EXPECT_EQ(registry.histogram("latency_seconds").snapshot().count, 2u);
}

TEST(ObsFlightRecorder, RingWrapsKeepingTheNewestTicks) {
  obs::Registry registry;
  obs::FlightRecorder recorder(registry);
  obs::FlightRecorderConfig config;
  config.capacity = 4;
  recorder.configure(config);
  for (int i = 0; i < 10; ++i) {
    registry.counter("ticker_total").add(1);
    recorder.tick_now();
  }
  EXPECT_EQ(recorder.total_ticks(), 10u);
  const std::vector<obs::FlightRecorder::Tick> all = recorder.recent();
  ASSERT_EQ(all.size(), 4u);
  // Oldest-first, and the survivors are exactly the last four seqs.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, 6u + i);
    EXPECT_EQ(all[i].counter_deltas.at("ticker_total"), 1u);
  }
  const std::vector<obs::FlightRecorder::Tick> two = recorder.recent(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].seq, 8u);
  EXPECT_EQ(two[1].seq, 9u);
}

// ------------------------------------------------------------ watchdog

TEST(ObsWatchdog, OnDemandComponentStallsOnlyUnderLoad) {
  obs::Registry registry;
  obs::Watchdog watchdog(registry);
  obs::WatchdogConfig config;
  config.stall_threshold_seconds = 0.05;
  config.poll_interval_seconds = 10.0;  // monitor thread effectively off
  watchdog.start(config);
  watchdog.stop();  // keep the config, drive check() by hand

  obs::Heartbeat& engine = watchdog.component("engine");
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Idle and silent: innocent.
  EXPECT_TRUE(watchdog.check().empty());
  EXPECT_EQ(watchdog.stalls_total(), 0u);

  // Busy and silent: wedged — and one episode counts once, however
  // often the monitor polls it.
  engine.set_load(3);
  std::vector<obs::Stall> stalls = watchdog.check();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].component, "engine");
  EXPECT_EQ(stalls[0].load, 3);
  watchdog.check();
  watchdog.check();
  EXPECT_EQ(watchdog.stalls_total(), 1u);

  // Progress clears it; a later silence is a NEW episode.
  engine.beat();
  EXPECT_TRUE(watchdog.check().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(watchdog.check().size(), 1u);
  EXPECT_EQ(watchdog.stalls_total(), 2u);

  // The registry mirrors follow.
  EXPECT_EQ(registry.counter("watchdog_stalls_total").value(), 2u);
  std::ostringstream json;
  watchdog.write_json(json);
  EXPECT_NE(json.str().find("\"stalls_total\":2"), std::string::npos);
  EXPECT_NE(json.str().find("\"component\":\"engine\""), std::string::npos);
}

TEST(ObsWatchdog, PeriodicComponentStallsEvenWhenIdle) {
  obs::Registry registry;
  obs::Watchdog watchdog(registry);
  obs::WatchdogConfig config;
  config.stall_threshold_seconds = 0.01;
  config.periodic_factor = 2.0;  // stalls at 2 * 0.03 = 0.06s of silence
  config.poll_interval_seconds = 10.0;
  watchdog.start(config);
  watchdog.stop();

  obs::Heartbeat& gossip = watchdog.component("router_gossip", 0.03);
  EXPECT_TRUE(watchdog.check().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Load is zero, but a periodic component has no excuse for silence.
  const std::vector<obs::Stall> stalls = watchdog.check();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].component, "router_gossip");
  gossip.beat();
  EXPECT_TRUE(watchdog.check().empty());

  // Re-registration refreshes the same slot rather than leaking a
  // second stale "router_gossip".
  EXPECT_EQ(&watchdog.component("router_gossip", 0.03), &gossip);
}

// ----------------------------------------------- timeseries over serve

TEST(ProtocolTelemetry, TimeseriesReturnsTheRecordedWindow) {
  obs::Telemetry telemetry;
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);

  std::istringstream warm(
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 3 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a heur-p inf inf\n"
      "sync\n");
  std::ostringstream warm_out;
  ASSERT_EQ(run_serve(warm, warm_out, engine).protocol_errors, 0u);
  telemetry.recorder.tick_now();
  telemetry.recorder.tick_now();

  std::istringstream script("timeseries\ntimeseries 1\ntimeseries bogus\n");
  std::ostringstream out;
  const ServeResult result = run_serve(script, out, engine);
  EXPECT_EQ(result.protocol_errors, 1u);  // the bogus limit
  const std::string text = out.str();
  EXPECT_NE(text.find("# timeseries ticks=2 window=2"), std::string::npos);
  EXPECT_NE(text.find("# timeseries ticks=2 window=1"), std::string::npos);
  // The solve landed in tick 0's window.
  EXPECT_NE(text.find("# tick seq=0"), std::string::npos);
  EXPECT_NE(text.find("engine_requests_total"), std::string::npos);
  EXPECT_NE(text.find("# timeseries end"), std::string::npos);

  // Watchdog verdict rides along in stats --json.
  std::istringstream stats_script("stats --json\n");
  std::ostringstream stats_out;
  run_serve(stats_script, stats_out, engine);
  EXPECT_NE(stats_out.str().find("\"watchdog\":{\"stalls_total\":0"),
            std::string::npos);
}

// --------------------------------------------------- fabric telemetry

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
  return harness.request_on_rank(instance, "heur-p", owner, salt);
}

TEST(RouterTelemetry, OwnedWarmHitsTakeNoRouterLock) {
  FabricHarness::Options options = fast_options(2);
  // No timer: a heartbeat round takes the router's lock on its own.
  options.router.heartbeat_interval_seconds = 0.0;
  // Replica tier off: a repeated forward is a forwarded hit.
  options.router.replica.capacity_bytes = 0;
  FabricHarness harness(options);
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, /*owner=*/0);
  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  harness.service(0).wait_idle();

  // The router probe counts every acquisition of the router's mutex. An
  // owned hit counts its key in a hot-key stripe; a forward, answered
  // or failed over, keeps no state the router would lock.
  const obs::Counter& locks = harness.telemetry(0).metrics.counter(
      "mutex_router_acquisitions_total");
  const std::uint64_t before = locks.value();
  constexpr std::uint64_t kHits = 64;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    ASSERT_TRUE(harness.router(0).submit(request).get().cache_hit);
  }
  EXPECT_EQ(harness.router(0).stats().local, kHits + 1);

  // Forwarded misses, then the same keys again as forwarded hits.
  constexpr std::uint64_t kForwards = 4;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < kForwards; ++i) {
      const SolveReply reply =
          harness.router(0)
              .submit(remote_request(harness, instance, 1, i * 5000.0))
              .get();
      ASSERT_EQ(reply.status, ReplyStatus::kSolved);
      EXPECT_EQ(reply.cache_hit, round == 1);
    }
  }
  EXPECT_EQ(harness.router(0).stats().forwarded, 2 * kForwards);
  EXPECT_EQ(harness.router(0).stats().forward_hits, kForwards);

  // One forward that fails over: its owner is gone.
  harness.kill(1);
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1, 9 * 5000.0))
                .get()
                .status,
            ReplyStatus::kSolved);
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 1u);

  EXPECT_EQ(locks.value() - before, 0u);
  // The probe is the live one: the handoff bookkeeping takes the lock.
  harness.router(0).wait_handoffs_idle();
  EXPECT_EQ(locks.value() - before, 1u);
}

// The replica probe is a per-request fast path too: one should_sample()
// call per replica hit, so 37·k hits on one thread take exactly k
// dual-clock samples, while every hit's span keeps its allocation bill.
TEST(RouterTelemetry, ReplicaHitsAreSampledOneInPeriod) {
  FabricHarness harness(fast_options(2));
  ASSERT_EQ(harness.telemetry(0).profiler.sample_period(), 37u);
  const SolveRequest request =
      remote_request(harness, hom_instance(), /*owner=*/1);
  ASSERT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);  // forwarded, then replicated

  const obs::Counter& samples = harness.telemetry(0).metrics.counter(
      "profile_replica_lookup_samples_total");
  const std::uint64_t samples_before = samples.value();
  const std::uint64_t replica_hits_before =
      harness.router(0).stats().replica_hits;
  constexpr std::uint64_t kPeriods = 8;
  std::vector<std::uint64_t> trace_ids;
  for (std::uint64_t i = 0; i < 37 * kPeriods; ++i) {
    const SolveReply reply = harness.router(0).submit(request).get();
    ASSERT_TRUE(reply.cache_hit);
    trace_ids.push_back(reply.trace_id);
  }
  EXPECT_EQ(harness.router(0).stats().replica_hits - replica_hits_before,
            37 * kPeriods);
  EXPECT_EQ(samples.value() - samples_before, kPeriods);

  // Of two consecutive hits at most one was sampled: both spans still
  // carry their allocations.
  for (std::size_t i = trace_ids.size() - 2; i < trace_ids.size(); ++i) {
    obs::Trace trace;
    ASSERT_TRUE(harness.telemetry(0).tracer.find(trace_ids[i], trace));
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_EQ(trace.spans[0].name, "replica_lookup");
    EXPECT_GT(trace.spans[0].alloc_count, 0u) << "hit " << i;
  }
}

TEST(FabricTelemetry, ForwardedSolveYieldsOneTraceNamingBothRanks) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, /*owner=*/1);

  const SolveReply reply = harness.router(0).submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  ASSERT_NE(reply.trace_id, 0u);

  // ONE trace id, per-hop spans from both ranks, on the origin.
  obs::Trace origin;
  ASSERT_TRUE(harness.telemetry(0).tracer.find(reply.trace_id, origin));
  EXPECT_TRUE(origin.finished);
  std::set<int> ranks;
  for (const obs::Span& span : origin.spans) ranks.insert(span.rank);
  EXPECT_TRUE(ranks.count(0)) << "origin spans missing";
  EXPECT_TRUE(ranks.count(1)) << "owner spans not merged";
  EXPECT_TRUE(has_span(origin, "wire_round_trip", 0));
  EXPECT_TRUE(has_span(origin, "solver_run", 1));
  // Remote spans are shifted into the origin's timeline: none may start
  // before the wire exchange did.
  double wire_start = 0.0;
  for (const obs::Span& span : origin.spans) {
    if (span.name == "wire_round_trip") wire_start = span.start_seconds;
  }
  for (const obs::Span& span : origin.spans) {
    if (span.rank == 1) {
      EXPECT_GE(span.start_seconds, wire_start);
    }
  }

  // The same id resolves on the owner too (`trace <id>` on either rank).
  obs::Trace owner;
  ASSERT_TRUE(harness.telemetry(1).tracer.find(reply.trace_id, owner));
  EXPECT_TRUE(owner.finished);
  EXPECT_TRUE(has_span(owner, "solver_run", 1));

  // The per-peer client counters registered under the origin's metrics.
  EXPECT_GE(harness.telemetry(0)
                .metrics.counter("net_client_rank1_calls_total")
                .value(),
            1u);
}

TEST(FabricTelemetry, OwnerHitAnsweredByKeyStillYieldsOneTrace) {
  // Replica tier off: the repeat crosses the wire and is an exact hit
  // on the owner, answered from the carried key.
  FabricHarness::Options options = fast_options(2);
  options.router.replica.capacity_bytes = 0;
  FabricHarness harness(options);
  // Every canonicalization on the owner is sampled, so a repeat that
  // parsed and canonicalized its instance would show up here.
  harness.telemetry(1).profiler.set_sample_period(1);
  const auto owner_canonicalizations = [&harness] {
    for (const auto& component : harness.telemetry(1).profiler.stats()) {
      if (component.name == "canonicalize") return component.samples;
    }
    return std::uint64_t{0};
  };
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, /*owner=*/1);

  const SolveReply cold = harness.router(0).submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  const std::uint64_t after_cold = owner_canonicalizations();
  EXPECT_EQ(after_cold, 1u);  // the miss verified its key

  const SolveReply reply = harness.router(0).submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_TRUE(reply.cache_hit);
  EXPECT_EQ(reply.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(reply.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(harness.router(0).stats().forward_hits, 1u);
  EXPECT_EQ(harness.service(1).stats().cache_hits, 1u);
  EXPECT_EQ(owner_canonicalizations(), after_cold);  // answered by key
  ASSERT_NE(reply.trace_id, 0u);
  ASSERT_NE(reply.trace_id, cold.trace_id);

  obs::Trace origin;
  ASSERT_TRUE(harness.telemetry(0).tracer.find(reply.trace_id, origin));
  EXPECT_TRUE(origin.finished);
  std::set<int> ranks;
  for (const obs::Span& span : origin.spans) ranks.insert(span.rank);
  EXPECT_EQ(ranks, (std::set<int>{0, 1}));
  EXPECT_TRUE(has_span(origin, "wire_round_trip", 0));
  EXPECT_TRUE(has_span(origin, "cache_lookup", 1));
  EXPECT_FALSE(has_span(origin, "solver_run", 1));

  obs::Trace owner;
  ASSERT_TRUE(harness.telemetry(1).tracer.find(reply.trace_id, owner));
  EXPECT_TRUE(owner.finished);
  EXPECT_TRUE(has_span(owner, "cache_lookup", 1));
}

TEST(FabricTelemetry, TraceSurvivesFailoverAfterRankKill) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  const SolveRequest request = remote_request(harness, instance, /*owner=*/1);
  harness.kill(1);

  const SolveReply reply = harness.router(0).submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  ASSERT_NE(reply.trace_id, 0u);
  EXPECT_EQ(harness.router(0).stats().local_fallbacks, 1u);

  obs::Trace trace;
  ASSERT_TRUE(harness.telemetry(0).tracer.find(reply.trace_id, trace));
  EXPECT_TRUE(trace.finished);
  // The whole story in one trace: the dead wire exchange, then the
  // local rescue solve.
  EXPECT_TRUE(has_span(trace, "forward_failover", 0));
  EXPECT_TRUE(has_span(trace, "solver_run", 0));
  for (const obs::Span& span : trace.spans) EXPECT_EQ(span.rank, 0);
}

TEST(FabricTelemetry, MetricsFrameScrapesAnyRank) {
  FabricHarness harness(fast_options(2));
  const Instance instance = hom_instance();
  ASSERT_EQ(harness.router(0)
                .submit(remote_request(harness, instance, 1))
                .get()
                .status,
            ReplyStatus::kSolved);

  for (std::size_t r = 0; r < harness.world(); ++r) {
    net::MuxFrameClient client("127.0.0.1", harness.port(r));
    net::Frame request;
    request.type = net::FrameType::kMetricsRequest;
    const auto reply = client.call(request);
    ASSERT_TRUE(reply.has_value()) << "rank " << r;
    ASSERT_EQ(reply->type, net::FrameType::kMetricsReply);
    EXPECT_NE(reply->payload.find("engine_requests_total"),
              std::string::npos);
    EXPECT_NE(reply->payload.find("router_forwarded_total"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ profiler

TEST(ObsProfiler, DualClockSeparatesComputeFromBlocking) {
  // Busy span: wall and thread-CPU both advance, and CPU never exceeds
  // wall beyond clock granularity. Spin until the thread has ACCRUED
  // the CPU time the assertion wants (not a fixed wall window): on a
  // loaded machine the scheduler can starve this thread to a sliver of
  // a fixed window's CPU.
  const obs::ScopedSample busy;
  const double cpu_start = obs::thread_cpu_seconds();
  volatile double sink = 0.0;
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto spin_floor =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < spin_floor ||
         (obs::thread_cpu_seconds() - cpu_start < 0.03 &&
          std::chrono::steady_clock::now() < spin_deadline)) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  const obs::WorkSample busy_work = busy.finish();
  EXPECT_GT(busy_work.wall_seconds, 0.04);
  EXPECT_GT(busy_work.cpu_seconds, 0.02);
  EXPECT_LE(busy_work.cpu_seconds, busy_work.wall_seconds + 0.005);

  // Sleeping span: wall advances, CPU barely moves — the whole region
  // reads as blocked time.
  const obs::ScopedSample idle;
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const obs::WorkSample idle_work = idle.finish();
  EXPECT_GT(idle_work.wall_seconds, 0.05);
  EXPECT_LT(idle_work.cpu_seconds, 0.02);
  EXPECT_GT(idle_work.blocked_seconds(), 0.03);
}

TEST(ObsProfiler, AllocationAccountingIsPerThread) {
  // A scope on this thread sees exactly its own allocations, even while
  // another thread churns the heap concurrently.
  std::atomic<bool> stop{false};
  std::thread noisy([&stop] {
    while (!stop.load()) {
      std::vector<std::string> junk;
      for (int i = 0; i < 64; ++i) junk.emplace_back(128, 'x');
    }
  });

  constexpr std::size_t kAllocs = 100;
  constexpr std::size_t kBytes = 256;
  std::vector<std::unique_ptr<char[]>> mine;
  mine.reserve(kAllocs);  // pre-size: the loop below allocates only blocks
  const obs::AllocScope scope;
  for (std::size_t i = 0; i < kAllocs; ++i) {
    mine.push_back(std::make_unique<char[]>(kBytes));
  }
  const obs::AllocCounts delta = scope.delta();
  stop.store(true);
  noisy.join();

  EXPECT_GE(delta.count, kAllocs);
  EXPECT_LT(delta.count, kAllocs + 16) << "foreign-thread allocs leaked in";
  EXPECT_GE(delta.bytes, kAllocs * kBytes);
}

TEST(ObsProfiler, ProfiledMutexCountsContentionAndWaitTime) {
  obs::Registry registry;
  const obs::ProfiledMutex::Probe probe =
      obs::ProfiledMutex::make_probe(registry, "test");
  obs::ProfiledMutex mutex;
  mutex.attach(&probe);

  mutex.lock();  // uncontended: fast path
  std::thread waiter([&mutex] {
    mutex.lock();  // contended: blocks until the holder lets go
    mutex.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  mutex.unlock();
  waiter.join();

  EXPECT_EQ(probe.acquisitions->value(), 2u);
  EXPECT_EQ(probe.contended->value(), 1u);
  EXPECT_EQ(probe.wait->snapshot().count, 1u);

  // The profiler's rollup decodes the same story from the registry.
  const obs::Profiler profiler(registry);
  const std::vector<obs::Profiler::MutexStats> mutexes = profiler.mutexes();
  ASSERT_EQ(mutexes.size(), 1u);
  EXPECT_EQ(mutexes[0].name, "test");
  EXPECT_EQ(mutexes[0].acquisitions, 2u);
  EXPECT_EQ(mutexes[0].contended, 1u);
  EXPECT_GT(mutexes[0].wait_seconds, 0.05);
}

TEST(ObsProfiler, ComponentsAggregateIntoRegistryAndJson) {
  obs::Registry registry;
  obs::Profiler profiler(registry);
  obs::WorkSample sample;
  sample.wall_seconds = 0.010;
  sample.cpu_seconds = 0.004;
  sample.alloc_count = 7;
  sample.alloc_bytes = 512;
  profiler.record("solver_run", sample);
  profiler.record("solver_run", sample);
  profiler.record("wire_round_trip", sample);

  const std::vector<obs::Profiler::ComponentStats> all = profiler.stats();
  ASSERT_EQ(all.size(), 2u);  // name-sorted
  EXPECT_EQ(all[0].name, "solver_run");
  EXPECT_EQ(all[0].samples, 2u);
  EXPECT_NEAR(all[0].wall_seconds, 0.020, 1e-4);
  EXPECT_NEAR(all[0].blocked_seconds, 0.012, 1e-4);
  EXPECT_EQ(all[0].alloc_count, 14u);
  EXPECT_EQ(all[0].alloc_bytes, 1024u);

  const std::vector<obs::Profiler::ComponentStats> filtered =
      profiler.stats("wire_round_trip");
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].name, "wire_round_trip");

  std::ostringstream json;
  profiler.write_json(json);
  EXPECT_EQ(json.str().rfind("{\"enabled\":true,\"components\":[", 0), 0u);
  EXPECT_NE(json.str().find("\"name\":\"solver_run\",\"samples\":2"),
            std::string::npos);
}

// -------------------------------------------------------------- alerts

obs::FlightRecorder::Tick gauge_tick(std::uint64_t seq, double queue_depth) {
  obs::FlightRecorder::Tick tick;
  tick.seq = seq;
  tick.uptime_seconds = static_cast<double>(seq);
  tick.interval_seconds = 1.0;
  tick.gauges["engine_queue_depth"] = queue_depth;
  return tick;
}

TEST(ObsAlerts, ParsesGrammarAndRejectsGarbage) {
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule(
      "engine_request_latency_seconds_p99>50ms;for=3;hold=7", rule, &error))
      << error;
  EXPECT_EQ(rule.metric, "engine_request_latency_seconds_p99");
  EXPECT_EQ(rule.op, ">");
  EXPECT_NEAR(rule.bound, 0.05, 1e-12);
  EXPECT_EQ(rule.for_ticks, 3);
  EXPECT_EQ(rule.hold_ticks, 7);

  ASSERT_TRUE(obs::parse_alert_rule("error_rate>=0.01", rule));
  EXPECT_EQ(rule.op, ">=");
  EXPECT_EQ(rule.for_ticks, 1);  // defaults
  EXPECT_EQ(rule.hold_ticks, 3);

  for (const char* bad :
       {"", "nonsense", ">5", "queue>", "q>1;for=x", "q>1;for=0",
        "q>1;bogus=2"}) {
    EXPECT_FALSE(obs::parse_alert_rule(bad, rule, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ObsAlerts, ForAndHoldDebounceDeterministically) {
  obs::Registry registry;
  obs::AlertEngine alerts(registry);
  std::string error;
  ASSERT_TRUE(
      alerts.add_rule("engine_queue_depth>100;for=2;hold=2", &error))
      << error;

  alerts.evaluate(gauge_tick(0, 150));  // breach 1 of 2: armed, not firing
  EXPECT_EQ(alerts.firing_count(), 0u);
  alerts.evaluate(gauge_tick(1, 150));  // breach 2 of 2: fires
  EXPECT_EQ(alerts.firing_count(), 1u);
  EXPECT_EQ(registry.gauge("alerts_firing").value(), 1.0);
  alerts.evaluate(gauge_tick(2, 150));  // still breaching: no re-fire
  EXPECT_EQ(alerts.firing_count(), 1u);
  alerts.evaluate(gauge_tick(3, 50));  // clean 1 of 2: holds
  EXPECT_EQ(alerts.firing_count(), 1u);
  alerts.evaluate(gauge_tick(4, 50));  // clean 2 of 2: resolves
  EXPECT_EQ(alerts.firing_count(), 0u);
  EXPECT_EQ(registry.gauge("alerts_firing").value(), 0.0);

  const std::vector<obs::AlertEngine::RuleState> states = alerts.states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_FALSE(states[0].firing);
  EXPECT_EQ(states[0].fired_total, 1u);
  EXPECT_EQ(states[0].resolved_total, 1u);
  EXPECT_EQ(states[0].ticks_evaluated, 5u);

  std::ostringstream json;
  alerts.write_json(json);
  EXPECT_EQ(json.str().rfind("{\"firing\":0,\"rules\":[", 0), 0u);
  EXPECT_NE(json.str().find("\"fired\":1"), std::string::npos);
}

TEST(ObsAlerts, CounterDeltaRuleSeesOnlyTheTickWindow) {
  obs::Registry registry;
  obs::AlertEngine alerts(registry);
  ASSERT_TRUE(alerts.add_rule("watchdog_stalls_total_delta>0;hold=2"));

  obs::FlightRecorder::Tick stall = gauge_tick(0, 0);
  stall.counter_deltas["watchdog_stalls_total"] = 1;
  alerts.evaluate(stall);  // for=1 default: fires on the first breach
  EXPECT_EQ(alerts.firing_count(), 1u);

  // The counter never moves again: absent delta reads as zero, and two
  // clean ticks resolve the alert.
  alerts.evaluate(gauge_tick(1, 0));
  EXPECT_EQ(alerts.firing_count(), 1u);
  alerts.evaluate(gauge_tick(2, 0));
  EXPECT_EQ(alerts.firing_count(), 0u);
  ASSERT_EQ(alerts.states().size(), 1u);
  EXPECT_EQ(alerts.states()[0].fired_total, 1u);
  EXPECT_EQ(alerts.states()[0].resolved_total, 1u);
}

TEST(ObsAlerts, ErrorAndRejectRatesReadTheEngineCountersPerTick) {
  obs::Telemetry telemetry;
  ASSERT_TRUE(telemetry.alerts.add_rule("error_rate>=0.25;hold=1"));
  ASSERT_TRUE(telemetry.alerts.add_rule("reject_rate>=0.5;hold=1"));
  const auto rate = [&](std::size_t rule) {
    return telemetry.alerts.states().at(rule).last_value;
  };
  const Instance instance = hom_instance();

  // Tick 1: two queue rejections out of two requests.
  {
    ServiceConfig config;
    config.threads = 1;
    config.max_queue_depth = 0;
    config.telemetry = &telemetry;
    SolveService engine(config);
    for (const double period : {100.0, 200.0}) {
      SolveRequest request{instance, "heur-p", {}};
      request.bounds.period_bound = period;
      ASSERT_EQ(engine.submit(request).get().status,
                ReplyStatus::kRejectedQueue);
    }
  }
  telemetry.recorder.tick_now();
  EXPECT_EQ(rate(0), 0.0);
  EXPECT_EQ(rate(1), 1.0);
  EXPECT_EQ(telemetry.alerts.firing_count(), 1u);

  // Tick 2: one error and one deadline rejection out of four requests.
  {
    ServiceConfig config;
    config.threads = 1;
    config.telemetry = &telemetry;
    SolveService engine(config);
    ASSERT_EQ(engine.submit(SolveRequest{instance, "heur-p", {}}).get().status,
              ReplyStatus::kSolved);
    ASSERT_EQ(engine.submit(SolveRequest{instance, "heur-p", {}}).get().status,
              ReplyStatus::kSolved);
    const SolveRequest unknown{instance, "no-such-solver", {}};
    ASSERT_EQ(engine.submit(unknown).get().status, ReplyStatus::kError);
    SolveRequest late{instance, "exact", {}, 0.0, DeadlinePolicy::kReject};
    ASSERT_EQ(engine.submit(late).get().status,
              ReplyStatus::kRejectedDeadline);
  }
  telemetry.recorder.tick_now();
  EXPECT_EQ(rate(0), 0.25);
  EXPECT_EQ(rate(1), 0.25);
  const std::vector<obs::AlertEngine::RuleState> states =
      telemetry.alerts.states();
  EXPECT_TRUE(states[0].firing);
  EXPECT_FALSE(states[1].firing);  // resolved after its one-tick hold

  // Tick 3: no requests, so neither rate has a denominator.
  telemetry.recorder.tick_now();
  EXPECT_EQ(rate(0), 0.0);
  EXPECT_EQ(rate(1), 0.0);
  EXPECT_EQ(telemetry.alerts.firing_count(), 0u);
}

// ---------------------------------------------------------- exposition

TEST(ObsExposition, ParsesSampleLinesAndRejectsMalformed) {
  std::string name;
  double value = 0.0;
  EXPECT_TRUE(obs::parse_exposition_line("engine_requests_total 42", name,
                                         value));
  EXPECT_EQ(name, "engine_requests_total");
  EXPECT_EQ(value, 42.0);
  EXPECT_TRUE(obs::parse_exposition_line("hist_bucket{le=\"0.1\"} 7", name,
                                         value));
  EXPECT_EQ(name, "hist_bucket{le=\"0.1\"}");
  for (const char* bad : {"", "1bad 2", "name", "name x", "name 1 2x"}) {
    EXPECT_FALSE(obs::parse_exposition_line(bad, name, value)) << bad;
  }
}

TEST(ObsExposition, TrackerDistinguishesRestartFromBackwards) {
  obs::ScrapeDeltaTracker tracker;
  const std::map<std::string, double> baseline{
      {"a_total", 10}, {"process_start_time_seconds", 111}, {"depth", 5}};
  const obs::ScrapeDeltaTracker::Result first = tracker.feed(baseline);
  EXPECT_TRUE(first.first);
  EXPECT_TRUE(first.deltas.empty());

  // Healthy advance: one counter delta, gauges ignored.
  const obs::ScrapeDeltaTracker::Result advance = tracker.feed(
      {{"a_total", 15}, {"process_start_time_seconds", 111}, {"depth", 9}});
  EXPECT_FALSE(advance.first);
  EXPECT_FALSE(advance.restart);
  EXPECT_TRUE(advance.backwards.empty());
  ASSERT_EQ(advance.deltas.size(), 1u);
  EXPECT_EQ(advance.deltas[0].name, "a_total");
  EXPECT_EQ(advance.deltas[0].value, 5.0);

  // Counters reset AND a fresh start time: a restart, deltas rebase
  // from zero — not an error.
  const obs::ScrapeDeltaTracker::Result restart = tracker.feed(
      {{"a_total", 3}, {"process_start_time_seconds", 222}});
  EXPECT_TRUE(restart.restart);
  EXPECT_TRUE(restart.backwards.empty());
  ASSERT_EQ(restart.deltas.size(), 1u);
  EXPECT_EQ(restart.deltas[0].value, 3.0);

  // A counter that shrinks under an unchanged start time is a genuine
  // monotonicity violation.
  const obs::ScrapeDeltaTracker::Result corrupt = tracker.feed(
      {{"a_total", 1}, {"process_start_time_seconds", 222}});
  EXPECT_FALSE(corrupt.restart);
  ASSERT_EQ(corrupt.backwards.size(), 1u);
  EXPECT_EQ(corrupt.backwards[0], "a_total");
}

// ------------------------------------------- protocol: profile / alerts

TEST(ProtocolTelemetry, ProfileAndAlertsCommandsRenderState) {
  obs::Telemetry telemetry;
  ASSERT_TRUE(telemetry.alerts.add_rule("engine_queue_depth>1e9"));
  ServiceConfig config;
  config.threads = 2;
  config.telemetry = &telemetry;
  SolveService engine(config);
  const SolveRequest request{hom_instance(), "heur-p", {}};
  ASSERT_EQ(engine.submit(request).get().status, ReplyStatus::kSolved);

  std::istringstream script(
      "profile\nprofile solver_run\nalerts\nstats --json\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(script, out, engine).protocol_errors, 0u);
  const std::string text = out.str();
  EXPECT_NE(text.find("# profile {\"enabled\":true"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"solver_run\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"engine_queue\""), std::string::npos);
  EXPECT_NE(text.find("# alerts {\"firing\":0"), std::string::npos);
  EXPECT_NE(text.find("engine_queue_depth>1e9"), std::string::npos);
  EXPECT_NE(text.find("\"profile\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(text.find("\"alerts\":{\"firing\":0"), std::string::npos);

  // The filtered view narrows to the named component only.
  const std::size_t filtered_pos = text.find("# profile ", 11);
  ASSERT_NE(filtered_pos, std::string::npos);
  const std::string filtered =
      text.substr(filtered_pos, text.find('\n', filtered_pos) - filtered_pos);
  EXPECT_NE(filtered.find("solver_run"), std::string::npos);
  EXPECT_EQ(filtered.find("cache_lookup"), std::string::npos);

  // The submit path's allocation accounting surfaced per request.
  EXPECT_GT(telemetry.metrics.gauge("engine_allocs_per_request").value(),
            0.0);
}

}  // namespace
}  // namespace prts::service
