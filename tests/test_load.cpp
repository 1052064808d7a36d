// The load subsystem: trace serialization round trips byte-for-byte,
// same-seed generation is deterministic, arrival processes hit their
// nominal rates, Zipf skew and solver mixes shape the draw, the SLO
// grammar parses (and rejects garbage), the open-loop runner classifies
// every outcome and never wedges on a stuck future, and the sustainable
// -rate search converges on the pass/fail boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "load/arrivals.hpp"
#include "load/generator.hpp"
#include "load/slo.hpp"
#include "load/trace.hpp"
#include "model/generator.hpp"
#include "service/engine.hpp"

#include "gated_solver.hpp"

namespace prts::load {
namespace {

LoadTrace sample_trace() {
  LoadTrace trace;
  trace.meta["process"] = "poisson";
  trace.meta["rate"] = "250";
  ArrivalEvent a;
  a.time_seconds = 0.012345678901234567;
  a.instance = 3;
  a.solver = "portfolio";
  a.bounds.latency_bound = 1050.0;
  ArrivalEvent b;
  b.time_seconds = 1.5;
  b.instance = 0;
  b.solver = "exact";
  trace.events = {a, b};  // b keeps both bounds at +inf
  return trace;
}

TEST(LoadTrace, RoundTripIsByteIdentical) {
  const LoadTrace trace = sample_trace();
  const std::string once = trace_to_string(trace);
  LoadTrace reread;
  std::string error;
  ASSERT_TRUE(trace_from_string(once, reread, &error)) << error;
  EXPECT_EQ(trace_to_string(reread), once);

  ASSERT_EQ(reread.events.size(), 2u);
  EXPECT_EQ(reread.events[0].time_seconds, trace.events[0].time_seconds);
  EXPECT_EQ(reread.events[0].instance, 3u);
  EXPECT_EQ(reread.events[0].solver, "portfolio");
  EXPECT_EQ(reread.events[0].bounds.latency_bound, 1050.0);
  EXPECT_TRUE(std::isinf(reread.events[1].bounds.latency_bound));
  EXPECT_EQ(reread.meta, trace.meta);
}

TEST(LoadTrace, RejectsMalformedInput) {
  LoadTrace trace;
  std::string error;
  EXPECT_FALSE(trace_from_string("", trace, &error));
  EXPECT_FALSE(trace_from_string("not-a-trace v1\nend\n", trace, &error));
  // Truncated: promises two events, delivers one.
  const std::string truncated =
      "prts-load-trace v1\nevents 2\n0 0 exact inf inf\nend\n";
  EXPECT_FALSE(trace_from_string(truncated, trace, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Arrivals, SameSeedSameTrace) {
  for (const Process process :
       {Process::kPoisson, Process::kBursty, Process::kUniform}) {
    ArrivalConfig config;
    config.process = process;
    config.rate = 300;
    config.duration_seconds = 2.0;
    config.seed = 77;
    const std::string a = trace_to_string(generate_arrivals(config));
    const std::string b = trace_to_string(generate_arrivals(config));
    EXPECT_EQ(a, b) << process_name(process);
    config.seed = 78;
    EXPECT_NE(trace_to_string(generate_arrivals(config)), a)
        << process_name(process);
  }
}

TEST(Arrivals, PoissonHitsNominalRate) {
  ArrivalConfig config;
  config.rate = 500;
  config.duration_seconds = 4.0;
  config.seed = 5;
  const LoadTrace trace = generate_arrivals(config);
  // Mean 2000, sigma ~45: a 10-sigma band will not flake.
  EXPECT_GT(trace.events.size(), 1550u);
  EXPECT_LT(trace.events.size(), 2450u);
  double previous = 0.0;
  for (const ArrivalEvent& event : trace.events) {
    EXPECT_GE(event.time_seconds, previous);
    EXPECT_LT(event.time_seconds, config.duration_seconds);
    previous = event.time_seconds;
  }
}

TEST(Arrivals, BurstyMatchesNominalRateLongRun) {
  ArrivalConfig config;
  config.process = Process::kBursty;
  config.rate = 400;
  config.duration_seconds = 30.0;  // many dwell cycles
  config.seed = 11;
  const LoadTrace trace = generate_arrivals(config);
  const double achieved =
      static_cast<double>(trace.events.size()) / config.duration_seconds;
  EXPECT_NEAR(achieved, config.rate, 0.15 * config.rate);
}

TEST(Arrivals, ZipfSkewsTowardLowKeys) {
  ArrivalConfig config;
  config.rate = 2000;
  config.duration_seconds = 4.0;
  config.key_count = 16;
  config.zipf_s = 1.2;
  config.seed = 9;
  const LoadTrace trace = generate_arrivals(config);
  std::vector<std::size_t> counts(config.key_count, 0);
  for (const ArrivalEvent& event : trace.events) {
    ASSERT_LT(event.instance, config.key_count);
    ++counts[event.instance];
  }
  // Rank 1 vs rank 16 under Zipf(1.2): expected ratio 16^1.2 ~ 28.
  EXPECT_GT(counts[0], 8 * std::max<std::size_t>(counts[15], 1));

  config.zipf_s = 0.0;  // degenerates to uniform
  const LoadTrace flat = generate_arrivals(config);
  std::vector<std::size_t> flat_counts(config.key_count, 0);
  for (const ArrivalEvent& event : flat.events) ++flat_counts[event.instance];
  const double mean = static_cast<double>(flat.events.size()) /
                      static_cast<double>(config.key_count);
  for (const std::size_t count : flat_counts) {
    EXPECT_NEAR(static_cast<double>(count), mean, 0.5 * mean);
  }
}

TEST(Arrivals, SolverMixWeightsRespected) {
  ArrivalConfig config;
  config.rate = 2000;
  config.duration_seconds = 2.0;
  config.solver_mix = {{"portfolio", 0.9}, {"exact", 0.1}};
  config.seed = 21;
  const LoadTrace trace = generate_arrivals(config);
  std::size_t portfolio = 0;
  std::size_t exact = 0;
  for (const ArrivalEvent& event : trace.events) {
    if (event.solver == "portfolio") ++portfolio;
    if (event.solver == "exact") ++exact;
  }
  EXPECT_EQ(portfolio + exact, trace.events.size());
  EXPECT_GT(exact, 0u);
  EXPECT_GT(portfolio, 4 * exact);
}

TEST(Arrivals, RejectsBadConfig) {
  ArrivalConfig config;
  config.rate = 0;
  EXPECT_THROW(generate_arrivals(config), std::invalid_argument);
  config = ArrivalConfig{};
  config.key_count = 0;
  EXPECT_THROW(generate_arrivals(config), std::invalid_argument);
  config = ArrivalConfig{};
  config.solver_mix.clear();
  EXPECT_THROW(generate_arrivals(config), std::invalid_argument);
}

TEST(Slo, ParsesGrammar) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(parse_slo("p99<=50ms;error_rate<=0.01", spec, &error)) << error;
  ASSERT_EQ(spec.criteria.size(), 2u);
  EXPECT_EQ(spec.criteria[0].metric, "p99");
  EXPECT_DOUBLE_EQ(spec.criteria[0].bound, 0.05);
  EXPECT_EQ(spec.criteria[1].metric, "error_rate");
  EXPECT_DOUBLE_EQ(spec.criteria[1].bound, 0.01);

  ASSERT_TRUE(parse_slo(" mean<=250us ; p50<=2s ", spec, &error)) << error;
  EXPECT_DOUBLE_EQ(spec.criteria[0].bound, 250e-6);
  EXPECT_DOUBLE_EQ(spec.criteria[1].bound, 2.0);
}

TEST(Slo, RejectsGarbage) {
  SloSpec spec;
  EXPECT_FALSE(parse_slo("", spec));
  EXPECT_FALSE(parse_slo("p99<50ms", spec));
  EXPECT_FALSE(parse_slo("p42<=50ms", spec));
  EXPECT_FALSE(parse_slo("p99<=banana", spec));
  EXPECT_FALSE(parse_slo("p99<=-1ms", spec));
}

TEST(Slo, EvaluatesAgainstRunResult) {
  RunResult result;
  result.submitted = 100;
  result.answered = 98;
  result.errors = 2;
  result.latencies.assign(100, 0.004);
  SloSpec spec;
  ASSERT_TRUE(parse_slo("p99<=5ms;error_rate<=0.05", spec));
  EXPECT_TRUE(evaluate_slo(spec, result).pass);
  ASSERT_TRUE(parse_slo("p99<=1ms", spec));
  const SloReport report = evaluate_slo(spec, result);
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_DOUBLE_EQ(report.checks[0].observed, 0.004);
}

std::vector<Instance> small_corpus(std::size_t n) {
  std::vector<Instance> instances;
  for (std::size_t k = 0; k < n; ++k) {
    Rng rng(4000 + k);
    ChainConfig chain_config;
    chain_config.task_count = 8;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(4, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }
  return instances;
}

TEST(OpenLoop, ClassifiesEveryOutcome) {
  // Synthetic submit: cycle through the full reply-status alphabet.
  ArrivalConfig config;
  config.rate = 2000;
  config.duration_seconds = 0.05;
  config.seed = 31;
  const LoadTrace trace = generate_arrivals(config);
  ASSERT_GT(trace.events.size(), 10u);

  std::size_t calls = 0;
  const SubmitFn submit = [&calls](service::SolveRequest) {
    std::promise<service::SolveReply> promise;
    service::SolveReply reply;
    switch (calls++ % 5) {
      case 0:
      case 1:
        reply.status = service::ReplyStatus::kSolved;
        break;
      case 2:
        reply.status = service::ReplyStatus::kInfeasible;
        break;
      case 3:
        reply.status = service::ReplyStatus::kRejectedQueue;
        break;
      default:
        reply.status = service::ReplyStatus::kError;
        break;
    }
    promise.set_value(std::move(reply));
    return promise.get_future();
  };

  const RunResult result =
      run_open_loop(trace, small_corpus(2), submit);
  EXPECT_EQ(result.submitted, trace.events.size());
  EXPECT_EQ(result.answered + result.rejected + result.errors,
            result.submitted);
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_EQ(result.latencies.size(), result.answered);
  // 3 of every 5 statuses are answers.
  EXPECT_NEAR(static_cast<double>(result.answered),
              0.6 * static_cast<double>(result.submitted), 3.0);
}

TEST(OpenLoop, StuckFutureBecomesUnresolvedNotHang) {
  ArrivalConfig config;
  config.rate = 300;
  config.duration_seconds = 0.05;
  config.seed = 32;
  const LoadTrace trace = generate_arrivals(config);
  ASSERT_GT(trace.events.size(), 1u);

  // First request never resolves; the rest answer immediately.
  std::vector<std::promise<service::SolveReply>> stuck;
  std::size_t calls = 0;
  const SubmitFn submit = [&](service::SolveRequest) {
    if (calls++ == 0) {
      stuck.emplace_back();
      return stuck.back().get_future();
    }
    std::promise<service::SolveReply> promise;
    service::SolveReply reply;
    reply.status = service::ReplyStatus::kSolved;
    promise.set_value(std::move(reply));
    return promise.get_future();
  };

  OpenLoopOptions options;
  options.drain_timeout_seconds = 0.2;
  const RunResult result =
      run_open_loop(trace, small_corpus(1), submit, options);
  EXPECT_EQ(result.unresolved, 1u);
  EXPECT_EQ(result.answered, result.submitted - 1);
  EXPECT_GT(result.error_rate(), 0.0);
}

TEST(OpenLoop, DrivesRealEngineToCompletion) {
  service::ServiceConfig service_config;
  service_config.threads = 2;
  service::SolveService engine(service_config);

  ArrivalConfig config;
  config.rate = 400;
  config.duration_seconds = 0.25;
  config.key_count = 4;
  config.seed = 33;
  const LoadTrace trace = generate_arrivals(config);
  ASSERT_GT(trace.events.size(), 20u);

  const std::vector<Instance> instances = small_corpus(4);
  const RunResult result = run_open_loop(
      trace, instances, [&engine](service::SolveRequest request) {
        return engine.submit(std::move(request));
      });
  EXPECT_EQ(result.submitted, trace.events.size());
  EXPECT_EQ(result.answered, result.submitted);
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.offered_rate, 0.0);
}

TEST(OpenLoop, TinyQueueRejectsWithoutBlockingArrivals) {
  // Admission control under a queue of 1: arrivals keep their schedule
  // (open loop) and the overflow comes back kRejectedQueue instead of
  // wedging a waiter. Every submission still resolves. The one worker
  // is held behind a gate until the last arrival is submitted, so the
  // queue must overflow however fast the solver is.
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(
      std::make_shared<testutil::GatedSolver>(gate.get_future().share()));
  service::ServiceConfig service_config;
  service_config.registry = &registry;
  service_config.threads = 1;
  service_config.max_queue_depth = 1;
  service::SolveService engine(service_config);
  testutil::GateOpener opener(gate);

  ArrivalConfig config;
  config.rate = 4000;
  config.duration_seconds = 0.25;
  config.key_count = 64;
  config.bounds_per_key = 8;
  config.solver_mix = {{"gated", 1.0}};
  config.seed = 34;
  const LoadTrace trace = generate_arrivals(config);

  std::size_t submitted = 0;
  const RunResult result = run_open_loop(
      trace, small_corpus(8), [&](service::SolveRequest request) {
        auto reply = engine.submit(std::move(request));
        if (++submitted == trace.events.size()) opener.open();
        return reply;
      });
  EXPECT_EQ(result.submitted, trace.events.size());
  EXPECT_EQ(result.answered + result.rejected + result.errors,
            result.submitted);
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_GT(result.rejected, 0u);
}

TEST(SloSearch, ConvergesOnPassFailBoundary) {
  // Synthetic fabric: p99 is 5ms up to 1000 rps, 20ms beyond — the SLO
  // boundary sits exactly at 1000.
  const auto run_at = [](double rate) {
    RunResult result;
    result.submitted = 100;
    result.answered = 100;
    result.latencies.assign(100, rate <= 1000.0 ? 0.005 : 0.020);
    return result;
  };
  SloSpec spec;
  ASSERT_TRUE(parse_slo("p99<=10ms", spec));
  SearchOptions options;
  options.min_rate = 100;
  options.max_rate = 3200;
  const SearchResult search = max_sustainable_rate(run_at, spec, options);
  // Ramp: 100 200 400 800 1600(fail); bisect: 1200(fail) 1000(pass)
  // 1100(fail) -> bracket (1000, 1100) is inside the 15% tolerance.
  EXPECT_DOUBLE_EQ(search.sustainable_rate, 1000.0);
  EXPECT_FALSE(search.ceiling_held);
  EXPECT_LE(search.steps.size(), options.max_steps);
  EXPECT_FALSE(search.steps.empty());
  for (const StepOutcome& step : search.steps) {
    EXPECT_EQ(step.pass, step.rate <= 1000.0);
  }
}

TEST(SloSearch, CeilingThatHoldsIsReportedAsALowerBound) {
  // A fabric that never misses the SLO: the search stops at its own
  // ceiling, and must say that the limit lies at or above it.
  const auto run_at = [](double) {
    RunResult result;
    result.submitted = 100;
    result.answered = 100;
    result.latencies.assign(100, 0.001);
    return result;
  };
  SloSpec spec;
  ASSERT_TRUE(parse_slo("p99<=10ms", spec));
  SearchOptions options;
  options.min_rate = 100;
  options.max_rate = 1600;
  const SearchResult search = max_sustainable_rate(run_at, spec, options);
  EXPECT_TRUE(search.ceiling_held);
  EXPECT_DOUBLE_EQ(search.sustainable_rate, 1600.0);
  ASSERT_EQ(search.steps.size(), 5u);  // 100 200 400 800 1600
  for (const StepOutcome& step : search.steps) EXPECT_TRUE(step.pass);
}

TEST(SloSearch, ZeroWhenEvenMinRateFails) {
  const auto run_at = [](double) {
    RunResult result;
    result.submitted = 10;
    result.answered = 10;
    result.latencies.assign(10, 1.0);
    return result;
  };
  SloSpec spec;
  ASSERT_TRUE(parse_slo("p99<=10ms", spec));
  const SearchResult search = max_sustainable_rate(run_at, spec, {});
  EXPECT_DOUBLE_EQ(search.sustainable_rate, 0.0);
  EXPECT_FALSE(search.ceiling_held);
  EXPECT_EQ(search.steps.size(), 1u);
}

}  // namespace
}  // namespace prts::load
