// What the always-on profiler costs a warm cache hit. Its only
// per-request clock reads are the 1-in-N dual-clock samples of the
// fast path (canonicalize, submit_path), so this program times those:
// one SolveService with full telemetry, three warm heur-p instances and
// one client thread, over interleaved rounds of
//   - kHitsPerArm warm hits at the default sample period, and
//   - kHitsPerArm warm hits at period 1 (every fast-path call sampled),
// alternating which arm goes first. With t the warm-hit time and s the
// fast-path samples per hit (the canonicalize + submit_path sample
// counters), each round prices one sample at
//   (t_every - t_default) / (s_every - s_default)
// — its two arms run back to back, so the pairing cancels the host's
// slow speed drift — and over the medians of the rounds
//   overhead_pct = sample_us * s_default / t_default * 100
// Timing whole hits charges every clock read a sampled hit pays — the
// submit sample is finished twice, once for its span and once at the
// end — which a bare ScopedSample loop would miss. The exact
// allocation tally runs on every hit in both arms and is not part of
// the figure; allocs_per_warm_hit reports it.
//
//   profile_overhead [--out PATH]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "model/generator.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"

namespace {

using namespace prts;

constexpr int kRounds = 20;
/// A multiple of the default period, so each default arm takes the same
/// number of samples whatever the thread's stride counter starts at.
constexpr std::size_t kHitsPerArm = obs::Profiler::kDefaultSamplePeriod * 55;

struct Arm {
  double hit_us = 0.0;
  double samples_per_hit = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_profile.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: profile_overhead [--out PATH]\n";
      return 2;
    }
  }

  const std::string solver = "heur-p";
  std::vector<Instance> instances;
  for (std::uint64_t u = 0; u < 3; ++u) {
    Rng rng(1000 + u);
    instances.push_back(Instance{
        paper::chain(rng),
        Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  obs::Telemetry telemetry;
  service::ServiceConfig config;
  config.telemetry = &telemetry;
  service::SolveService engine(config);
  for (const Instance& instance : instances) {
    engine.submit(service::SolveRequest{instance, solver, {}}).get();
  }

  obs::Profiler& profiler = telemetry.profiler;
  const std::uint32_t default_period = profiler.sample_period();
  obs::Counter& canonicalize_samples =
      telemetry.metrics.counter("profile_canonicalize_samples_total");
  obs::Counter& submit_samples =
      telemetry.metrics.counter("profile_submit_path_samples_total");
  obs::Counter& allocs = telemetry.metrics.counter("engine_request_allocs_total");
  obs::Counter& requests = telemetry.metrics.counter("engine_requests_total");
  std::uint64_t default_allocs = 0;
  std::uint64_t default_hits = 0;

  const auto run_arm = [&](std::uint32_t period) {
    profiler.set_sample_period(period);
    const std::uint64_t samples_before =
        canonicalize_samples.value() + submit_samples.value();
    const std::uint64_t allocs_before = allocs.value();
    const std::uint64_t requests_before = requests.value();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kHitsPerArm; ++r) {
      engine.submit(service::SolveRequest{instances[r % 3], solver, {}}).get();
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (period == default_period) {
      default_allocs += allocs.value() - allocs_before;
      default_hits += requests.value() - requests_before;
    }
    const double samples = static_cast<double>(
        canonicalize_samples.value() + submit_samples.value() -
        samples_before);
    return Arm{seconds * 1e6 / kHitsPerArm, samples / kHitsPerArm};
  };

  run_arm(default_period);  // warm-up lap
  run_arm(1);
  default_allocs = 0;
  default_hits = 0;
  std::vector<double> t_default, t_every, s_default, per_sample;
  for (int round = 0; round < kRounds; ++round) {
    const bool default_first = round % 2 == 0;
    const Arm first = run_arm(default_first ? default_period : 1);
    const Arm second = run_arm(default_first ? 1 : default_period);
    const Arm& by_default = default_first ? first : second;
    const Arm& every = default_first ? second : first;
    t_default.push_back(by_default.hit_us);
    t_every.push_back(every.hit_us);
    s_default.push_back(by_default.samples_per_hit);
    per_sample.push_back((every.hit_us - by_default.hit_us) /
                         (every.samples_per_hit - by_default.samples_per_hit));
  }
  profiler.set_sample_period(default_period);

  const double hit_us = median_of(t_default);
  const double samples_per_hit = median_of(s_default);
  const double sample_us = median_of(per_sample);
  const double overhead_pct = sample_us * samples_per_hit / hit_us * 100.0;
  const double allocs_per_warm_hit =
      default_hits > 0 ? static_cast<double>(default_allocs) /
                             static_cast<double>(default_hits)
                       : 0.0;

  std::cout << "profile overhead: " << kRounds << " rounds of "
            << kHitsPerArm << " warm " << solver << " hits per arm\n"
            << "  warm hit " << hit_us << " us at period " << default_period
            << ", " << median_of(t_every) << " us at period 1\n"
            << "  " << sample_us << " us per sample, " << samples_per_hit
            << " samples per hit: overhead " << overhead_pct << "%\n"
            << "  allocs/warm-hit " << allocs_per_warm_hit << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"profile_overhead\",\"solver\":\"" << solver
      << "\",\"rounds\":" << kRounds << ",\"hits_per_arm\":" << kHitsPerArm
      << ",\"sample_period\":" << default_period << ",\"hit_us\":" << hit_us
      << ",\"sample_us\":" << sample_us
      << ",\"samples_per_hit\":" << samples_per_hit
      << ",\"overhead_pct\":" << overhead_pct
      << ",\"allocs_per_warm_hit\":" << allocs_per_warm_hit << "}\n";
  return 0;
}
