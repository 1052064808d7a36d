// prts_cli — command-line front end over the library.
//
//   prts_cli generate [--seed S] [--het] [--tasks N] [--procs P]
//       emit a random instance (paper distributions) on stdout
//   prts_cli solve --algo dp|dp-period|exact|ilp|heur-l|heur-p
//       [--period P] [--latency L] < instance.txt
//       solve and print the mapping + objectives
//   prts_cli evaluate --mapping "2:0,1;8:2;14:3,4,5" < instance.txt
//       evaluate a given mapping (boundaries: last task of each interval,
//       then the processor ids of its replicas)
//   prts_cli simulate [--datasets N] [--period P] [--latency L]
//       [--seed S] [--no-routing] [--no-failures] < instance.txt
//       run the discrete-event simulator
//   prts_cli dot --what mapping|rbd|rbd-noroute --algo ... < instance.txt
//       emit a Graphviz drawing of the solved mapping or its RBD
//   prts_cli trace [--datasets N] [--period P] [--seed S] [--no-routing]
//       [--no-failures] --algo ... < instance.txt
//       emit the discrete-event trace as TSV, sorted by time
//   prts_cli solvers
//       list every registered solver with a one-line description
//   prts_cli campaign <spec.txt|-> [--threads T] [--seed S]
//       [--format table|tsv|json] [--via-service] [--cache-mb M]
//       run a whole scenario campaign (see src/scenario/spec.hpp for the
//       spec format) and emit the aggregated series; --threads/--seed
//       override the spec without editing it; --via-service routes every
//       job through the solve service so repeats hit the cross-run cache
//       (with --near-miss on|off gating bounds-monotone near-miss reuse)
//   prts_cli serve [requests.txt|-] [--threads N] [--cache-mb M]
//       [--shards S] [--no-cache] [--queue-limit Q] [--deadline D]
//       [--policy reject|downgrade] [--fallback SOLVER]
//       [--near-miss on|off] [--warm-start cache.bin] [--stats]
//       [--listen PORT] [--world N] [--rank R] [--peers h:p,h:p,...]
//       [--replica-mb M] [--gossip-interval S]
//       [--advertise HOST:PORT] [--join HOST:PORT]
//       [--heartbeat-interval S] [--suspect-after S] [--dead-after S]
//       [--vnodes N] [--checkpoint cache.bin] [--checkpoint-interval S]
//       [--auth-token TOKEN]
//       [--no-input] [--slow-ms MS] [--alert RULE]...
//       run the batched solve service over a line-protocol request
//       stream (see src/service/protocol.hpp for the format); with
//       --listen the process is a member of the distributed solve
//       fabric (keys owned by a consistent-hash ring over the members),
//       forwarding remote-shard misses to their owner and answering
//       peers' frames — --world N --rank R --peers h:p,... names the N
//       founding members, and without them the rank founds a fleet of
//       one that others may --join;
//       --replica-mb sizes the hot-entry replica tier absorbing repeat
//       remote-shard hits (an LRU like the cache; 0 MB disables it),
//       and --gossip-interval S pushes each rank's hot entries into its
//       peers' replica tiers every S seconds (0 disables gossip);
//       --near-miss off disables bounds-monotone near-miss reuse
//       (dominating hits + warm starts; on by default, answer bytes
//       are identical either way); --no-input serves network traffic
//       only until SIGINT/SIGTERM; every serve carries telemetry (a
//       metrics registry + request tracer, see src/obs/) reachable via
//       the protocol's `stats --json` / `metrics` / `trace <id>` /
//       `traces` / `slowlog` commands and the fabric's kMetricsRequest
//       frame; --slow-ms logs traces slower than MS ms to stderr;
//       --flight-interval S sets the flight-recorder tick period
//       (default 1s, 0 disables; window via the `timeseries` command)
//       and --stall-ms MS the watchdog stall threshold (default 2000,
//       0 disables; verdict in `stats --json` under "watchdog");
//       an in-process profiler attributes cpu/wall/blocked time,
//       allocations and lock contention per component (`profile
//       [filter]` and `alerts` protocol commands, profile_*/mutex_*
//       scrape families); --alert RULE (repeatable, load::slo grammar
//       plus ;for=N;hold=N debounce, e.g.
//       "engine_queue_depth>100;for=3") adds health-alert rules
//       evaluated every flight-recorder tick, on top of the always-on
//       default rule "watchdog_stalls_total_delta>0;hold=5";
//       membership is dynamic: a rank dials --join HOST:PORT (any
//       live member) to enter a running fleet, announces itself as
//       --advertise HOST:PORT (default its --peers entry, else
//       127.0.0.1:listen-port), exchanges heartbeat views every
//       --heartbeat-interval seconds, suspects a silent peer after
//       --suspect-after and removes it after --dead-after; the ring
//       has --vnodes virtual nodes per member and join/leave streams
//       only the affected key slices between owners; --warm-start
//       loads a PRTS1 snapshot, on a founding member only the keys the
//       founding ring assigns this rank; --checkpoint
//       snapshots the cache to a PRTS1 file (atomic rename) every
//       --checkpoint-interval seconds (0 = only the `checkpoint`
//       command and the shutdown snapshot, whose failure makes serve
//       exit 1), so a SIGKILLed rank restarts warm via --warm-start;
//       --auth-token TOKEN (or env
//       PRTS_AUTH) requires every inbound connection to authenticate
//       before its first real frame and is used for outbound fabric
//       connections alike
//   prts_cli scrape HOST:PORT [--watch S] [--count N] [--alerts]
//       [--auth-token TOKEN]
//       fetch prometheus text expositions from a running serve rank
//       (its --listen port). One shot by default; --watch S re-scrapes
//       every S seconds (N times with --count, forever without) and
//       prints counter deltas between scrapes; a target restart
//       (counters reset + fresh process_start_time_seconds) resets the
//       baseline instead of failing. --alerts prints only the
//       alerts_firing / alert_* families and exits 3 while any rule is
//       firing. Exits nonzero on a malformed exposition line or a
//       counter that went backwards without a restart.
//   prts_cli loadgen --targets h:p[,h:p...] [--rate R] [--duration S]
//       [--process poisson|bursty|uniform] [--seed S] [--keys K]
//       [--zipf Z] [--mix name:w,name:w] [--tasks N] [--procs P]
//       [--connections C] [--record PATH] [--replay PATH] [--slo SPEC]
//       [--out PATH] [--search] [--min-rate R] [--max-rate R]
//       [--step-duration S] [--auth-token TOKEN]
//       open-loop load against running serve ranks: arrivals fire at
//       their scheduled instants regardless of completions, latency is
//       measured from the scheduled arrival (queueing honesty under
//       overload). --record/--replay round-trip the deterministic
//       arrival trace; --slo (e.g. "p99<=50ms;error_rate<=0.01") turns
//       the run into a pass/fail check; --search steps the rate to find
//       the max sustainable throughput at the SLO ("ceiling_held":true
//       when no step failed: the limit is at or above --max-rate, not
//       at it). Emits a JSON report (stdout or --out); exit 0 iff the
//       SLO held and nothing was left unresolved.
//
// Every numeric flag must be a finite number within its range (whole
// where the value is a count); anything else exits 2 naming the flag.
// Each command names the flags it reads: any other flag exits 2 naming
// it, so a misspelt or retired flag never runs with a default instead.
// Commands that read an instance check every flag before reading it.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/ilp.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"
#include "eval/energy.hpp"
#include "eval/evaluation.hpp"
#include "exp/report.hpp"
#include "model/dot.hpp"
#include "model/generator.hpp"
#include "model/serialize.hpp"
#include "rbd/builder.hpp"
#include "rbd/dot.hpp"
#include "scenario/campaign.hpp"
#include "scenario/emit.hpp"
#include "scenario/spec.hpp"
#include "load/arrivals.hpp"
#include "load/generator.hpp"
#include "load/slo.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/checkpoint.hpp"
#include "service/engine.hpp"
#include "service/fusion.hpp"
#include "service/protocol.hpp"
#include "service/ring.hpp"
#include "service/router.hpp"
#include "sim/pipeline_sim.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace {

using namespace prts;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `text` as a finite double, when the whole of it parses as one.
std::optional<double> parse_finite(const std::string& text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Minimal flag parser: --name value or boolean --name.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << arg << "\n";
        std::exit(2);
      }
      arg = arg.substr(2);
      std::string value;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      values_[arg] = value;
      ordered_.emplace_back(std::move(arg), std::move(value));
    }
  }

  /// Exits 2 naming the first given flag that is not in `known` (the
  /// flags the command reads).
  void only(std::initializer_list<std::string_view> known) const {
    for (const auto& [flag, value] : ordered_) {
      if (std::find(known.begin(), known.end(), flag) == known.end()) {
        std::cerr << "unknown flag --" << flag << "\n";
        std::exit(2);
      }
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// --name's value as a T, or `fallback` when the flag is absent. The
  /// whole text must parse to a finite number in [min, max]; an
  /// integral T also takes no fraction and nothing outside its range,
  /// so the cast is always defined. Anything else exits 2 naming the
  /// flag and its text. Every number this tool takes is a count, size,
  /// duration, rate or bound, so `min` defaults to 0.
  template <typename T>
  T number(const std::string& name, T fallback, double min = 0.0,
           double max = std::numeric_limits<double>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    const std::optional<double> parsed = parse_finite(text);
    const double value = parsed.value_or(0.0);
    bool ok = parsed && value >= min && value <= max;
    if constexpr (std::is_integral_v<T>) {
      // T's largest value + 1 is a power of two, exact as a double.
      ok = ok && value == std::trunc(value) &&
           value >= static_cast<double>(std::numeric_limits<T>::lowest()) &&
           value < std::ldexp(1.0, std::numeric_limits<T>::digits);
    }
    if (!ok) {
      std::cerr << "--" << name << " wants a "
                << (std::is_integral_v<T> ? "whole" : "finite")
                << " number >= " << min;
      if constexpr (std::is_integral_v<T>) {
        std::cerr << " and <= " << +std::numeric_limits<T>::max();
      } else if (max < std::numeric_limits<double>::max()) {
        std::cerr << " and <= " << max;
      }
      std::cerr << ", got '" << text << "'\n";
      std::exit(2);
    }
    return static_cast<T>(value);
  }

  /// Every value given for a repeatable flag, in command-line order
  /// (get/number see only the last occurrence).
  std::vector<std::string> all(const std::string& name) const {
    std::vector<std::string> values;
    for (const auto& [flag, value] : ordered_) {
      if (flag == name) values.push_back(value);
    }
    return values;
  }

 private:
  std::map<std::string, std::string> values_;  ///< last occurrence wins
  std::vector<std::pair<std::string, std::string>> ordered_;
};

/// A size flag given in megabytes, as bytes (bounded so the byte count
/// fits a size_t).
std::size_t megabytes(const Flags& flags, const std::string& name,
                      double fallback) {
  constexpr double kMaxMegabytes =
      static_cast<double>(std::numeric_limits<std::size_t>::max() >> 21);
  return static_cast<std::size_t>(
      flags.number(name, fallback, 0.0, kMaxMegabytes) * 1024 * 1024);
}

Instance read_instance_or_die() {
  ParseResult parsed = read_instance(std::cin);
  if (!parsed) {
    std::cerr << "failed to parse instance: " << parsed.error << "\n";
    std::exit(1);
  }
  return std::move(*parsed.instance);
}

void print_mapping(const TaskChain& chain, const Platform& platform,
                   const Mapping& mapping) {
  const MappingMetrics metrics = evaluate(chain, platform, mapping);
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    const Interval& ival = mapping.partition().interval(j);
    std::cout << "interval " << j << ": tasks " << ival.first << ".."
              << ival.last << " on";
    for (std::size_t u : mapping.processors(j)) std::cout << " P" << u;
    std::cout << "\n";
  }
  const EnergyMetrics energy = mapping_energy(chain, platform, mapping);
  std::cout << "failure            " << metrics.failure << "\n";
  std::cout << "expected latency   " << metrics.expected_latency << "\n";
  std::cout << "worst latency      " << metrics.worst_latency << "\n";
  std::cout << "expected period    " << metrics.expected_period << "\n";
  std::cout << "worst period       " << metrics.worst_period << "\n";
  std::cout << "replication level  " << metrics.replication_level << "\n";
  std::cout << "energy per dataset " << energy.total() << "\n";
}

/// --algo and the bounds, checked before any instance is read.
struct SolveFlags {
  std::shared_ptr<const solver::Solver> engine;
  solver::Bounds bounds;
};

/// Every --algo value is a solver-registry name: the hand-rolled
/// per-engine dispatch this tool used to carry now lives behind the
/// uniform Solver interface.
SolveFlags solve_flags(const Flags& flags) {
  const std::string algo = flags.get("algo", "exact");
  const auto& registry = solver::SolverRegistry::builtin();
  SolveFlags parsed;
  parsed.engine = registry.find(algo);
  if (!parsed.engine) {
    std::cerr << "unknown --algo " << algo << " (one of:";
    for (const std::string& name : registry.names()) {
      std::cerr << " " << name;
    }
    std::cerr << ")\n";
    std::exit(2);
  }
  parsed.bounds.period_bound = flags.number("period", kInf);
  parsed.bounds.latency_bound = flags.number("latency", kInf);
  return parsed;
}

std::optional<Mapping> solve(const Instance& instance, const SolveFlags& how) {
  auto solution = how.engine->solve(instance, how.bounds);
  if (!solution) return std::nullopt;
  return std::move(solution->mapping);
}

/// A --mapping value: per interval, the last task index and the replica
/// processor ids.
struct MappingText {
  std::vector<std::size_t> lasts;
  std::vector<std::vector<std::size_t>> procs;
};

/// Parses "2:0,1;8:2" (the syntax alone; nullopt on any malformed
/// part), so a bad flag is refused before the instance is read.
std::optional<MappingText> parse_mapping_text(const std::string& text) {
  const auto index = [](const std::string& digits, std::size_t& value) {
    const auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), value);
    return ec == std::errc{} && end == digits.data() + digits.size();
  };
  MappingText parsed;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, ';')) {
    const std::size_t colon = part.find(':');
    std::size_t last = 0;
    if (colon == std::string::npos || !index(part.substr(0, colon), last)) {
      return std::nullopt;
    }
    parsed.lasts.push_back(last);
    std::vector<std::size_t> replicas;
    std::istringstream proc_in(part.substr(colon + 1));
    std::string id;
    while (std::getline(proc_in, id, ',')) {
      std::size_t proc = 0;
      if (!index(id, proc)) return std::nullopt;
      replicas.push_back(proc);
    }
    if (replicas.empty()) return std::nullopt;
    parsed.procs.push_back(std::move(replicas));
  }
  if (parsed.lasts.empty()) return std::nullopt;
  return parsed;
}

/// The mapping `text` describes for a chain of `task_count` tasks;
/// nullopt unless it ends at the last task and its intervals and
/// processors do not overlap.
std::optional<Mapping> build_mapping(MappingText text,
                                     std::size_t task_count) {
  if (text.lasts.back() != task_count - 1) return std::nullopt;
  try {
    return Mapping(IntervalPartition::from_boundaries(text.lasts, task_count),
                   std::move(text.procs));
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // overlapping intervals, repeated processors
  }
}

int cmd_generate(const Flags& flags) {
  flags.only({"seed", "tasks", "procs", "het"});
  Rng rng(flags.number<std::uint64_t>("seed", 1));
  ChainConfig chain_config;
  chain_config.task_count = flags.number<std::size_t>("tasks", 15);
  const TaskChain chain = random_chain(rng, chain_config);
  Instance instance{chain, flags.has("het")
                               ? [&] {
                                   HetPlatformConfig config;
                                   config.processor_count =
                                       flags.number<std::size_t>("procs", 10);
                                   return random_het_platform(rng, config);
                                 }()
                               : Platform::homogeneous(
                                     flags.number<std::size_t>("procs", 10),
                                     1.0, paper::kProcessorFailureRate, 1.0,
                                     paper::kLinkFailureRate,
                                     paper::kMaxReplication)};
  write_instance(std::cout, instance);
  return 0;
}

int cmd_solve(const Flags& flags) {
  flags.only({"algo", "period", "latency"});
  const SolveFlags how = solve_flags(flags);
  const Instance instance = read_instance_or_die();
  const auto mapping = solve(instance, how);
  if (!mapping) {
    std::cout << "no feasible mapping under the given bounds\n";
    return 1;
  }
  print_mapping(instance.chain, instance.platform, *mapping);
  return 0;
}

int cmd_evaluate(const Flags& flags) {
  flags.only({"mapping"});
  const auto refuse = [&flags] {
    std::cerr << "bad --mapping '" << flags.get("mapping")
              << "' (want 'last:proc,proc;...' ending at n-1)\n";
    return 2;
  };
  auto text = parse_mapping_text(flags.get("mapping"));
  if (!text) return refuse();
  const Instance instance = read_instance_or_die();
  const auto mapping = build_mapping(std::move(*text), instance.chain.size());
  if (!mapping) return refuse();
  if (const auto why = mapping->validate(instance.platform)) {
    std::cerr << "invalid mapping: " << *why << "\n";
    return 1;
  }
  print_mapping(instance.chain, instance.platform, *mapping);
  return 0;
}

int cmd_simulate(const Flags& flags) {
  flags.only({"algo", "period", "latency", "datasets", "seed", "no-routing",
              "no-failures"});
  const SolveFlags how = solve_flags(flags);
  sim::SimulationConfig config;
  config.dataset_count = flags.number<std::size_t>("datasets", 1000);
  config.latency_deadline = how.bounds.latency_bound;
  config.seed = flags.number<std::uint64_t>("seed", 1);
  config.use_routing = !flags.has("no-routing");
  config.inject_failures = !flags.has("no-failures");
  const Instance instance = read_instance_or_die();
  const auto mapping = solve(instance, how);
  if (!mapping) {
    std::cout << "no feasible mapping under the given bounds\n";
    return 1;
  }
  // Without --period, datasets arrive at the mapping's worst period.
  config.input_period =
      flags.has("period")
          ? how.bounds.period_bound
          : evaluate(instance.chain, instance.platform, *mapping).worst_period;
  const auto result = sim::simulate_pipeline(
      instance.chain, instance.platform, *mapping, config);
  std::cout << "datasets          " << result.datasets << "\n";
  std::cout << "delivered         " << result.successes << "\n";
  std::cout << "deadline misses   " << result.deadline_misses << "\n";
  std::cout << "mean latency      " << result.latency.mean() << "\n";
  std::cout << "max latency       " << result.latency.max() << "\n";
  std::cout << "mean output gap   " << result.inter_completion.mean()
            << "\n";
  std::cout << "makespan          " << result.makespan << "\n";
  return 0;
}

int cmd_dot(const Flags& flags) {
  flags.only({"algo", "period", "latency", "what"});
  const SolveFlags how = solve_flags(flags);
  const std::string what = flags.get("what", "mapping");
  if (what != "mapping" && what != "rbd" && what != "rbd-noroute") {
    std::cerr << "unknown --what " << what << "\n";
    return 2;
  }
  const Instance instance = read_instance_or_die();
  const auto mapping = solve(instance, how);
  if (!mapping) {
    std::cout << "no feasible mapping under the given bounds\n";
    return 1;
  }
  if (what == "mapping") {
    std::cout << mapping_to_dot(instance.chain, instance.platform, *mapping);
  } else if (what == "rbd") {
    std::cout << rbd::to_dot(rbd::build_routing_graph(
        instance.chain, instance.platform, *mapping));
  } else {
    std::cout << rbd::to_dot(rbd::build_no_routing_graph(
        instance.chain, instance.platform, *mapping));
  }
  return 0;
}

int cmd_trace(const Flags& flags) {
  flags.only({"algo", "period", "latency", "datasets", "seed", "no-routing",
              "no-failures"});
  const SolveFlags how = solve_flags(flags);
  std::vector<sim::TraceEvent> events;
  const sim::TraceObserver observer = [&](const sim::TraceEvent& event) {
    events.push_back(event);
  };
  sim::SimulationConfig config;
  config.dataset_count = flags.number<std::size_t>("datasets", 5);
  config.seed = flags.number<std::uint64_t>("seed", 1);
  config.use_routing = !flags.has("no-routing");
  config.inject_failures = !flags.has("no-failures");
  config.observer = &observer;
  const Instance instance = read_instance_or_die();
  const auto mapping = solve(instance, how);
  if (!mapping) {
    std::cout << "no feasible mapping under the given bounds\n";
    return 1;
  }
  // Without --period, datasets arrive at the mapping's worst period.
  config.input_period =
      flags.has("period")
          ? how.bounds.period_bound
          : evaluate(instance.chain, instance.platform, *mapping).worst_period;
  sim::simulate_pipeline(instance.chain, instance.platform, *mapping,
                         config);
  std::stable_sort(events.begin(), events.end(),
                   [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
                     return a.time < b.time;
                   });
  static const char* kKindNames[] = {"release",        "compute-start",
                                     "compute-end",    "transfer-start",
                                     "transfer-end",   "complete"};
  std::cout << "time\tkind\tdataset\tstage\tprocessor\tsuccess\n";
  for (const sim::TraceEvent& event : events) {
    std::cout << event.time << "\t"
              << kKindNames[static_cast<int>(event.kind)] << "\t"
              << event.dataset << "\t";
    if (event.stage == sim::TraceEvent::kNone) {
      std::cout << "-";
    } else {
      std::cout << event.stage;
    }
    std::cout << "\t";
    if (event.processor == sim::TraceEvent::kNone) {
      std::cout << "-";
    } else {
      std::cout << "P" << event.processor;
    }
    std::cout << "\t" << (event.success ? 1 : 0) << "\n";
  }
  return 0;
}

int cmd_solvers() {
  const auto& registry = solver::SolverRegistry::builtin();
  for (const std::string& name : registry.names()) {
    const auto engine = registry.find(name);
    std::cout << name;
    const std::string description = engine->description();
    if (!description.empty()) {
      for (std::size_t pad = name.size(); pad < 12; ++pad) std::cout << ' ';
      std::cout << " " << description;
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_campaign(const std::string& spec_path, const Flags& flags) {
  flags.only({"format", "seed", "threads", "via-service", "cache-mb",
              "near-miss", "stats"});
  scenario::CampaignParseResult parsed = [&] {
    if (spec_path == "-") return scenario::read_campaign(std::cin);
    std::ifstream file(spec_path);
    if (!file) {
      scenario::CampaignParseResult result;
      result.error = "cannot open '" + spec_path + "'";
      return result;
    }
    return scenario::read_campaign(file);
  }();
  if (!parsed) {
    std::cerr << "failed to parse campaign spec: " << parsed.error << "\n";
    return 1;
  }

  const std::string format = flags.get("format", "table");
  if (format != "table" && format != "tsv" && format != "json") {
    std::cerr << "unknown --format " << format << " (table|tsv|json)\n";
    return 2;
  }

  // Execution overrides: rerun a spec with another seed or thread count
  // without editing the file.
  if (flags.has("seed")) {
    parsed.spec->seed = flags.number<std::uint64_t>("seed", 0);
  }
  scenario::CampaignConfig config;
  config.threads = flags.number<std::size_t>("threads", 0);
  scenario::CampaignResult result;
  try {
    if (flags.has("via-service")) {
      // Fusion path: every job goes through SolveService::submit, so
      // repeated sweeps share the cross-run cache and in-flight dedup.
      service::ServiceConfig service_config;
      service_config.threads = config.threads;
      service_config.cache.capacity_bytes = megabytes(flags, "cache-mb", 64);
      service_config.near_miss = flags.get("near-miss", "on") != "off";
      service::SolveService service(service_config);
      result = service::run_campaign_via_service(*parsed.spec, service);
      if (flags.has("stats")) {
        std::cerr << "# hits ";
        service::write_hit_tiers_json(std::cerr, service.stats());
        std::cerr << "\n";
        std::cerr << "# cache ";
        service::ShardedSolutionCache::write_stats_json(
            std::cerr, service.cache_stats());
        std::cerr << "\n";
      }
    } else {
      result = scenario::run_campaign(*parsed.spec, config);
    }
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  if (format == "json") {
    scenario::write_json(std::cout, *parsed.spec, result);
  } else if (format == "tsv") {
    scenario::write_tsv(std::cout, result.figure);
  } else {
    exp::print_table(std::cout, result.figure, exp::Metric::kSolutions);
    std::cout << "\n";
    exp::print_table(std::cout, result.figure, exp::Metric::kAvgFailure);
  }
  return 0;
}

/// Shared-secret frame auth, used by serve and by the tools that dial
/// a fleet (scrape, loadgen): --auth-token wins, env var PRTS_AUTH is
/// the no-secrets-on-the-command-line alternative.
std::string resolve_auth_token(const Flags& flags) {
  std::string token = flags.get("auth-token");
  if (token.empty()) {
    if (const char* env = std::getenv("PRTS_AUTH")) token = env;
  }
  return token;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void serve_stop_handler(int) { g_serve_stop = 1; }

int cmd_serve(const std::string& request_path, const Flags& flags) {
  flags.only({"threads", "no-cache", "shards", "cache-mb", "fallback",
              "near-miss", "queue-limit", "deadline", "policy", "listen",
              "world", "rank", "join", "advertise", "peers", "replica-mb",
              "gossip-interval", "heartbeat-interval", "suspect-after",
              "dead-after", "vnodes", "checkpoint", "checkpoint-interval",
              "warm-start", "auth-token", "no-input", "slow-ms",
              "flight-interval", "stall-ms", "alert", "stats"});
  service::ServiceConfig config;
  config.threads = flags.number<std::size_t>("threads", 0);
  config.cache_enabled = !flags.has("no-cache");
  config.cache.shards = flags.number<std::size_t>("shards", 16);
  config.cache.capacity_bytes = megabytes(flags, "cache-mb", 64);
  config.max_queue_depth = flags.number<std::size_t>("queue-limit", 4096);
  config.fallback_solver = flags.get("fallback", "heur-p");
  const std::string near_miss = flags.get("near-miss", "on");
  if (near_miss == "off") {
    config.near_miss = false;
  } else if (near_miss != "on") {
    std::cerr << "unknown --near-miss " << near_miss << " (on|off)\n";
    return 2;
  }

  service::ServeOptions options;
  options.default_deadline_seconds = flags.number("deadline", kInf);
  const std::string policy = flags.get("policy", "downgrade");
  if (policy == "reject") {
    options.default_policy = service::DeadlinePolicy::kReject;
  } else if (policy == "downgrade") {
    options.default_policy = service::DeadlinePolicy::kDowngrade;
  } else {
    std::cerr << "unknown --policy " << policy << " (reject|downgrade)\n";
    return 2;
  }

  // Fabric topology: every flag validated before any thread starts. A
  // listening rank is a fabric member; --world/--peers name the
  // founding members, --join a live member of a running fleet.
  const bool listening = flags.has("listen");
  const auto port = flags.number<std::uint16_t>("listen", 0, 1);
  const auto world = flags.number<std::size_t>("world", 1, 1);
  const auto rank = flags.number<std::size_t>("rank", 0);
  if (world > 1 && rank >= world) {
    std::cerr << "--rank must be < --world (got rank " << rank << ", world "
              << world << ")\n";
    return 2;
  }
  if ((world > 1 || flags.has("join")) && !listening) {
    // A member that cannot be reached silently breaks the one-logical-
    // cache property (peers' forwards to it all time out).
    std::cerr << "--world > 1 and --join require --listen (members must "
                 "be able to reach this rank)\n";
    return 2;
  }
  const std::size_t replica_bytes = megabytes(flags, "replica-mb", 16);
  const double gossip_interval = flags.number("gossip-interval", 0.0);

  // Membership knobs; the failure-detection delays are at least 1 ms.
  const double heartbeat_interval = flags.number("heartbeat-interval", 0.5);
  const double suspect_after = flags.number("suspect-after", 2.0, 1e-3);
  const double dead_after = flags.number("dead-after", 5.0, 1e-3);
  const auto vnodes = flags.number<std::size_t>("vnodes", 64, 1);
  std::optional<service::PeerAddress> join_seed;
  if (flags.has("join")) {
    const auto parsed = service::parse_peer_list(flags.get("join"));
    if (!parsed || parsed->size() != 1) {
      std::cerr << "--join needs one HOST:PORT\n";
      return 2;
    }
    join_seed = parsed->front();
  }
  service::PeerAddress advertise;
  if (flags.has("advertise")) {
    const auto parsed = service::parse_peer_list(flags.get("advertise"));
    if (!parsed || parsed->size() != 1) {
      std::cerr << "--advertise needs one HOST:PORT\n";
      return 2;
    }
    advertise = parsed->front();
  }

  const std::string auth_token = resolve_auth_token(flags);

  const std::string checkpoint_path = flags.get("checkpoint");
  const double checkpoint_interval = flags.number("checkpoint-interval", 0.0);
  if (checkpoint_interval > 0 && checkpoint_path.empty()) {
    std::cerr << "--checkpoint-interval requires --checkpoint PATH\n";
    return 2;
  }

  std::vector<service::PeerAddress> peers;
  if (world > 1) {
    const auto parsed = service::parse_peer_list(flags.get("peers"));
    if (!parsed || parsed->size() != world) {
      std::cerr << "--world " << world
                << " needs --peers with one host:port per rank\n";
      return 2;
    }
    peers = *parsed;
  }

  const bool no_input = flags.has("no-input");

  // Telemetry is always on for serve (nanoseconds per request); it must
  // outlive the engine, router and server, so it is declared before all
  // of them. --slow-ms additionally logs slow traces to stderr the
  // moment they finish.
  const double slow_ms = flags.number("slow-ms", 0.0);
  const double flight_interval = flags.number("flight-interval", 1.0);
  const double stall_ms = flags.number("stall-ms", 2000.0);
  obs::TracerConfig tracer_config;
  if (slow_ms > 0) {
    tracer_config.slow_threshold_seconds = slow_ms / 1e3;
    tracer_config.slow_log = &std::cerr;
  }
  obs::Telemetry telemetry(tracer_config);
  telemetry.rank = static_cast<int>(rank);
  config.telemetry = &telemetry;

  // Flight recorder + stall watchdog ride the telemetry object, so
  // their threads stop in ~Telemetry after everything they observe has
  // been torn down.
  if (flight_interval > 0) {
    obs::FlightRecorderConfig recorder_config;
    recorder_config.interval_seconds = flight_interval;
    telemetry.recorder.configure(recorder_config);
    telemetry.recorder.start();
  }
  if (stall_ms > 0) {
    obs::WatchdogConfig watchdog_config;
    watchdog_config.stall_threshold_seconds = stall_ms / 1e3;
    telemetry.watchdog.start(watchdog_config);
  }

  // Health alerts: evaluated on every flight-recorder tick. Every serve
  // gets the stall rule by default (a watchdog episode should page even
  // if nobody passed --alert); --alert RULE adds more, repeatable.
  {
    std::vector<std::string> alert_rules = flags.all("alert");
    alert_rules.insert(alert_rules.begin(),
                       "watchdog_stalls_total_delta>0;hold=5");
    if (listening) {
      // A member going suspect is the membership layer's page-worthy
      // signal: either a peer is dying or this rank is partitioned.
      alert_rules.insert(alert_rules.begin(),
                         "membership_suspects_total_delta>0;hold=3");
    }
    for (const std::string& rule_text : alert_rules) {
      std::string error;
      if (!telemetry.alerts.add_rule(rule_text, &error)) {
        std::cerr << "--alert '" << rule_text << "': " << error << "\n";
        return 2;
      }
    }
  }

  // Open the request stream before constructing the service, so an
  // error exit never abandons live worker threads.
  std::ifstream request_file;
  if (!no_input && request_path != "-") {
    request_file.open(request_path);
    if (!request_file) {
      std::cerr << "cannot open request file '" << request_path << "'\n";
      return 1;
    }
  }
  std::istream& requests =
      request_path == "-" ? std::cin : request_file;

  service::SolveService engine(config);

  if (flags.has("warm-start")) {
    const std::string path = flags.get("warm-start");
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::cerr << "cannot open warm-start file '" << path << "'\n";
      return 1;
    }
    // Founding members selectively load just the keys the founding
    // ring assigns them — the PRTS1 index makes that O(1) per key. A
    // joiner loads everything: its slice is unknown until it joins.
    std::function<bool(const service::CanonicalHash&)> filter;
    if (world > 1) {
      service::HashRing ring(service::RingConfig{vnodes});
      std::vector<std::size_t> founders(world);
      for (std::size_t r = 0; r < world; ++r) founders[r] = r;
      ring.rebuild(founders);
      filter = [ring = std::move(ring),
                rank](const service::CanonicalHash& key) {
        return ring.owner_of(key) == rank;
      };
    }
    const auto loaded = engine.cache().load_binary(file, filter);
    if (!loaded.error.empty()) {
      std::cerr << "warm-start '" << path << "': " << loaded.error << "\n";
      return 1;
    }
    std::cerr << "# warm-start: " << loaded.loaded << " entries from "
              << path;
    if (loaded.skipped > 0) {
      std::cerr << " (" << loaded.skipped << " foreign-shard keys skipped)";
    }
    std::cerr << "\n";
  }

  // Fabric wiring: the FrameServer answers peers' frames on its own
  // small pool (connections are long-lived; sharing the solve pool
  // would starve it), the router forwards remote-shard misses. The
  // router is constructed after the server (peers need the bound port),
  // so the handler resolves it lazily.
  std::unique_ptr<ThreadPool> server_pool;
  // Written once the router exists, read by the server's reader and
  // pool threads — a peer's frame can arrive the instant the port is
  // bound, so the hand-off must be atomic.
  std::atomic<service::ShardRouter*> router_ptr{nullptr};
  std::unique_ptr<net::FrameServer> server;
  std::unique_ptr<service::ShardRouter> router;
  if (listening) {
    server_pool = std::make_unique<ThreadPool>(
        std::max<std::size_t>(2, 2 * world));
    server = net::FrameServer::start(
        port,
        service::make_fabric_handler(
            engine, [&router_ptr] { return router_ptr.load(); }),
        *server_pool, net::kDefaultMaxPayload, &telemetry.metrics,
        &telemetry.watchdog, &telemetry.profiler, auth_token);
    if (!server) {
      std::cerr << "cannot listen on port " << port << "\n";
      return 1;
    }
    std::cerr << "# listening on port " << server->port() << " (rank "
              << rank << ")\n";

    service::RouterConfig router_config;
    router_config.world_size = world;
    router_config.rank = rank;
    router_config.peers = std::move(peers);
    router_config.client.auth_token = auth_token;
    router_config.replica.capacity_bytes = replica_bytes;
    router_config.gossip_interval_seconds = gossip_interval;
    router_config.telemetry = &telemetry;
    router_config.membership.suspect_after_seconds = suspect_after;
    router_config.membership.dead_after_seconds = dead_after;
    router_config.membership.ring.virtual_nodes = vnodes;
    router_config.heartbeat_interval_seconds = heartbeat_interval;
    router_config.join_seed = join_seed;
    if (advertise.port == 0 && router_config.peers.empty()) {
      // The natural default for a rank outside the founding list: it is
      // reachable where it listens.
      advertise.host = "127.0.0.1";
      advertise.port = server->port();
    }
    router_config.advertise = advertise;
    router = std::make_unique<service::ShardRouter>(engine, router_config);
    // Published before the join: the seed streams this rank's ring
    // slice the moment it admits the join.
    router_ptr.store(router.get());
    router->join_now();
    options.router = router.get();
    std::cerr << "# membership: epoch " << router->epoch() << ", "
              << router->membership_view().members.size() << " member(s)\n";
  }

  // Live background checkpointing: snapshots keep flowing while the
  // rank serves; a SIGKILL loses at most one interval of inserts.
  std::unique_ptr<service::Checkpointer> checkpointer;
  if (!checkpoint_path.empty()) {
    service::Checkpointer::Config checkpoint_config;
    checkpoint_config.path = checkpoint_path;
    checkpoint_config.interval_seconds = checkpoint_interval;
    checkpoint_config.telemetry = &telemetry;
    checkpointer = std::make_unique<service::Checkpointer>(engine.cache(),
                                                           checkpoint_config);
    options.checkpointer = checkpointer.get();
  }

  service::ServeResult result;
  if (no_input) {
    // Pure fabric node: serve network traffic until SIGINT/SIGTERM.
    std::signal(SIGINT, serve_stop_handler);
    std::signal(SIGTERM, serve_stop_handler);
    while (!g_serve_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } else {
    result = service::run_serve(requests, std::cout, engine, options);
  }

  if (server) server->stop();
  // A peer's miss still solving answers through a completion that
  // reaches the router (its reply is dropped: the server has stopped).
  // Let those finish while the router and router_ptr are alive.
  engine.wait_idle();

  // The shutdown snapshot: whatever the interval timer missed since its
  // last tick is captured now, so a clean exit never loses entries, and
  // a snapshot that could not be written fails the run.
  bool checkpoint_failed = false;
  if (checkpointer) {
    std::string why;
    checkpoint_failed = !checkpointer->checkpoint_now(&why);
    if (checkpoint_failed) {
      std::cerr << "checkpoint '" << checkpointer->path() << "': " << why
                << "\n";
    }
  }
  if (flags.has("stats")) {
    std::cerr << "# cache ";
    service::ShardedSolutionCache::write_stats_json(std::cerr,
                                                    engine.cache_stats());
    std::cerr << "\n";
    if (router) {
      std::cerr << "# router ";
      service::ShardRouter::write_stats_json(std::cerr, router->stats());
      std::cerr << "\n";
      std::cerr << "# replica ";
      service::ShardedSolutionCache::write_stats_json(std::cerr,
                                                      router->replica_stats());
      std::cerr << "\n";
    }
  }
  return result.protocol_errors == 0 && !checkpoint_failed ? 0 : 1;
}

/// kMetricsRequest exchanges against a running serve rank; prometheus
/// text lands on stdout (monitoring's stream), diagnostics on stderr.
/// --watch S repeats every S seconds printing counter deltas (a target
/// restart — fresh process_start_time_seconds alongside reset counters
/// — restarts the baseline, it is not an error); --alerts prints only
/// the alert families and exits 3 while any rule is firing. Any
/// malformed sample line or a counter that went backwards without a
/// restart makes the exit nonzero.
int cmd_scrape(const std::string& target, const Flags& flags) {
  flags.only({"watch", "count", "alerts", "auth-token"});
  const auto parsed = service::parse_peer_list(target);
  if (!parsed || parsed->size() != 1) {
    std::cerr << "scrape needs one HOST:PORT target\n";
    return 2;
  }
  const double watch = flags.number("watch", 0.0);
  // Default: one scrape normally, forever under --watch.
  const auto count =
      flags.number<std::size_t>("count", watch > 0 ? 0 : 1);
  const bool alerts_only = flags.has("alerts");

  // Mux client: a scrape shares the rank's connection machinery with
  // in-flight solves without queueing behind them.
  net::FrameClientConfig client_config;
  client_config.auth_token = resolve_auth_token(flags);
  net::MuxFrameClient client((*parsed)[0].host, (*parsed)[0].port,
                             client_config);
  obs::ScrapeDeltaTracker tracker;
  bool backwards = false;
  bool alerts_firing = false;
  for (std::size_t iteration = 0; count == 0 || iteration < count;
       ++iteration) {
    if (iteration > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(watch));
    }
    net::Frame request;
    request.type = net::FrameType::kMetricsRequest;
    const auto reply = client.call(request);
    if (!reply || reply->type != net::FrameType::kMetricsReply) {
      std::cerr << "scrape: no metrics reply from " << target << "\n";
      return 1;
    }
    std::map<std::string, double> samples;
    std::istringstream lines(reply->payload);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      std::string name;
      double value = 0.0;
      if (!obs::parse_exposition_line(line, name, value)) {
        std::cerr << "scrape: malformed exposition line " << lineno << ": "
                  << line << "\n";
        return 1;
      }
      samples[name] = value;
    }
    if (alerts_only) {
      // Alert state only: the firing count plus every per-rule family.
      alerts_firing = false;
      const auto firing_it = samples.find("alerts_firing");
      if (firing_it != samples.end() && firing_it->second > 0) {
        alerts_firing = true;
      }
      for (const auto& [name, value] : samples) {
        if (name == "alerts_firing" || name.rfind("alert_", 0) == 0) {
          std::cout << name << " " << value << "\n";
        }
      }
      std::cout.flush();
      continue;
    }
    const obs::ScrapeDeltaTracker::Result verdict = tracker.feed(samples);
    if (verdict.first) {
      std::cout << reply->payload;
      std::cout.flush();
      continue;
    }
    if (verdict.restart) {
      // Counters reset with a fresh process start time: the target
      // restarted. New baseline, not a monotonicity violation.
      std::cout << "# scrape restart detected (new process baseline)\n";
    }
    std::cout << "# scrape delta " << iteration << "\n";
    for (const std::string& name : verdict.backwards) {
      std::cerr << "scrape: counter went backwards: " << name << "\n";
      backwards = true;
    }
    for (const obs::ScrapeDeltaTracker::Delta& delta : verdict.deltas) {
      std::cout << delta.name << " +" << delta.value << "\n";
    }
    std::cout.flush();
  }
  if (alerts_only && alerts_firing) return 3;
  return backwards ? 1 : 0;
}

/// Open-loop load against running serve ranks; see the usage block.
int cmd_loadgen(const Flags& flags) {
  flags.only({"targets", "rate", "duration", "process", "zipf", "keys",
              "tasks", "procs", "bounds-per-key", "seed", "mix", "slo",
              "connections", "workers", "out", "search", "min-rate",
              "max-rate", "step-duration", "replay", "record",
              "auth-token"});
  const auto targets_text = flags.get("targets");
  const auto parsed_targets = service::parse_peer_list(targets_text);
  if (!parsed_targets || parsed_targets->empty()) {
    std::cerr << "loadgen needs --targets HOST:PORT[,HOST:PORT...]\n";
    return 2;
  }

  load::ArrivalConfig arrivals;
  arrivals.rate = flags.number("rate", 50.0);
  arrivals.duration_seconds = flags.number("duration", 5.0);
  arrivals.seed = flags.number<std::uint64_t>("seed", 1);
  arrivals.key_count = flags.number<std::size_t>("keys", 16);
  arrivals.zipf_s = flags.number("zipf", 1.1);
  arrivals.bounds_per_key = flags.number<std::size_t>("bounds-per-key", 4);
  if (!parse_process(flags.get("process", "poisson"), arrivals.process)) {
    std::cerr << "loadgen: unknown --process (poisson|bursty|uniform)\n";
    return 2;
  }
  if (flags.has("mix")) {
    arrivals.solver_mix.clear();
    std::stringstream mix(flags.get("mix"));
    std::string entry;
    while (std::getline(mix, entry, ',')) {
      const std::size_t colon = entry.find(':');
      if (colon == std::string::npos) {
        std::cerr << "loadgen: --mix wants name:weight,name:weight\n";
        return 2;
      }
      const std::optional<double> weight =
          parse_finite(entry.substr(colon + 1));
      if (!weight || *weight < 0) {
        std::cerr << "loadgen: --mix weight '" << entry.substr(colon + 1)
                  << "' is not a finite number >= 0\n";
        return 2;
      }
      arrivals.solver_mix.emplace_back(entry.substr(0, colon), *weight);
    }
  }

  // Instance corpus: one deterministic random chain per key, sized by
  // --tasks/--procs. Small defaults keep individual solves cheap so the
  // interesting signal is queueing, not raw solver cost.
  const auto tasks = flags.number<std::size_t>("tasks", 10);
  const auto procs = flags.number<std::size_t>("procs", 4);
  std::vector<Instance> instances;
  for (std::size_t k = 0; k < arrivals.key_count; ++k) {
    Rng rng(9000 + k);
    ChainConfig chain_config;
    chain_config.task_count = tasks;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(procs, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  load::SloSpec slo;
  if (flags.has("slo")) {
    std::string error;
    if (!load::parse_slo(flags.get("slo"), slo, &error)) {
      std::cerr << "loadgen: " << error << "\n";
      return 2;
    }
  }

  std::vector<load::WirePool::Target> targets;
  for (const auto& peer : *parsed_targets) {
    targets.push_back(load::WirePool::Target{peer.host, peer.port});
  }
  // One mux connection per target pipelines many in-flight solves;
  // --workers caps total concurrent exchanges across the pool.
  load::WirePool pool(targets, flags.number<std::size_t>("connections", 1),
                      flags.number<std::size_t>("workers", 0),
                      resolve_auth_token(flags));

  std::ofstream out_file;
  if (flags.has("out")) {
    out_file.open(flags.get("out"));
    if (!out_file) {
      std::cerr << "loadgen: cannot write '" << flags.get("out") << "'\n";
      return 1;
    }
  }
  std::ostream& report = flags.has("out") ? out_file : std::cout;

  const auto print_latency = [&](std::ostream& out,
                                 const load::RunResult& result) {
    out << "{\"p50\":" << result.quantile(0.50)
        << ",\"p90\":" << result.quantile(0.90)
        << ",\"p99\":" << result.quantile(0.99)
        << ",\"p999\":" << result.quantile(0.999)
        << ",\"mean\":" << result.mean_latency() << "}";
  };
  const auto print_run = [&](std::ostream& out,
                             const load::RunResult& result) {
    out << "\"submitted\":" << result.submitted
        << ",\"answered\":" << result.answered
        << ",\"rejected\":" << result.rejected
        << ",\"errors\":" << result.errors
        << ",\"unresolved\":" << result.unresolved
        << ",\"offered_rate\":" << result.offered_rate
        << ",\"achieved_rate\":" << result.achieved_rate
        << ",\"wall_seconds\":" << result.wall_seconds << ",\"latency\":";
    print_latency(out, result);
  };

  if (flags.has("search")) {
    if (slo.empty()) {
      std::cerr << "loadgen: --search requires --slo\n";
      return 2;
    }
    load::SearchOptions search_options;
    search_options.min_rate = flags.number("min-rate", 25.0);
    search_options.max_rate = flags.number("max-rate", 1600.0);
    const double step_duration =
        flags.number("step-duration", arrivals.duration_seconds);
    const auto run_at = [&](double rate) {
      load::ArrivalConfig step = arrivals;
      step.rate = rate;
      step.duration_seconds = step_duration;
      std::cerr << "# loadgen step rate=" << rate << "\n";
      return load::run_open_loop(load::generate_arrivals(step), instances,
                                 pool.submit_fn());
    };
    const load::SearchResult search =
        load::max_sustainable_rate(run_at, slo, search_options);
    // A search in which no step failed found its own ceiling, not the
    // fabric's limit: the report flags it and stderr prints ">= rate".
    std::cerr << "# loadgen sustainable_rps_at_slo "
              << (search.ceiling_held ? ">= " : "") << search.sustainable_rate
              << "\n";
    report << "{\"mode\":\"search\",\"sustainable_rps_at_slo\":"
           << search.sustainable_rate << ",\"ceiling_held\":"
           << (search.ceiling_held ? "true" : "false") << ",\"steps\":[";
    bool first = true;
    for (const load::StepOutcome& step : search.steps) {
      if (!first) report << ",";
      first = false;
      report << "{\"rate\":" << step.rate
             << ",\"pass\":" << (step.pass ? "true" : "false")
             << ",\"submitted\":" << step.submitted
             << ",\"answered\":" << step.answered
             << ",\"rejected\":" << step.rejected
             << ",\"errors\":" << step.errors
             << ",\"unresolved\":" << step.unresolved
             << ",\"p50\":" << step.p50 << ",\"p99\":" << step.p99
             << ",\"slo\":";
      load::write_slo_json(report, step.report);
      report << "}";
    }
    report << "]}\n";
    return search.sustainable_rate > 0.0 ? 0 : 1;
  }

  // Single run: generate (or replay) one trace, optionally record it.
  load::LoadTrace trace;
  if (flags.has("replay")) {
    std::ifstream in(flags.get("replay"));
    std::string error;
    if (!in || !load::read_trace(in, trace, &error)) {
      std::cerr << "loadgen: cannot replay '" << flags.get("replay")
                << "': " << (error.empty() ? "cannot open" : error) << "\n";
      return 1;
    }
  } else {
    trace = load::generate_arrivals(arrivals);
  }
  if (flags.has("record")) {
    std::ofstream record(flags.get("record"));
    if (!record) {
      std::cerr << "loadgen: cannot write '" << flags.get("record") << "'\n";
      return 1;
    }
    load::write_trace(record, trace);
  }

  const load::RunResult result =
      load::run_open_loop(trace, instances, pool.submit_fn());
  const load::SloReport verdict = load::evaluate_slo(slo, result);
  report << "{\"mode\":\"single\",";
  print_run(report, result);
  // Pipelining watermark: >1 proves a single connection carried
  // concurrent in-flight solves (the ci.sh open-loop smoke asserts it).
  report << ",\"net_client_inflight_max\":"
         << pool.max_inflight_per_connection();
  if (!slo.empty()) {
    report << ",\"slo\":";
    load::write_slo_json(report, verdict);
  }
  report << "}\n";
  return verdict.pass && result.unresolved == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: prts_cli generate|solve|evaluate|simulate|dot|"
                 "trace|solvers|campaign|serve|scrape|loadgen ...\n";
    return 2;
  }
  const std::string command = argv[1];
  if (command == "solvers") {
    Flags(argc, argv, 2).only({});  // it reads none
    return cmd_solvers();
  }
  if (command == "campaign") {
    // The spec path is positional ('-' reads stdin); flags follow it.
    const bool has_path =
        argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
    const Flags flags(argc, argv, has_path ? 3 : 2);
    return cmd_campaign(has_path ? argv[2] : "-", flags);
  }
  if (command == "serve") {
    // The request path is positional ('-' reads stdin); flags follow it.
    const bool has_path =
        argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
    const Flags flags(argc, argv, has_path ? 3 : 2);
    return cmd_serve(has_path ? argv[2] : "-", flags);
  }
  if (command == "scrape") {
    const bool has_target = argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
    if (!has_target) {
      std::cerr << "usage: prts_cli scrape HOST:PORT [--watch S] "
                   "[--count N] [--alerts]\n";
      return 2;
    }
    const Flags flags(argc, argv, 3);
    return cmd_scrape(argv[2], flags);
  }
  if (command == "loadgen") {
    const Flags flags(argc, argv, 2);
    return cmd_loadgen(flags);
  }
  const Flags flags(argc, argv, 2);
  if (command == "generate") return cmd_generate(flags);
  if (command == "solve") return cmd_solve(flags);
  if (command == "evaluate") return cmd_evaluate(flags);
  if (command == "simulate") return cmd_simulate(flags);
  if (command == "dot") return cmd_dot(flags);
  if (command == "trace") return cmd_trace(flags);
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
