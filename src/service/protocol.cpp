#include "service/protocol.hpp"

#include "service/checkpoint.hpp"
#include "service/router.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace prts::service {
namespace {

/// The whole of `text` as a number, "inf" included; NaN (which
/// from_chars accepts) is malformed.
bool parse_double(const std::string& text, double& value) {
  if (text == "inf") {
    value = std::numeric_limits<double>::infinity();
    return true;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         !std::isnan(value);
}

/// A list command's limit: a positive decimal integer, nothing else.
bool parse_limit(const std::string& text, std::size_t& limit) {
  std::size_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || ptr != text.data() + text.size() || parsed == 0) {
    return false;
  }
  limit = parsed;
  return true;
}

/// "last:proc,proc;..." — the same shape `prts_cli evaluate --mapping`
/// accepts, so replies can be piped back into the evaluator.
std::string mapping_to_string(const Mapping& mapping) {
  std::ostringstream out;
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    if (j) out << ";";
    out << mapping.partition().interval(j).last << ":";
    const auto procs = mapping.processors(j);
    for (std::size_t r = 0; r < procs.size(); ++r) {
      out << (r ? "," : "") << procs[r];
    }
  }
  return out.str();
}

void print_reply(std::ostream& out, std::size_t id, const SolveReply& reply) {
  out << id << "\t" << reply_status_name(reply.status) << "\t"
      << (reply.cache_hit ? 1 : 0) << "\t" << (reply.deduplicated ? 1 : 0)
      << "\t" << (reply.downgraded ? 1 : 0) << "\t"
      << (reply.solver_used.empty() ? "-" : reply.solver_used);
  if (reply.solution) {
    const MappingMetrics& metrics = reply.solution->metrics;
    out << "\t" << canonical_number(metrics.failure) << "\t"
        << canonical_number(metrics.worst_period) << "\t"
        << canonical_number(metrics.worst_latency) << "\t"
        << mapping_to_string(reply.solution->mapping);
  } else {
    out << "\t-\t-\t-\t-";
  }
  if (reply.status == ReplyStatus::kError) out << "\t# " << reply.error;
  out << "\n";
}

/// Sorted unique ranks that recorded a span — '0,1' here is the proof a
/// forwarded solve produced ONE trace spanning two ranks.
void print_span_ranks(std::ostream& out, const obs::Trace& trace) {
  std::set<int> ranks;
  for (const obs::Span& span : trace.spans) ranks.insert(span.rank);
  if (ranks.empty()) {
    out << "-";
    return;
  }
  bool first = true;
  for (const int rank : ranks) {
    if (!first) out << ",";
    first = false;
    out << rank;
  }
}

void print_trace_header(std::ostream& out, const char* tag,
                        const obs::Trace& trace) {
  out << "# " << tag << " id=" << obs::id_to_hex(trace.id)
      << " label=" << (trace.label.empty() ? "-" : trace.label)
      << " total_ms=" << trace.total_seconds * 1e3
      << " finished=" << (trace.finished ? 1 : 0)
      << " spans=" << trace.spans.size() << " ranks=";
  print_span_ranks(out, trace);
  out << "\n";
}

void print_trace(std::ostream& out, const obs::Trace& trace) {
  print_trace_header(out, "trace", trace);
  for (const obs::Span& span : trace.spans) {
    out << "# span rank=" << span.rank << " name=" << span.name
        << " start_ms=" << span.start_seconds * 1e3
        << " dur_ms=" << span.duration_seconds * 1e3 << "\n";
  }
}

/// One flight-recorder tick as a `# tick` line: fixed key=value prefix
/// for grep, JSON body for machine consumers.
void print_tick(std::ostream& out, const obs::FlightRecorder::Tick& tick) {
  out << "# tick seq=" << tick.seq << " t=" << tick.uptime_seconds
      << " dt=" << tick.interval_seconds << " {\"counters\":{";
  bool first = true;
  for (const auto& [name, delta] : tick.counter_deltas) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << delta;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : tick.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, window] : tick.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"count\":" << window.count
        << ",\"mean\":" << window.mean << ",\"p50\":" << window.p50
        << ",\"p90\":" << window.p90 << ",\"p99\":" << window.p99
        << ",\"p999\":" << window.p999 << "}";
  }
  out << "}}\n";
}

/// The service's registry with its cache_entries gauge refreshed: cache
/// occupancy is read off the cache, not counted, so it is sampled when
/// an exposition is written (a restarted rank that loaded its
/// checkpoint scrapes > 0 before the first request lands).
obs::Registry& fresh_metrics(SolveService& service) {
  obs::Registry& metrics = service.telemetry().metrics;
  metrics.gauge("cache_entries")
      .set(static_cast<double>(service.cache_stats().entries));
  return metrics;
}

}  // namespace

void write_merged_stats_json(std::ostream& out, SolveService& service,
                             ShardRouter* router) {
  const EngineStats engine_stats = service.stats();
  out << "{\"engine\":";
  write_engine_stats_json(out, engine_stats);
  out << ",\"hits\":";
  write_hit_tiers_json(out, engine_stats);
  out << ",\"cache\":";
  ShardedSolutionCache::write_stats_json(out, service.cache_stats());
  if (router != nullptr) {
    out << ",\"router\":";
    ShardRouter::write_stats_json(out, router->stats());
    out << ",\"replica\":";
    ShardedSolutionCache::write_stats_json(out, router->replica_stats());
    out << ",\"net_clients\":{";
    bool first = true;
    for (const auto& [rank, stats] : router->client_stats()) {
      if (!first) out << ",";
      first = false;
      out << "\"rank" << rank << "\":{\"calls\":" << stats.calls
          << ",\"failures\":" << stats.failures
          << ",\"connects\":" << stats.connects
          << ",\"fast_failures\":" << stats.fast_failures
          << ",\"suspects\":" << stats.suspects
          << ",\"timeouts\":" << stats.timeouts
          << ",\"max_inflight\":" << stats.max_inflight
          << ",\"completion_errors\":" << stats.completion_errors << "}";
    }
    out << "},\"membership\":";
    ShardRouter::write_membership_stats_json(out, router->membership_stats());
  }
  obs::Telemetry& telemetry = service.telemetry();
  out << ",\"telemetry\":";
  fresh_metrics(service).write_json(out);
  out << ",\"watchdog\":";
  telemetry.watchdog.write_json(out);
  out << ",\"profile\":";
  telemetry.profiler.write_json(out);
  out << ",\"alerts\":";
  telemetry.alerts.write_json(out);
  out << "}";
}

void write_metrics_text(std::ostream& out, SolveService& service) {
  fresh_metrics(service).write_prometheus(out);
}

ServeResult run_serve(std::istream& in, std::ostream& out,
                      SolveService& service, const ServeOptions& options) {
  ServeResult result;
  std::map<std::string, Instance> instances;
  std::vector<std::pair<std::size_t, std::future<SolveReply>>> pending;
  std::size_t next_id = 0;

  const auto flush = [&] {
    for (auto& [id, future] : pending) print_reply(out, id, future.get());
    pending.clear();
    // A long-lived serve process may sit idle after a sync; replies
    // must reach the pipe/file now, not at exit.
    out.flush();
  };
  const auto error = [&](const std::string& what) {
    out << "# error: " << what << "\n";
    ++result.protocol_errors;
  };

  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string command;
    tokens >> command;
    if (command.empty() || command[0] == '#') continue;

    if (command == "instance") {
      std::string name;
      tokens >> name;
      if (name.empty()) {
        error("instance needs a name");
        continue;
      }
      std::string body;
      bool terminated = false;
      while (std::getline(in, line)) {
        std::istringstream probe(line);
        std::string first;
        probe >> first;
        if (first == "end") {
          terminated = true;
          break;
        }
        body += line;
        body += "\n";
      }
      if (!terminated) {
        error("instance '" + name + "' missing 'end'");
        continue;
      }
      ParseResult parsed = instance_from_text(body);
      if (!parsed) {
        error("instance '" + name + "': " + parsed.error);
        continue;
      }
      instances.insert_or_assign(name, std::move(*parsed.instance));
    } else if (command == "load") {
      std::string name;
      std::string path;
      tokens >> name >> path;
      if (name.empty() || path.empty()) {
        error("load needs '<name> <path>'");
        continue;
      }
      std::ifstream file(path);
      if (!file) {
        error("load: cannot open '" + path + "'");
        continue;
      }
      ParseResult parsed = read_instance(file);
      if (!parsed) {
        error("load '" + path + "': " + parsed.error);
        continue;
      }
      instances.insert_or_assign(name, std::move(*parsed.instance));
    } else if (command == "solve") {
      std::string name;
      std::string solver_name;
      std::string period_text;
      std::string latency_text;
      tokens >> name >> solver_name >> period_text >> latency_text;
      const auto it = instances.find(name);
      if (it == instances.end()) {
        error("solve: unknown instance '" + name + "'");
        continue;
      }
      SolveRequest request{it->second, solver_name, {},
                           options.default_deadline_seconds,
                           options.default_policy};
      if (!parse_double(period_text, request.bounds.period_bound) ||
          !parse_double(latency_text, request.bounds.latency_bound)) {
        error("solve: malformed bounds '" + period_text + " " +
              latency_text + "'");
        continue;
      }
      bool bad_option = false;
      std::string option;
      while (tokens >> option) {
        if (option.rfind("deadline=", 0) == 0) {
          if (!parse_double(option.substr(9), request.deadline_seconds)) {
            bad_option = true;
          }
        } else if (option == "policy=reject") {
          request.deadline_policy = DeadlinePolicy::kReject;
        } else if (option == "policy=downgrade") {
          request.deadline_policy = DeadlinePolicy::kDowngrade;
        } else {
          bad_option = true;
        }
        if (bad_option) break;
      }
      if (bad_option) {
        error("solve: bad option '" + option + "'");
        continue;
      }
      pending.emplace_back(next_id++,
                           options.router
                               ? options.router->submit(std::move(request))
                               : service.submit(std::move(request)));
      ++result.requests;
    } else if (command == "stats") {
      std::string mode;
      tokens >> mode;
      if (mode == "--json") {
        out << "# stats-json ";
        write_merged_stats_json(out, service, options.router);
        out << "\n";
        out.flush();
        continue;
      }
      if (!mode.empty()) {
        error("stats: unknown option '" + mode + "'");
        continue;
      }
      const EngineStats engine_stats = service.stats();
      out << "# engine ";
      write_engine_stats_json(out, engine_stats);
      out << "\n";
      // Per-tier hit breakdown in one JSON block: how each answered
      // request was served, cheapest tier first.
      out << "# hits ";
      write_hit_tiers_json(out, engine_stats);
      out << "\n";
      out << "# near_miss "
          << (engine_stats.dominating_hits + engine_stats.warm_started)
          << "\n";
      out << "# cache ";
      ShardedSolutionCache::write_stats_json(out, service.cache_stats());
      out << "\n";
      if (options.router) {
        out << "# router ";
        ShardRouter::write_stats_json(out, options.router->stats());
        out << "\n";
        out << "# replica ";
        ShardedSolutionCache::write_stats_json(out,
                                               options.router->replica_stats());
        out << "\n";
      }
      out.flush();
    } else if (command == "metrics") {
      out << "# metrics begin\n";
      write_metrics_text(out, service);
      out << "# metrics end\n";
      out.flush();
    } else if (command == "trace") {
      std::string id_text;
      tokens >> id_text;
      const std::uint64_t id = obs::id_from_hex(id_text);
      obs::Trace trace;
      if (id == 0 || !service.telemetry().tracer.find(id, trace)) {
        out << "# trace " << (id_text.empty() ? "-" : id_text)
            << " not-found\n";
        out.flush();
        continue;
      }
      print_trace(out, trace);
      out.flush();
    } else if (command == "traces" || command == "slowlog") {
      std::size_t limit = 32;
      std::string limit_text;
      if (tokens >> limit_text && !parse_limit(limit_text, limit)) {
        error(command + ": bad limit '" + limit_text + "'");
        continue;
      }
      const obs::Tracer& tracer = service.telemetry().tracer;
      const std::vector<obs::Trace> list =
          command == "traces" ? tracer.recent(limit) : tracer.slow(limit);
      for (const obs::Trace& trace : list) {
        print_trace_header(out, "trace-entry", trace);
      }
      out.flush();
    } else if (command == "timeseries") {
      std::size_t limit = 0;  // 0 = whole ring
      std::string limit_text;
      if (tokens >> limit_text && !parse_limit(limit_text, limit)) {
        error("timeseries: bad limit '" + limit_text + "'");
        continue;
      }
      const obs::FlightRecorder& recorder = service.telemetry().recorder;
      const std::vector<obs::FlightRecorder::Tick> ticks =
          recorder.recent(limit);
      out << "# timeseries ticks=" << recorder.total_ticks()
          << " window=" << ticks.size() << "\n";
      for (const obs::FlightRecorder::Tick& tick : ticks) {
        print_tick(out, tick);
      }
      out << "# timeseries end\n";
      out.flush();
    } else if (command == "profile") {
      std::string filter;
      tokens >> filter;  // optional component-name substring
      out << "# profile ";
      service.telemetry().profiler.write_json(out, filter);
      out << "\n";
      out.flush();
    } else if (command == "alerts") {
      out << "# alerts ";
      service.telemetry().alerts.write_json(out);
      out << "\n";
      out.flush();
    } else if (command == "checkpoint") {
      if (options.checkpointer == nullptr) {
        error("checkpoint: checkpointing disabled");
        continue;
      }
      std::string why;
      const bool ok = options.checkpointer->checkpoint_now(&why);
      const Checkpointer::Stats cp = options.checkpointer->stats();
      out << "# checkpoint {\"ok\":" << (ok ? "true" : "false")
          << ",\"path\":\"" << options.checkpointer->path() << "\""
          << ",\"checkpoints\":" << cp.checkpoints
          << ",\"failures\":" << cp.failures
          << ",\"entries\":" << cp.last_entries
          << ",\"bytes\":" << cp.last_bytes
          << ",\"seconds\":" << cp.last_seconds;
      if (!ok) out << ",\"error\":\"" << why << "\"";
      out << "}\n";
      out.flush();
    } else if (command == "sync") {
      flush();
    } else {
      error("unknown command '" + command + "'");
    }
  }
  flush();
  return result;
}

}  // namespace prts::service
