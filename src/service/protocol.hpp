// The solve service's line protocol: a text request stream driving
// SolveService, used by `prts_cli serve` (file or stdin) and testable
// against string streams.
//
// Request stream (line oriented, '#' comments and blank lines skipped):
//   instance <name>          begin an inline instance definition; the
//     <instance text>        following lines up to a lone 'end' are
//   end                      parsed with model/serialize.hpp
//   load <name> <path>       define an instance from a file
//   solve <name> <solver> <period|inf> <latency|inf>
//         [deadline=<seconds>] [policy=reject|downgrade]
//                            submit a request (ids count from 0); a
//                            bound or deadline of 'nan' is malformed
//   stats                    emit '# engine ...' / '# hits ...' (per-tier
//                            breakdown: exact / dominating / warm_start /
//                            miss) / '# near_miss N' / '# cache ...' JSON
//   stats --json             one '# stats-json {...}' line: the merged
//                            document (engine/hits/cache, router/replica/
//                            net_clients/membership when fabric, the
//                            telemetry registry, watchdog verdict,
//                            profile and alerts)
//   metrics                  prometheus text exposition between
//                            '# metrics begin' and '# metrics end'
//   trace <hex-id>           render one trace: a '# trace ...' header
//                            plus one '# span ...' line per hop (or
//                            '# trace <id> not-found')
//   traces [limit]           one '# trace-entry ...' line per recent
//                            trace, newest first (default 32)
//   slowlog [limit]          one '# trace-entry ...' line per slow
//                            trace, newest first (default 32)
//   timeseries [n]           flight-recorder window: a '# timeseries
//                            ticks=<total> window=<k>' header, one
//                            '# tick seq=.. t=.. dt=.. {json}' line per
//                            tick (oldest first; whole ring when n is
//                            omitted), then '# timeseries end'; a
//                            limit or n other than a positive integer
//                            is a protocol error
//   checkpoint               one synchronous cache snapshot via the
//                            wired Checkpointer: a '# checkpoint
//                            {...}' JSON line (ok/path/entries/bytes),
//                            or an error when checkpointing is off
//   sync                     flush: print every pending reply in
//                            submission order (EOF implies a sync)
//
// Reply lines are TSV, one per request, in submission order:
//   <id> <status> <hit> <dedup> <down> <solver> <failure>
//   <worst_period> <worst_latency> <mapping>
// where <mapping> uses the CLI's "last:proc,proc;..." form and '-'
// stands for not-applicable fields. Protocol errors are reported as
// '# error ...' lines and counted; the stream keeps going.
#pragma once

#include <iosfwd>
#include <limits>

#include "service/engine.hpp"

namespace prts::service {

class ShardRouter;
class Checkpointer;

struct ServeOptions {
  /// Deadline applied to requests that do not carry deadline=...
  double default_deadline_seconds = std::numeric_limits<double>::infinity();
  DeadlinePolicy default_policy = DeadlinePolicy::kDowngrade;

  /// When set, solve requests are routed through the distributed
  /// fabric (local shard -> `service`, remote shards -> peers) and
  /// 'stats' additionally emits a '# router ...' JSON line.
  ShardRouter* router = nullptr;

  /// When set, the `checkpoint` command snapshots the cache through it
  /// (the background interval timer, if any, runs independently).
  Checkpointer* checkpointer = nullptr;
};

struct ServeResult {
  std::size_t requests = 0;
  std::size_t protocol_errors = 0;
};

/// Runs one request stream to EOF against the service.
ServeResult run_serve(std::istream& in, std::ostream& out,
                      SolveService& service, const ServeOptions& options = {});

/// One merged JSON stats document:
///   {"engine":..,"hits":..,"cache":..
///    [,"router":..,"replica":..,"net_clients":{"rank<r>":{..}},
///      "membership":..]
///    ,"telemetry":<registry JSON>,"watchdog":<stall verdict>,
///    "profile":..,"alerts":..}
/// — the payload of `stats --json`.
/// The engine, router and membership blocks are snapshots of the
/// counters the telemetry block carries.
void write_merged_stats_json(std::ostream& out, SolveService& service,
                             ShardRouter* router);

/// Prometheus text exposition of the service's telemetry registry —
/// every counter of the engine, the router sharing it and their
/// clients and server, under the <layer>_<field>_total names. Payload
/// of the `metrics` command and of the fabric's kMetricsRequest.
void write_metrics_text(std::ostream& out, SolveService& service);

}  // namespace prts::service
