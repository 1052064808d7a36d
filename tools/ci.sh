#!/usr/bin/env bash
# CI entry point: configure, build (with the project's always-on
# -Wall -Wextra, plus -Werror here), run the tier-1 ctest suite, rerun
# the threaded suites under ThreadSanitizer and the whole suite under
# ASan+UBSan, check that malformed numeric flags exit 2 on both the
# Release and the ASan+UBSan CLI, gate the profiler's overhead, run the
# benchmark's self-test (every perfbench workload, replies checked byte
# for byte), smoke-test near-miss reuse on a bound sweep,
# then smoke-test the distributed solve fabric with three real prts_cli
# processes on loopback — including hot-entry replication, a gossip
# push landing in a peer's replica tier, telemetry
# scrapes (prometheus exposition from every rank, monotone counters, a
# cross-rank trace), killing a rank mid-run, and an open-loop SLO smoke
# (watch-mode scrape deltas, 5s of Poisson load with another mid-run
# rank kill, watchdog verdict asserted clean). Then a warm-start smoke:
# a 2-rank --peers fleet loading one PRTS1 snapshot by the founding
# ring answers every request in it from cache. Last, an
# elastic-membership smoke: a 2-rank fleet founded by join (no
# --peers), a 3rd rank joining under open-loop load (live handoff
# asserted), a SIGKILL'd rank detected dead, and a warm rejoin from its
# background checkpoint (cache entries > 0 on the first scrape).
#
#   tools/ci.sh                 # Release build into ./build
#   BUILD_TYPE=Debug tools/ci.sh
#   BUILD_DIR=/tmp/ci tools/ci.sh
#   SKIP_FABRIC_SMOKE=1 tools/ci.sh   # ctest only
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-Release}" \
    -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD" -j "$JOBS"
# (cd form rather than ctest --test-dir: that flag needs CTest >= 3.20,
# the project supports CMake 3.16.)
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS")

# ---------------------------------------------------------------------------
# TSan lane: the threaded suites rebuilt with -fsanitize=thread in a tree
# of their own; the first race report fails the run.
# ---------------------------------------------------------------------------
TSAN_BUILD="$BUILD-tsan"
TSAN_SUITES="test_net test_service test_membership test_fabric_replication \
test_obs test_soak test_load test_near_miss test_exp test_thread_pool \
test_campaign test_service_cache test_integration"
cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-g -fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DCMAKE_SHARED_LINKER_FLAGS="-fsanitize=thread"
# shellcheck disable=SC2086
cmake --build "$TSAN_BUILD" -j "$JOBS" --target $TSAN_SUITES
for suite in $TSAN_SUITES; do
  TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD/$suite" ||
    { echo "FAIL: $suite under TSan" >&2; exit 1; }
done
echo "TSan lane OK: $TSAN_SUITES"

# ---------------------------------------------------------------------------
# ASan+UBSan lane: the whole ctest suite rebuilt with address and
# undefined-behaviour checks (plus libstdc++ assertions) in a tree of its
# own; the first report fails the run. GCC's `undefined` group leaves
# out float-cast-overflow (a double out of an integer's range cast to
# it), so it is named on its own.
# ---------------------------------------------------------------------------
ASAN_BUILD="$BUILD-asan"
ASAN_CHECKS="address,undefined,float-cast-overflow"
ASAN_FLAGS="-g -fsanitize=$ASAN_CHECKS \
-fno-sanitize-recover=undefined,float-cast-overflow"
cmake -B "$ASAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$ASAN_FLAGS -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$ASAN_CHECKS" \
    -DCMAKE_SHARED_LINKER_FLAGS="-fsanitize=$ASAN_CHECKS"
cmake --build "$ASAN_BUILD" -j "$JOBS"
(cd "$ASAN_BUILD" &&
   ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
       ctest --output-on-failure -j "$JOBS") ||
  { echo "FAIL: ctest under ASan+UBSan" >&2; exit 1; }
echo "ASan+UBSan lane OK: every ctest suite"

CLI="$BUILD/prts_cli"

# ---------------------------------------------------------------------------
# CLI-argument smoke: a malformed, negative, non-finite or out-of-range
# number, and any flag the command does not read, is refused with exit 2
# and the flag named on stderr, before any input is read or any thread
# or socket starts (stdin is empty) — on the Release tree and on the
# ASan+UBSan tree, where an unchecked double-to-integer cast would be
# reported.
# ---------------------------------------------------------------------------
ARGS="$BUILD/cli_args_smoke"
rm -rf "$ARGS" && mkdir -p "$ARGS"
cli_rejects() {  # cli_rejects BINARY FLAG ARG... : exit 2, FLAG on stderr
  local bin=$1 flag=$2 status=0
  shift 2
  UBSAN_OPTIONS=halt_on_error=1 "$bin" "$@" < /dev/null \
      > /dev/null 2> "$ARGS/err.txt" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "$flag" "$ARGS/err.txt"; then
    echo "FAIL: $bin $* exited $status:" >&2
    cat "$ARGS/err.txt" >&2
    exit 1
  fi
}
for bin in "$CLI" "$ASAN_BUILD/prts_cli"; do
  cli_rejects "$bin" --cache-mb serve /dev/null --cache-mb abc
  cli_rejects "$bin" --cache-mb serve /dev/null --cache-mb -1
  cli_rejects "$bin" --queue-limit serve /dev/null --queue-limit nan
  cli_rejects "$bin" --threads serve /dev/null --threads
  cli_rejects "$bin" --vnodes serve /dev/null --vnodes 1e30
  cli_rejects "$bin" --tasks generate --tasks abc
  cli_rejects "$bin" --mapping evaluate --mapping x:1
  cli_rejects "$bin" --period simulate --period abc
  cli_rejects "$bin" --mix loadgen --targets 127.0.0.1:1 --mix heur-p:abc
  cli_rejects "$bin" --perod solve --algo heur-p --perod 300
  cli_rejects "$bin" --cache-mbb serve /dev/null --cache-mbb 5
  cli_rejects "$bin" --bogus-flag generate --seed 1 --bogus-flag 3
  cli_rejects "$bin" --retention serve /dev/null --retention cost
done
echo "CLI-argument smoke OK: 13 cases on the Release and ASan+UBSan trees"

# ---------------------------------------------------------------------------
# Profiler overhead gate: what the always-on profiler's 1-in-N
# dual-clock samples cost a warm hit (profile_overhead pairs
# default-period and every-call-sampled arms over 20 interleaved
# rounds) must stay under 5%, and it must report the allocations per
# warm hit.
# ---------------------------------------------------------------------------
"$BUILD/profile_overhead" --out "$BUILD/BENCH_profile.json"
overhead=$(grep -o '"overhead_pct":[^,]*' "$BUILD/BENCH_profile.json" |
           cut -d: -f2)
awk -v v="${overhead:-100}" 'BEGIN { exit !(v < 5.0) }' ||
  { echo "FAIL: profiler overhead ${overhead}% >= 5%" >&2; exit 1; }
allocs_hit=$(grep -o '"allocs_per_warm_hit":[^,}]*' "$BUILD/BENCH_profile.json" |
             cut -d: -f2)
awk -v v="${allocs_hit:-0}" 'BEGIN { exit !(v > 0) }' ||
  { echo "FAIL: bench reported zero allocations per warm hit" >&2; exit 1; }
echo "profiler overhead gate OK: ${overhead}% (allocs/warm-hit ${allocs_hit})"

# ---------------------------------------------------------------------------
# Benchmark self-test: perfbench builds its own tree (here under the CI
# build dir) and runs every workload tiny, untraced and traced. Its gate
# compares every reply byte for byte with a direct solver session, so it
# is the end-to-end check that batching, forwarding and the owner's
# completions keep each answer's bytes.
# ---------------------------------------------------------------------------
(cd "$ROOT" &&
   CARGO_TARGET_DIR="$BUILD/perfbench" python3 perfbench/selftest.py) ||
  { echo "FAIL: perfbench self-test" >&2; exit 1; }
echo "perfbench self-test OK"

# ---------------------------------------------------------------------------
# Near-miss smoke test: a paced descending period sweep over one
# instance. Steps whose optimum is unchanged must be served from the
# bounds-monotone index — the '# near_miss' stats counter rises and the
# exact-solver invocations stay sublinear in the sweep length.
# ---------------------------------------------------------------------------
NM="$BUILD/nearmiss_smoke"
rm -rf "$NM" && mkdir -p "$NM"
"$CLI" generate --seed 7 --tasks 10 --procs 6 > "$NM/inst.txt"
{
  echo "load inst $NM/inst.txt"
  p=1000000
  for _ in $(seq 1 12); do
    echo "solve inst exact $p inf"
    echo "sync"
    p=$((p / 3))
  done
  echo "stats"
} | "$CLI" serve - > "$NM/out.txt"
near_miss=$(grep '^# near_miss' "$NM/out.txt" | awk '{print $3}')
[ "${near_miss:-0}" -ge 1 ] ||
  { echo "FAIL: near-miss counter did not rise on a bound sweep" >&2; exit 1; }
grep -q '"dominating":' "$NM/out.txt" ||
  { echo "FAIL: stats output lost the per-tier hit breakdown" >&2; exit 1; }
if grep -q $'\terror\t' "$NM/out.txt"; then
  echo "FAIL: error statuses in near-miss smoke replies" >&2
  exit 1
fi
echo "near-miss smoke test OK: near_miss=$near_miss"

# ---------------------------------------------------------------------------
# Fabric smoke test: ranks 0..2 on localhost present one logical cache.
# Asserts (via the line protocol's stats JSON) that cross-shard keys are
# forwarded and solved once on their owner, that *repeat* hits are
# absorbed by rank 0's replica tier (replica_hits rises, no second round
# trip), and that after killing rank 1 mid-run its replicated keys are
# still served cleanly while fresh keys degrade to local solving —
# never a single error status.
# ---------------------------------------------------------------------------
[ "${SKIP_FABRIC_SMOKE:-0}" = "1" ] && exit 0
FAB="$BUILD/fabric_smoke"
rm -rf "$FAB" && mkdir -p "$FAB"

# counter <file> <key>: last value of "key":N in the file. A key absent
# from the file prints nothing and fails, so the check reading it fails
# too instead of passing on a default.
counter() {
  local v
  v=$(grep -o "\"$2\":[0-9]*" "$1" 2>/dev/null | tail -1 | cut -d: -f2) || true
  [ -n "$v" ] || { echo "ci: \"$2\" absent from $1" >&2; return 1; }
  echo "$v"
}
# wait_metric <host:port> <name> <op> <want>: poll the target's scrape
# until `value op want` holds (awk numeric semantics); an absent metric
# never holds.
wait_metric() {
  local v
  for _ in $(seq 1 150); do
    v=$("$CLI" scrape "$1" 2>/dev/null | grep "^$2 " | tail -1 |
        awk '{print $2}') || true
    if [ -n "$v" ] &&
       awk -v v="$v" -v w="$4" "BEGIN { exit !(v $3 w) }"; then
      return 0
    fi
    sleep 0.1
  done
  echo "ci: timed out waiting for $2 $3 $4 on $1" \
       "(last: ${v:-none})" >&2
  return 1
}

# wait_reply_lines <file> <n>: poll until the file has n reply lines.
wait_reply_lines() {
  for _ in $(seq 1 200); do
    [ "$(grep -c $'^[0-9]*\t' "$1" 2>/dev/null || true)" -ge "$2" ] && return 0
    sleep 0.05
  done
  echo "fabric smoke: timed out waiting for $2 replies in $1" >&2
  return 1
}

"$CLI" generate --seed 42 --tasks 8 --procs 4 > "$FAB/inst.txt"

# Ephemeral-ish ports; retry a few bases in case of a collision.
fabric_up=0
for attempt in 1 2 3 4 5; do
  P0=$((21000 + (RANDOM % 13000) * 3))
  P1=$((P0 + 1))
  P2=$((P0 + 2))
  PEERS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2"
  mkfifo "$FAB/in0" "$FAB/in1"
  # Gossip enabled on every rank: the burst after phase 1 asserts that
  # a push reaches a peer's replica tier.
  "$CLI" serve --listen "$P2" --world 3 --rank 2 --peers "$PEERS" \
      --gossip-interval 0.25 --no-input > "$FAB/out2" 2> "$FAB/err2" &
  PID2=$!
  "$CLI" serve "$FAB/in1" --listen "$P1" --world 3 --rank 1 \
      --peers "$PEERS" --gossip-interval 0.25 \
      > "$FAB/out1" 2> "$FAB/err1" &
  PID1=$!
  "$CLI" serve "$FAB/in0" --listen "$P0" --world 3 --rank 0 \
      --peers "$PEERS" --gossip-interval 0.25 --stats \
      > "$FAB/out0" 2> "$FAB/err0" &
  PID0=$!
  exec 8> "$FAB/in0" 9> "$FAB/in1"
  for _ in $(seq 1 40); do
    if grep -q "listening" "$FAB/err0" 2>/dev/null &&
       grep -q "listening" "$FAB/err1" 2>/dev/null &&
       grep -q "listening" "$FAB/err2" 2>/dev/null; then
      fabric_up=1
      break
    fi
    kill -0 "$PID0" 2>/dev/null && kill -0 "$PID1" 2>/dev/null &&
      kill -0 "$PID2" 2>/dev/null || break
    sleep 0.05
  done
  [ "$fabric_up" = "1" ] && break
  echo "fabric smoke: port base $P0 unavailable, retrying" >&2
  exec 8>&- 9>&-
  kill "$PID0" "$PID1" "$PID2" 2>/dev/null || true
  wait "$PID0" "$PID1" "$PID2" 2>/dev/null || true
  rm -f "$FAB/in0" "$FAB/in1"
done
[ "$fabric_up" = "1" ] || { echo "fabric smoke: could not bind ports" >&2; exit 1; }

# Phase 1: 16 distinct keys from rank 0 (~2/3 remote-shard), then the
# same 16 again — repeats of remote keys must now be *replica* hits
# (absorbed on rank 0, no second round trip), then stats.
{
  echo "load inst $FAB/inst.txt"
  for pass in 1 2; do
    for i in $(seq 1 16); do echo "solve inst heur-p inf $((1000 + i))"; done
    echo "sync"
  done
  echo "stats"
} >&8
wait_reply_lines "$FAB/out0" 32
# The '# router' / '# replica' stats lines land just after the replies;
# wait for them too before reading counters.
for _ in $(seq 1 100); do
  grep -q '# replica' "$FAB/out0" && break
  sleep 0.05
done

forwarded=$(counter "$FAB/out0" forwarded)
replica_hits=$(counter "$FAB/out0" replica_hits)
[ "$forwarded" -ge 1 ] || { echo "FAIL: nothing was forwarded" >&2; exit 1; }
[ "$replica_hits" -ge 1 ] ||
  { echo "FAIL: repeats were not absorbed by the replica tier" >&2; exit 1; }

# The owners actually served the first pass from their engines.
echo "stats" >&9
for _ in $(seq 1 100); do
  grep -q '"submitted"' "$FAB/out1" && break
  sleep 0.05
done
owner_submitted=$(( $(counter "$FAB/out1" submitted) ))
[ "$owner_submitted" -ge 1 ] ||
  { echo "FAIL: rank 1 never saw a forwarded solve" >&2; exit 1; }

# Gossip across processes: every key 4 times in one burst of warm
# hits. Unless the burst outlasts 3 gossip rounds, 4 hits on one of
# rank 0's owned keys fall in at most 3 windows of 0.25 s, so one
# window holds gossip_min_hits (2) of them: rank 0 pushes the entry,
# and its peers file it in their replica tiers.
{
  for _ in 1 2 3 4; do
    for i in $(seq 1 16); do echo "solve inst heur-p inf $((1000 + i))"; done
  done
  echo "sync"
} >&8
wait_reply_lines "$FAB/out0" 96
wait_metric "127.0.0.1:$P2" router_prefetched_total ">=" 1 ||
  { echo "FAIL: no gossip push reached rank 2's replica tier" >&2; exit 1; }

# ---------------------------------------------------------------------------
# Telemetry smoke: scrape every live rank's prometheus exposition over
# the fabric's kMetricsRequest frame, twice with traffic in between —
# counters must be monotone and every exposition line well-formed — and
# assert rank 0 holds at least one trace whose spans name two ranks
# (the cross-rank tracing guarantee, via the line protocol's `traces`).
# ---------------------------------------------------------------------------
# metric_value <file> <name>: the sample value of a prometheus line. An
# absent metric prints nothing and fails, like counter.
metric_value() {
  local v
  v=$(grep "^$2 " "$1" 2>/dev/null | tail -1 | awk '{print $2}') || true
  [ -n "$v" ] || { echo "ci: metric $2 absent from $1" >&2; return 1; }
  echo "$v"
}
for r in 0 1 2; do
  port_var="P$r"
  "$CLI" scrape "127.0.0.1:${!port_var}" > "$FAB/scrape${r}_a.txt" ||
    { echo "FAIL: scrape of rank $r failed" >&2; exit 1; }
  [ -s "$FAB/scrape${r}_a.txt" ] ||
    { echo "FAIL: empty exposition from rank $r" >&2; exit 1; }
done
# Repeat traffic between the scrapes: remote-shard repeats rise as
# replica hits on rank 0, owned keys as engine submissions.
{
  for i in $(seq 1 16); do echo "solve inst heur-p inf $((1000 + i))"; done
  echo "sync"
} >&8
wait_reply_lines "$FAB/out0" 112
for r in 0 1 2; do
  port_var="P$r"
  "$CLI" scrape "127.0.0.1:${!port_var}" > "$FAB/scrape${r}_b.txt" ||
    { echo "FAIL: second scrape of rank $r failed" >&2; exit 1; }
  # Every line is a comment or "name[{labels}] value" — a malformed
  # exposition line would break standard scrapers.
  if grep -vE '^#' "$FAB/scrape${r}_b.txt" |
     grep -vE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? [+-]?([0-9.]+([eE][+-]?[0-9]+)?|Inf|NaN)$' |
     grep -q .; then
    echo "FAIL: malformed exposition line from rank $r:" >&2
    grep -vE '^#' "$FAB/scrape${r}_b.txt" |
      grep -vE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})? [+-]?([0-9.]+([eE][+-]?[0-9]+)?|Inf|NaN)$' |
      head -3 >&2
    exit 1
  fi
  for m in engine_requests_total router_forwarded_total \
           router_replica_hits_total net_server_frames_total; do
    a=$(metric_value "$FAB/scrape${r}_a.txt" "$m")
    b=$(metric_value "$FAB/scrape${r}_b.txt" "$m")
    [ "$b" -ge "$a" ] ||
      { echo "FAIL: $m went backwards on rank $r ($a -> $b)" >&2; exit 1; }
  done
done
# The repeat pass was absorbed by rank 0's replica tier — its counter
# must have strictly risen between the two scrapes.
rh_a=$(metric_value "$FAB/scrape0_a.txt" router_replica_hits_total)
rh_b=$(metric_value "$FAB/scrape0_b.txt" router_replica_hits_total)
[ "$rh_b" -gt "$rh_a" ] ||
  { echo "FAIL: replica hits did not rise between scrapes ($rh_a -> $rh_b)" >&2; exit 1; }

echo "traces 200" >&8
for _ in $(seq 1 100); do
  grep -q '# trace-entry' "$FAB/out0" && break
  sleep 0.05
done
grep -qE '# trace-entry .*ranks=[0-9]+,[0-9]+' "$FAB/out0" ||
  { echo "FAIL: no cross-rank trace on rank 0" >&2; exit 1; }
echo "telemetry smoke test OK: replica_hits $rh_a -> $rh_b," \
     "cross-rank traces present"

# ---------------------------------------------------------------------------
# Profiler smoke: with all three ranks up and warm from the traffic
# above, the `profile` protocol command on rank 0 must render a
# well-formed rollup (components + mutexes), every rank's scrape must
# export profile_* families, and the always-on allocation accounting
# must have produced a nonzero engine_allocs_per_request gauge.
# ---------------------------------------------------------------------------
echo "profile" >&8
for _ in $(seq 1 100); do
  grep -q '# profile ' "$FAB/out0" && break
  sleep 0.05
done
grep -q '# profile {"enabled":true,"components":\[' "$FAB/out0" ||
  { echo "FAIL: profile command malformed on rank 0" >&2; exit 1; }
grep '# profile ' "$FAB/out0" | grep -q '"name":"submit_path"' ||
  { echo "FAIL: profile rollup lost the submit_path component" >&2; exit 1; }
grep '# profile ' "$FAB/out0" | grep -q '"mutexes":\[' ||
  { echo "FAIL: profile rollup lost the mutex table" >&2; exit 1; }
echo "profile" >&9
for _ in $(seq 1 100); do
  grep -q '# profile ' "$FAB/out1" && break
  sleep 0.05
done
grep -q '# profile {"enabled":true' "$FAB/out1" ||
  { echo "FAIL: profile command malformed on rank 1" >&2; exit 1; }
for r in 0 1 2; do
  grep -q '^profile_' "$FAB/scrape${r}_b.txt" ||
    { echo "FAIL: rank $r exports no profile_* families" >&2; exit 1; }
done
apr=$(metric_value "$FAB/scrape0_b.txt" engine_allocs_per_request)
awk -v v="$apr" 'BEGIN { exit !(v > 0) }' ||
  { echo "FAIL: engine_allocs_per_request is zero on rank 0" >&2; exit 1; }
echo "profiler smoke test OK: allocs_per_request=$apr"

# Phase 2: kill rank 1 mid-run. Its already-replicated keys must still
# be served (replica hits rise, zero errors), and 24 fresh keys must be
# answered cleanly — the ones rank 1 owns via local fallback.
kill "$PID1" && wait "$PID1" 2>/dev/null || true
{
  for i in $(seq 1 16); do echo "solve inst heur-p inf $((1000 + i))"; done
  echo "sync"
  for i in $(seq 1 24); do echo "solve inst heur-p inf $((5000 + i))"; done
  echo "sync"
  echo "stats"
} >&8
wait_reply_lines "$FAB/out0" 152

# ---------------------------------------------------------------------------
# Open-loop SLO smoke: ranks 0 and 2 are still up (rank 1 is dead).
# First a watch-mode scrape of rank 0 — two iterations, counter deltas,
# nonzero exit on any malformed exposition line. Then 5 seconds of
# open-loop Poisson load through the wire pool against ranks 0 and 2,
# with rank 2 killed mid-run: the SLO report must still be emitted and
# pass (generous bounds — the pool fails over, the router degrades to
# local solving), with zero stuck waiters, and afterwards rank 0's
# watchdog must report zero stall episodes.
# ---------------------------------------------------------------------------
"$CLI" scrape "127.0.0.1:$P0" --watch 1 --count 2 > "$FAB/watch0.txt" ||
  { echo "FAIL: watch-mode scrape of rank 0 failed" >&2; exit 1; }
grep -q '# scrape delta' "$FAB/watch0.txt" ||
  { echo "FAIL: watch-mode scrape printed no delta report" >&2; exit 1; }

( sleep 2; kill "$PID2" 2>/dev/null ) &
KILLER=$!
"$CLI" loadgen --targets "127.0.0.1:$P0,127.0.0.1:$P2" \
    --rate 100 --duration 5 --seed 11 --keys 8 \
    --record "$FAB/openloop_trace.txt" \
    --slo "p99<=5s;error_rate<=0.05" --out "$FAB/openloop.json" ||
  { echo "FAIL: open-loop run missed its SLO or left stuck waiters" >&2
    cat "$FAB/openloop.json" 2>/dev/null >&2; exit 1; }
wait "$KILLER" 2>/dev/null || true
[ -s "$FAB/openloop.json" ] ||
  { echo "FAIL: loadgen emitted no SLO report" >&2; exit 1; }
grep -q '"unresolved":0' "$FAB/openloop.json" ||
  { echo "FAIL: open-loop run left stuck waiters" >&2; exit 1; }
grep -q '"slo":{"pass":true' "$FAB/openloop.json" ||
  { echo "FAIL: SLO verdict missing or failing in report" >&2; exit 1; }
[ -s "$FAB/openloop_trace.txt" ] &&
  grep -q '^prts-load-trace v1' "$FAB/openloop_trace.txt" ||
  { echo "FAIL: recorded arrival trace missing or malformed" >&2; exit 1; }
# Pipelining proof: the wire pool runs ONE mux connection per target,
# and under open-loop load plus a mid-run peer death the in-flight
# watermark on a single connection must exceed 1 — lock-step wire
# clients cap it at 1 by construction.
inflight_max=$(counter "$FAB/openloop.json" net_client_inflight_max)
[ "$inflight_max" -ge 2 ] ||
  { echo "FAIL: no pipelining on the wire pool's single connection" \
         "(net_client_inflight_max=$inflight_max)" >&2; exit 1; }

# Rank 0 took the whole storm (forwards to two dead peers included)
# without any component stalling.
echo "stats --json" >&8
for _ in $(seq 1 100); do
  grep -q '"watchdog"' "$FAB/out0" && break
  sleep 0.05
done
grep -q '"watchdog":{"stalls_total":0' "$FAB/out0" ||
  { echo "FAIL: watchdog reported stalls on rank 0" >&2; exit 1; }
# The mid-run rank kills left rank 0 with in-flight forwards to dead
# peers: every one must have failed over (forward_failures rises, and
# the zero-unresolved check above proves no waiter got stuck).
[ "$(counter "$FAB/out0" forward_failures)" -ge 1 ] ||
  { echo "FAIL: rank kills produced no failed-over forwards" >&2; exit 1; }
echo "open-loop smoke test OK: $(grep -o '"offered_rate":[0-9.]*' \
    "$FAB/openloop.json"), $(grep -o '"answered":[0-9]*' "$FAB/openloop.json")," \
    "inflight_max=$inflight_max"

# ---------------------------------------------------------------------------
# Alert smoke: every serve carries the default rule
# "watchdog_stalls_total_delta>0;hold=5". Freeze the last live rank
# with SIGSTOP for longer than the 2s stall threshold — on resume its
# watchdog books a stall episode (the periodic gossip component's
# missed-beat gap), the next flight-recorder tick sees the delta and
# the rule fires (`scrape --alerts` exits 3). With the rank healthy
# again the rule must then resolve within the 5-tick hold (exit 0).
# Deliberately last, after rank 0's stall-free verdict above: a frozen
# peer also stretches *other* ranks' gossip exchanges past the stall
# bar, so this fault must not precede any watchdog-clean assertion.
# ---------------------------------------------------------------------------
kill -STOP "$PID0"
sleep 3.2
kill -CONT "$PID0"
alert_fired=0
for _ in $(seq 1 60); do
  rc=0
  "$CLI" scrape "127.0.0.1:$P0" --alerts > "$FAB/alerts0.txt" 2>/dev/null ||
    rc=$?
  [ "$rc" -eq 3 ] && { alert_fired=1; break; }
  [ "$rc" -eq 0 ] ||
    { echo "FAIL: alert scrape of rank 0 failed (rc=$rc)" >&2; exit 1; }
  sleep 0.25
done
[ "$alert_fired" = "1" ] ||
  { echo "FAIL: frozen rank 0 never fired the watchdog stall alert" >&2
    cat "$FAB/alerts0.txt" >&2; exit 1; }
grep -q '^alert_watchdog_stalls' "$FAB/alerts0.txt" ||
  { echo "FAIL: firing scrape does not name the watchdog rule" >&2; exit 1; }
alert_resolved=0
for _ in $(seq 1 60); do
  rc=0
  "$CLI" scrape "127.0.0.1:$P0" --alerts > "$FAB/alerts0.txt" 2>/dev/null ||
    rc=$?
  [ "$rc" -eq 0 ] && { alert_resolved=1; break; }
  [ "$rc" -eq 3 ] ||
    { echo "FAIL: alert scrape of rank 0 failed (rc=$rc)" >&2; exit 1; }
  sleep 0.5
done
[ "$alert_resolved" = "1" ] ||
  { echo "FAIL: watchdog stall alert never resolved after revive" >&2
    cat "$FAB/alerts0.txt" >&2; exit 1; }
echo "alert smoke test OK: stall rule fired and resolved after revive"

exec 8>&- 9>&-
wait "$PID0" || { echo "FAIL: rank 0 exited non-zero" >&2; exit 1; }
kill "$PID2" 2>/dev/null || true
wait "$PID2" 2>/dev/null || true

replica_hits_after=$(counter "$FAB/out0" replica_hits)
[ "$replica_hits_after" -gt "$replica_hits" ] ||
  { echo "FAIL: killed rank's replicated keys were not served" >&2; exit 1; }
[ "$(counter "$FAB/out0" local_fallbacks)" -ge 1 ] ||
  { echo "FAIL: peer death did not degrade to local solving" >&2; exit 1; }
if grep -q $'\terror\t' "$FAB/out0"; then
  echo "FAIL: error statuses in rank 0 replies" >&2
  exit 1
fi
replies=$(grep -c $'^[0-9]*\t' "$FAB/out0" || true)
[ "$replies" -eq 152 ] ||
  { echo "FAIL: expected 152 replies, got $replies" >&2; exit 1; }

echo "fabric smoke test OK: forwarded=$forwarded" \
     "replica_hits=$replica_hits_after" \
     "local_fallbacks=$(counter "$FAB/out0" local_fallbacks)" \
     "prefetched=$(counter "$FAB/out0" prefetched)"

# ---------------------------------------------------------------------------
# Warm-start smoke: one standalone serve solves 24 keys and leaves its
# PRTS1 shutdown checkpoint; a 2-rank --peers fleet then warm-starts
# from that one file, each rank loading only the keys the founding ring
# assigns it. Replayed through rank 0, every request must be an exact
# cache hit — local keys from rank 0's engine, remote ones from rank
# 1's — with zero solver runs on either rank: a rank that loaded keys it
# does not own, or skipped keys it does, would have to solve. Near-miss
# reuse is off on the fleet, so a looser cached bound cannot stand in
# for a missing key. A shutdown checkpoint that cannot be written must
# make serve exit nonzero, and a version 1 snapshot (keyed by the
# canonical text, before keys hashed the values) must be refused at
# --warm-start with exit 1, naming its version.
# ---------------------------------------------------------------------------
WS="$BUILD/warm_smoke"
rm -rf "$WS" && mkdir -p "$WS"
"$CLI" generate --seed 7 --tasks 8 --procs 4 > "$WS/inst.txt"
{
  echo "load inst $WS/inst.txt"
  for i in $(seq 1 24); do echo "solve inst heur-p inf $((3000 + i))"; done
  echo "sync"
} > "$WS/requests.txt"
"$CLI" serve "$WS/requests.txt" --checkpoint "$WS/snapshot.bin" \
    > "$WS/cold.txt"
[ "$(grep -c $'^[0-9]*\t' "$WS/cold.txt")" -eq 24 ] ||
  { echo "FAIL: warm-start snapshot run did not answer 24 requests" >&2
    exit 1; }
# A shutdown checkpoint that cannot be written fails the run.
if echo "sync" | "$CLI" serve - --checkpoint "$WS/no_such_dir/snapshot.bin" \
     > /dev/null 2>&1; then
  echo "FAIL: serve exited 0 after a failed shutdown checkpoint" >&2
  exit 1
fi
# The same snapshot with its version byte (after "PRTS1\n") set to 1.
cp "$WS/snapshot.bin" "$WS/v1.bin"
printf '\001' | dd of="$WS/v1.bin" bs=1 seek=6 conv=notrunc status=none
v1_status=0
echo "sync" | "$CLI" serve - --warm-start "$WS/v1.bin" \
    > /dev/null 2> "$WS/v1.err" || v1_status=$?
[ "$v1_status" -eq 1 ] ||
  { echo "FAIL: --warm-start on a version 1 snapshot exited $v1_status," \
         "not 1" >&2; cat "$WS/v1.err" >&2; exit 1; }
grep -q "unsupported snapshot version 1" "$WS/v1.err" ||
  { echo "FAIL: --warm-start refusal does not name version 1" >&2
    cat "$WS/v1.err" >&2; exit 1; }

warm_up=0
for attempt in 1 2 3 4 5; do
  W0=$((12000 + (RANDOM % 1000) * 2))
  W1=$((W0 + 1))
  WPEERS="127.0.0.1:$W0,127.0.0.1:$W1"
  "$CLI" serve --listen "$W1" --world 2 --rank 1 --peers "$WPEERS" \
      --warm-start "$WS/snapshot.bin" --near-miss off --no-input \
      > "$WS/out1" 2> "$WS/err1" &
  WPID1=$!
  for _ in $(seq 1 40); do
    grep -q "listening" "$WS/err1" 2>/dev/null && { warm_up=1; break; }
    kill -0 "$WPID1" 2>/dev/null || break
    sleep 0.05
  done
  [ "$warm_up" = "1" ] && break
  echo "warm-start smoke: port base $W0 unavailable, retrying" >&2
  kill "$WPID1" 2>/dev/null || true
  wait "$WPID1" 2>/dev/null || true
done
[ "$warm_up" = "1" ] ||
  { echo "warm-start smoke: could not bind ports" >&2; exit 1; }
{ cat "$WS/requests.txt"; echo "stats"; } |
  "$CLI" serve - --listen "$W0" --world 2 --rank 0 --peers "$WPEERS" \
      --warm-start "$WS/snapshot.bin" --near-miss off \
      > "$WS/out0" 2> "$WS/err0" ||
  { echo "FAIL: warm-started rank 0 exited non-zero" >&2
    cat "$WS/err0" >&2; exit 1; }
"$CLI" scrape "127.0.0.1:$W1" > "$WS/scrape1.txt" ||
  { echo "FAIL: scrape of warm-started rank 1 failed" >&2; exit 1; }
kill "$WPID1" 2>/dev/null || true
wait "$WPID1" 2>/dev/null || true

[ "$(grep -c $'^[0-9]*\t' "$WS/out0")" -eq 24 ] ||
  { echo "FAIL: warm-started fleet did not answer 24 requests" >&2; exit 1; }
if awk -F'\t' '$1 ~ /^[0-9]+$/ && $3 != 1' "$WS/out0" | grep -q .; then
  echo "FAIL: warm-started fleet answered requests from outside its cache" >&2
  awk -F'\t' '$1 ~ /^[0-9]+$/ && $3 != 1' "$WS/out0" | head -3 >&2
  exit 1
fi
[ "$(counter "$WS/out0" forwarded)" -ge 1 ] ||
  { echo "FAIL: warm-start replay never reached rank 1's slice" >&2; exit 1; }
[ "$(counter "$WS/out0" local)" -ge 1 ] ||
  { echo "FAIL: warm-start replay never hit rank 0's slice" >&2; exit 1; }
[ "$(counter "$WS/out0" solver_invocations)" -eq 0 ] ||
  { echo "FAIL: warm-started rank 0 ran its solver" >&2; exit 1; }
[ "$(metric_value "$WS/scrape1.txt" engine_solver_invocations_total)" \
    -eq 0 ] ||
  { echo "FAIL: warm-started rank 1 ran its solver" >&2; exit 1; }
echo "warm-start smoke test OK: 24/24 cache hits, version 1 refused," \
     "forwarded=$(counter "$WS/out0" forwarded)," \
     "local=$(counter "$WS/out0" local)"

# ---------------------------------------------------------------------------
# Elastic membership smoke: real prts_cli processes, no --peers.
# Rank 0 founds the fleet, rank 1 joins it; under 6 s of open-loop load
# a 3rd rank joins (rank 0's membership converges to 3 and the joiner
# receives handoff entries for its ring slice), then rank 1 is
# SIGKILL'd — the load run must still pass its SLO with zero stuck
# waiters and the survivors must book the death. Finally rank 1 rejoins
# *warm* from the background checkpoint its dead incarnation left
# behind: its very first scrape shows cache_entries > 0, before
# any request has landed.
# ---------------------------------------------------------------------------
ELA="$BUILD/elastic_smoke"
rm -rf "$ELA" && mkdir -p "$ELA"

# Fast-failure-detection knobs shared by every elastic rank.
ELASTIC_KNOBS="--heartbeat-interval 0.1 --suspect-after 0.8 --dead-after 1.6"

elastic_up=0
for attempt in 1 2 3 4 5; do
  # A base below the fabric smoke's 21000+ range, so a lingering
  # TIME_WAIT from phase 2 can never collide.
  E0=$((15000 + (RANDOM % 1500) * 3))
  E1=$((E0 + 1))
  E2=$((E0 + 2))
  # shellcheck disable=SC2086
  "$CLI" serve --listen "$E0" --rank 0 $ELASTIC_KNOBS \
      --checkpoint "$ELA/ckpt0.bin" --checkpoint-interval 0.5 \
      --no-input > "$ELA/out0" 2> "$ELA/err0" &
  EPID0=$!
  # shellcheck disable=SC2086
  "$CLI" serve --listen "$E1" --rank 1 $ELASTIC_KNOBS \
      --join "127.0.0.1:$E0" \
      --checkpoint "$ELA/ckpt1.bin" --checkpoint-interval 0.5 \
      --no-input > "$ELA/out1" 2> "$ELA/err1" &
  EPID1=$!
  for _ in $(seq 1 40); do
    if grep -q "listening" "$ELA/err0" 2>/dev/null &&
       grep -q "listening" "$ELA/err1" 2>/dev/null; then
      elastic_up=1
      break
    fi
    kill -0 "$EPID0" 2>/dev/null && kill -0 "$EPID1" 2>/dev/null || break
    sleep 0.05
  done
  [ "$elastic_up" = "1" ] && break
  echo "elastic smoke: port base $E0 unavailable, retrying" >&2
  kill "$EPID0" "$EPID1" 2>/dev/null || true
  wait "$EPID0" "$EPID1" 2>/dev/null || true
done
[ "$elastic_up" = "1" ] ||
  { echo "elastic smoke: could not bind ports" >&2; exit 1; }

# The join propagates: both ranks converge on a 2-member view.
wait_metric "127.0.0.1:$E0" membership_members == 2 ||
  { echo "FAIL: rank 1's join never reached rank 0" >&2; exit 1; }
wait_metric "127.0.0.1:$E1" membership_members == 2 ||
  { echo "FAIL: rank 1 never learned the full member list" >&2; exit 1; }

# Open-loop load against both founders while the fleet reshapes. 24
# distinct keys: enough that the mid-run joiner's ring slice contains
# cached entries to hand off (each key lands on the joiner w.p. ~1/3).
"$CLI" loadgen --targets "127.0.0.1:$E0,127.0.0.1:$E1" \
    --rate 80 --duration 6 --seed 17 --keys 24 \
    --slo "p99<=5s;error_rate<=0.05" --out "$ELA/openloop.json" \
    > "$ELA/loadgen.txt" 2>&1 &
LOADPID=$!

sleep 1.5
# shellcheck disable=SC2086
"$CLI" serve --listen "$E2" --rank 2 $ELASTIC_KNOBS \
    --join "127.0.0.1:$E0" --no-input > "$ELA/out2" 2> "$ELA/err2" &
EPID2=$!
wait_metric "127.0.0.1:$E0" membership_members == 3 ||
  { echo "FAIL: mid-run join never converged on rank 0" >&2; exit 1; }
# The live handoff actually streamed: the joiner received cache entries
# for the ring slice it now owns, while the load kept flowing.
wait_metric "127.0.0.1:$E2" membership_handoff_entries_received_total \
    ">=" 1 ||
  { echo "FAIL: joiner received no handoff entries" >&2; exit 1; }

sleep 1
# disown first: the shell would otherwise print an asynchronous
# "Killed" job notice into the CI log.
disown "$EPID1"
kill -9 "$EPID1"

wait "$LOADPID" ||
  { echo "FAIL: elastic open-loop run missed its SLO" >&2
    cat "$ELA/openloop.json" 2>/dev/null >&2; exit 1; }
grep -q '"unresolved":0' "$ELA/openloop.json" ||
  { echo "FAIL: elastic open-loop run left stuck waiters" >&2; exit 1; }
grep -q '"slo":{"pass":true' "$ELA/openloop.json" ||
  { echo "FAIL: SLO verdict missing or failing in elastic report" >&2
    exit 1; }

# Silence -> suspect -> dead: the survivors drop the killed rank and
# book the death.
wait_metric "127.0.0.1:$E0" membership_members == 2 ||
  { echo "FAIL: killed rank 1 was never declared dead" >&2; exit 1; }
wait_metric "127.0.0.1:$E0" membership_deaths_total ">=" 1 ||
  { echo "FAIL: rank 0 booked no membership death" >&2; exit 1; }

# Warm rejoin: the dead incarnation's background checkpoint must exist
# (interval 0.5 s, atomic rename — a SIGKILL never leaves it torn) and
# must bring the cache back before the first request.
[ -s "$ELA/ckpt1.bin" ] ||
  { echo "FAIL: rank 1 left no background checkpoint" >&2; exit 1; }
# shellcheck disable=SC2086
"$CLI" serve --listen "$E1" --rank 1 $ELASTIC_KNOBS \
    --join "127.0.0.1:$E0" --warm-start "$ELA/ckpt1.bin" \
    --no-input > "$ELA/out1b" 2> "$ELA/err1b" &
EPID1=$!
for _ in $(seq 1 40); do
  grep -q "listening" "$ELA/err1b" 2>/dev/null && break
  sleep 0.05
done
warm_entries=$(grep -o 'warm-start: [0-9]*' "$ELA/err1b" | awk '{print $2}')
[ "${warm_entries:-0}" -ge 1 ] ||
  { echo "FAIL: warm rejoin loaded no checkpoint entries" >&2; exit 1; }
wait_metric "127.0.0.1:$E1" cache_entries ">=" 1 ||
  { echo "FAIL: rejoined rank 1 scrapes an empty cache" >&2; exit 1; }
wait_metric "127.0.0.1:$E0" membership_members == 3 ||
  { echo "FAIL: warm rejoin never converged on rank 0" >&2; exit 1; }

kill "$EPID0" "$EPID1" "$EPID2" 2>/dev/null || true
wait "$EPID0" ||
  { echo "FAIL: elastic rank 0 exited non-zero" >&2; exit 1; }
wait "$EPID1" "$EPID2" 2>/dev/null || true
echo "elastic smoke test OK: join under load, handoff streamed," \
     "death detected, warm rejoin with $warm_entries entries"
