// The fabric's one client: a pipelined request/reply client over ONE
// framed TCP connection. Request-id multiplexing (net/frame.hpp) lets
// many solves, pings, gossip pushes and scrapes be in flight on it
// simultaneously; a caller that waits for each reply before sending
// the next frame gets lock-step exchanges from the same code.
//
// Shape (the classic async-transport trio): callers enqueue
// (frame, completion) pairs via call_async(); a writer thread drains
// the queue onto the socket, stamping each frame with a fresh 48-bit
// id; a dedicated reader thread demultiplexes out-of-order replies
// through an id -> completion map and runs each completion itself, so
// an exchange occupies no thread of its own while it is on the wire.
// The future-returning call_async() is a thin wrapper that completes a
// promise. Per-request deadlines are swept by the reader on a short
// receive-timeout tick, so an abandoned request resolves nullopt
// without poisoning the connection — a late reply is simply dropped by
// id, framing is never lost.
//
// Completion contract: every exchange resolves exactly once — a reply,
// a per-request expiry, connection death, a fast-fail inside the
// backoff window, or shutdown — and its completion runs after the
// client's lock is released (collected under it, run outside it). A
// completion that throws is caught and counted; the reader keeps
// reading.
//
// Failure model: connection death (EOF, IO error, protocol garbage, or
// a peer gone silent past the reply timeout) fails ALL outstanding
// exchanges with nullopt — exactly once per waiter — and arms an
// exponential backoff window during which calls fail fast (the peer is
// *suspect*) instead of paying a connect timeout per request: a dead
// peer costs the fabric one timeout, not one per forwarded miss. Reply
// timeouts arm the gentler slow-peer backoff; refused connections the
// full one. A live reply resets the backoff.
//
// Connect probe: every fresh connection starts with a kPing that must
// come back as a kPong carrying the probe's id within
// connect_timeout_seconds — a peer that accepts but never answers (or
// answers in another protocol) fails the connect instead of swallowing
// the first real request.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace prts::net {

/// `seconds` scaled by a factor drawn uniformly from
/// [1 - jitter_fraction, 1 + jitter_fraction], advancing `state` with a
/// splitmix64 step — deterministic per seed (testable), different
/// across seeds (herd-breaking). jitter_fraction is clamped to [0, 1].
double jittered_backoff(double seconds, double jitter_fraction,
                        std::uint64_t& state);

/// A stable non-zero jitter seed derived from a peer address (used when
/// FrameClientConfig::backoff_jitter_seed is 0).
std::uint64_t jitter_seed_for(const std::string& host, std::uint16_t port);

struct FrameClientConfig {
  double connect_timeout_seconds = 2.0;
  /// Receive timeout per reply; covers the peer's solve time.
  double reply_timeout_seconds = 120.0;
  double backoff_initial_seconds = 0.2;
  /// Initial backoff after a *reply timeout*: the peer answered the
  /// connect, it is slow, not gone — back off more gently than a
  /// refused connection so one long solve does not eclipse a healthy
  /// peer for a full refusal window.
  double backoff_timeout_initial_seconds = 0.05;
  double backoff_max_seconds = 5.0;
  /// Each armed backoff window is multiplied by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]: after a rank restart,
  /// its peers' reconnects de-synchronize instead of arriving as one
  /// thundering herd on identical doubled schedules. 0 disables.
  double backoff_jitter = 0.25;
  /// Seed for the jitter stream; 0 derives one from host:port so two
  /// clients of the same peer in one process still diverge.
  std::uint64_t backoff_jitter_seed = 0;
  std::size_t max_payload = kDefaultMaxPayload;

  /// When non-empty, sent as a kAuth frame immediately after every
  /// (re)connect, before any request — the shared-secret handshake of
  /// FrameServer::start's auth_token. A rejected token closes the
  /// connection and arms the normal backoff.
  std::string auth_token;

  /// The registry the client counts into, under `metrics_prefix` +
  /// {calls,failures,connects,fast_failures,suspects,timeouts,
  /// unknown_replies,completion_errors} + "_total", with
  /// prefix+"inflight" (gauge) and prefix+"mux_depth" (histogram) kept
  /// live — reconnect churn and suspect transitions become scrapeable
  /// instead of silent. Must outlive the client. nullptr: the client
  /// keeps a registry of its own.
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "net_client_";
};

/// A snapshot of the client's registry counters (MuxFrameClient::stats):
/// field <f> is stored in <metrics_prefix><f>_total, except the
/// max_inflight high-water mark, which the client keeps under its lock.
struct FrameClientStats {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;  ///< calls answered nullopt
  std::uint64_t connects = 0;  ///< successful (re)connects
  std::uint64_t fast_failures = 0;  ///< rejected inside the backoff window
  std::uint64_t suspects = 0;  ///< healthy -> suspect transitions
  std::uint64_t timeouts = 0;  ///< failures that were reply timeouts
  /// High-water mark of concurrently outstanding exchanges on one
  /// connection; above 1 only when callers actually pipeline.
  std::uint64_t max_inflight = 0;
  std::uint64_t completion_errors = 0;  ///< completions that threw
};

class MuxFrameClient {
 public:
  MuxFrameClient(std::string host, std::uint16_t port,
                 FrameClientConfig config = {});
  ~MuxFrameClient();

  MuxFrameClient(const MuxFrameClient&) = delete;
  MuxFrameClient& operator=(const MuxFrameClient&) = delete;

  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

  /// How an exchange resolves: the peer's reply, or nullopt on connect
  /// failure, connection death, deadline expiry, fast-fail inside the
  /// backoff window, or shutdown. Runs exactly once and never under
  /// the client's lock — on the reader thread for replies, expiries
  /// and read errors, on the writer thread for failed connects and
  /// writes, on the calling thread for a fast-fail, on the shutting-
  /// down thread for whatever is still outstanding. It may call back
  /// into the client (stats(), call_async()) but must not block on
  /// one of its replies: the reader that would deliver it is running
  /// the completion.
  using Completion = std::function<void(std::optional<Frame>)>;

  /// Enqueues one exchange resolved through `done`. Never blocks on
  /// IO. The deadline is config.reply_timeout_seconds.
  void call_async(Frame request, Completion done);

  /// Same with an explicit per-request deadline (seconds from now;
  /// <= 0 expires immediately, +inf never).
  void call_async(Frame request, double deadline_seconds, Completion done);

  /// call_async() whose completion fulfils the returned future.
  std::future<std::optional<Frame>> call_async(Frame request);
  std::future<std::optional<Frame>> call_async(Frame request,
                                               double deadline_seconds);

  /// Blocking convenience: call_async + get. Many threads may call
  /// concurrently; their exchanges share the connection in flight.
  std::optional<Frame> call(const Frame& request);

  /// True while calls would fail fast (inside the backoff window).
  /// Never waits behind in-flight IO.
  bool suspect() const;

  FrameClientStats stats() const;

  /// Replies that matched no outstanding id (late arrivals after a
  /// deadline expiry, or a confused peer); dropped, connection kept.
  std::uint64_t unknown_replies() const;

  /// Drops the connection, failing all outstanding exchanges, and
  /// clears the backoff (next call reconnects immediately).
  void reset();

  /// Fails every outstanding exchange (their completions have run when
  /// this returns) and joins the client's threads; later calls fail
  /// fast. Idempotent; the destructor calls it. An owner whose
  /// completions touch its own members calls it before those members
  /// die. Not from a completion.
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Frame frame;
    Completion done;
    Clock::time_point deadline;
  };

  struct Pending {
    Completion done;
    Clock::time_point deadline;
    Clock::time_point written;
  };

  /// Reader tick: bounds how stale a deadline sweep can be.
  static constexpr double kSweepIntervalSeconds = 0.05;

  void worker_loop();
  void reader_loop(std::shared_ptr<Socket> socket, std::uint64_t generation);

  /// Connect + auth + kPing probe, called unlocked. nullptr on failure,
  /// with `timeout` set when the peer was slow rather than refusing.
  std::shared_ptr<Socket> connect_and_probe(bool& timeout);

  /// Sends the configured auth token on a fresh socket and waits for
  /// the server's kPong; true when no token is configured.
  bool authenticate(Socket& socket);

  /// Runs one completion (caller holds no lock); a throw is counted.
  void complete(Completion& done, std::optional<Frame> reply);
  /// Resolves every collected completion with nullopt, then clears.
  void fail_all(std::vector<Completion>& failed);

  /// All *_locked helpers require mutex_; those taking `failed` move
  /// the completions they resolve into it, for the caller to run with
  /// fail_all() once the lock is released.
  void fail_connection_locked(std::uint64_t generation, bool timeout,
                              std::vector<Completion>& failed);
  void fail_queue_locked(bool fast, std::vector<Completion>& failed);
  void arm_backoff_locked(bool timeout);
  void update_depth_locked();
  void sweep_deadlines_locked(std::uint64_t generation,
                              std::vector<Completion>& failed);

  const std::string host_;
  const std::uint16_t port_;
  const FrameClientConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  Clock::time_point soonest_deadline_ = Clock::time_point::max();
  std::uint64_t next_id_ = 1;
  std::uint64_t generation_ = 0;  ///< bumped on every connection death
  bool stop_ = false;
  std::shared_ptr<Socket> conn_;  ///< null while disconnected
  Clock::time_point last_rx_{};   ///< last inbound frame on conn_
  double backoff_seconds_ = 0.0;
  Clock::time_point next_attempt_{};
  std::uint64_t jitter_state_;  ///< advanced per armed backoff window
  /// High-water mark of queue_ + pending_ (FrameClientStats::max_inflight).
  std::uint64_t max_inflight_ = 0;

  /// Used when config.metrics is null.
  obs::Registry own_metrics_;
  obs::Registry& metrics_;  ///< config.metrics, or own_metrics_
  /// The counters behind stats() and unknown_replies(), resolved once.
  obs::Counter& calls_counter_;
  obs::Counter& failures_counter_;
  obs::Counter& connects_counter_;
  obs::Counter& fast_failures_counter_;
  obs::Counter& suspects_counter_;
  obs::Counter& timeouts_counter_;
  obs::Counter& unknown_replies_counter_;
  obs::Counter& completion_errors_counter_;
  obs::Gauge& inflight_gauge_;
  obs::Histogram& depth_histogram_;

  std::thread worker_;
  std::thread reader_;  ///< joined by the worker between connections
};

}  // namespace prts::net
