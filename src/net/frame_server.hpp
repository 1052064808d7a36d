// The fabric's listening side: one accept thread hands each connection
// to a dedicated reader thread, which dispatches every frame to the
// caller-supplied ThreadPool and keeps reading. Replies carry the
// request id and are written under a per-connection write mutex
// whenever they finish — so one connection carries many concurrent
// solves and a slow one never blocks the pings, gossip pushes and
// scrapes behind it.
//
// Robustness contract (exercised by tests/test_net.cpp): malformed
// magic, version mismatch and oversized length fields are answered with
// one kError frame and a close — never a crash, never a hang, and the
// server keeps accepting new connections. Truncated frames and
// mid-stream disconnects just close the connection.
//
// The pool is the handler executor: size it for the desired number of
// concurrently-running handlers, not for the number of peer links
// (idle connections cost a parked reader thread, not a pool slot).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

namespace prts::net {

/// Answers one request frame; nullopt closes the connection without a
/// reply (this also aborts the other in-flight exchanges on that
/// connection — a deliberate peer-death simulation). Runs on a pool
/// thread; must be thread-safe across connections and across
/// concurrent frames of ONE connection.
using FrameHandler = std::function<std::optional<Frame>(const Frame&)>;

/// A snapshot of the server's registry counters (FrameServer::stats):
/// field <f> is stored in net_server_<f>_total.
struct FrameServerStats {
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;           ///< well-formed frames handled
  std::uint64_t protocol_errors = 0;  ///< bad magic/version/length
  std::uint64_t auth_failures = 0;    ///< wrong token / missing handshake
};

class FrameServer {
 public:
  /// Binds `port` (0 = ephemeral) and starts the accept thread.
  /// nullptr when the port cannot be bound. The server counts into
  /// `metrics` (net_server_*_total), registers a "frame_server"
  /// heartbeat with `watchdog` (load tracks frames currently inside the
  /// handler, beats mark accepts and handled frames — a handler wedged
  /// on a dead peer shows up as a stall) and samples every handler
  /// invocation into `profiler`'s "frame_handler" component (cpu/wall/
  /// alloc attribution of peer traffic). Each must outlive the server;
  /// a null one is replaced by a private one nobody reads. When
  /// `auth_token` is non-empty every connection must present it in a
  /// kAuth frame before anything else: any other first frame (or a
  /// wrong token) is answered with kError, counted in
  /// net_server_auth_failures_total, and the connection is closed.
  static std::unique_ptr<FrameServer> start(
      std::uint16_t port, FrameHandler handler, ThreadPool& pool,
      std::size_t max_payload = kDefaultMaxPayload,
      obs::Registry* metrics = nullptr,
      obs::Watchdog* watchdog = nullptr,
      obs::Profiler* profiler = nullptr,
      std::string auth_token = {});

  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (resolves an ephemeral bind).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Stops accepting, wakes every connection's blocked read, and waits
  /// for connection loops and in-flight handlers to drain. Idempotent.
  void stop();

  /// Relaxed reads of the registry counters; takes no lock.
  FrameServerStats stats() const;

 private:
  FrameServer(Listener listener, FrameHandler handler, ThreadPool& pool,
              std::size_t max_payload, obs::Registry* metrics,
              obs::Watchdog* watchdog, obs::Profiler* profiler,
              std::string auth_token);

  void accept_loop();
  void serve_connection(std::uint64_t conn_id,
                        std::shared_ptr<Socket> socket_ptr);

  /// Runs the handler for one frame and writes the reply (request id
  /// echoed from the request, write serialized on `write_mutex`).
  /// False when the connection must close.
  bool handle_frame(const Frame& request, Socket& socket,
                    std::mutex& write_mutex);

  void begin_handler();
  void end_handler();

  /// Joins reader threads whose connections have finished; called from
  /// the accept loop so a long-lived server does not accumulate dead
  /// thread handles.
  void reap_finished();

  Listener listener_;
  FrameHandler handler_;
  ThreadPool& pool_;
  const std::size_t max_payload_;
  const std::string auth_token_;  ///< empty = authentication off

  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::unordered_set<int> open_fds_;  ///< live connection descriptors
  std::uint64_t next_conn_id_ = 0;
  std::unordered_map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;  ///< conn ids ready to join
  std::size_t pending_handlers_ = 0;     ///< handlers in the pool
  /// Used in place of whichever of the three start() was not given.
  obs::Registry own_metrics_;
  obs::Watchdog own_watchdog_{own_metrics_};
  obs::Profiler own_profiler_{own_metrics_};
  obs::Registry& metrics_;  ///< start()'s registry, or own_metrics_
  /// FrameServerStats' only store, resolved once at construction.
  obs::Counter& connections_counter_;
  obs::Counter& frames_counter_;
  obs::Counter& protocol_errors_counter_;
  obs::Counter& auth_failures_counter_;
  obs::Heartbeat& heartbeat_;  ///< "frame_server" liveness handle
  obs::Profiler::Component& handler_component_;  ///< "frame_handler"
  std::thread accept_thread_;
};

}  // namespace prts::net
