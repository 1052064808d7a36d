// The fabric's listening side: one accept thread hands each connection
// to a dedicated reader thread, which reads a frame and hands it, with
// a one-shot Responder, to the handler — on the reader thread itself.
// A handler answers a cheap frame there and then (the reply is written
// under the connection's write mutex before the next frame is read),
// and moves anything that parses, blocks or waits onto the server's
// pool with Responder::defer, whose task answers whenever it finishes,
// out of order with its neighbours: replies carry the request id. So
// one connection carries many concurrent solves, and a slow one never
// blocks the pings and key-first hits behind it.
//
// Robustness contract (exercised by tests/test_net.cpp): malformed
// magic, version mismatch and oversized length fields are answered with
// one kError frame and a close — never a crash, never a hang, and the
// server keeps accepting new connections. Truncated frames and
// mid-stream disconnects just close the connection.
//
// The pool runs deferred frames only, and a deferred task holds its
// thread only while it works: a handler that waits for something (a
// solve) hands its responder to whatever will answer, and the task
// ends. So size the pool for the parsing, scrapes and membership
// traffic running at once, not for the remote misses in flight or the
// number of peer links (idle connections cost a parked reader thread,
// not a pool slot).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

namespace prts::net {

class Responder;

/// Answers one request frame through `respond` (see Responder), on the
/// connection's reader thread; must be thread-safe across connections.
/// The reader reads nothing else until it returns, so a handler answers
/// only what it can answer at once and defers the rest. A handler that
/// throws gets its frame answered with kError "handler error: <what>"
/// and the connection closed.
using FrameHandler = std::function<void(Frame request, Responder& respond)>;

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
  /// Binds `port` (0 = ephemeral) and starts the accept thread;
  /// deferred frames run on `pool`. nullptr when the port cannot be
  /// bound. The server counts into `metrics` (net_server_*_total),
  /// registers a "frame_server" heartbeat with `watchdog` (load tracks
  /// frames not yet answered, beats mark accepts and answered frames —
  /// a handler wedged on a dead peer shows up as a stall) and samples
  /// every handler call and deferred task into `profiler`'s
  /// "frame_handler" component (cpu/wall/alloc attribution of peer
  /// traffic). Each must outlive the server;
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
  /// for the work it can bound: the connection loops and the deferred
  /// tasks on the pool. A responder still held elsewhere (by a solve
  /// that has not finished) is not waited for: answered or destroyed
  /// after stop() returns, it writes nothing and touches nothing of the
  /// server. Idempotent.
  void stop();

  /// Relaxed reads of the registry counters; takes no lock.
  FrameServerStats stats() const;

 private:
  friend class Responder;

  /// What a responder may still reach once the server is gone: the
  /// server while it serves, and the drain count of deferred tasks.
  struct Core {
    explicit Core(FrameServer* serving) : server(serving) {}
    std::mutex mutex;
    std::condition_variable drained_cv;
    /// Null once stop() has stopped serving: an answer writes nothing.
    FrameServer* server;
    std::size_t deferred = 0;  ///< deferred tasks queued or running
  };

  /// One accepted connection: its socket, the mutex every reply on it
  /// is written under, and the server's core.
  struct Connection {
    Connection(Socket accepted, std::shared_ptr<Core> server_core)
        : socket(std::move(accepted)), core(std::move(server_core)) {}
    Socket socket;
    std::mutex write_mutex;
    const std::shared_ptr<Core> core;
  };

  FrameServer(Listener listener, FrameHandler handler, ThreadPool& pool,
              std::size_t max_payload, obs::Registry* metrics,
              obs::Watchdog* watchdog, obs::Profiler* profiler,
              std::string auth_token);

  void accept_loop();
  void serve_connection(std::uint64_t conn_id,
                        std::shared_ptr<Connection> connection);

  /// Runs `body(respond)` as one sampled handler step; a throw answers
  /// `respond`, if still unanswered, with kError and closes the
  /// connection.
  template <typename Body>
  void run(Responder& respond, Body&& body);

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
  const std::shared_ptr<Core> core_;
  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;  ///< a connection loop ended
  std::unordered_set<int> open_fds_;  ///< live connection descriptors
  std::uint64_t next_conn_id_ = 0;
  std::unordered_map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;  ///< conn ids ready to join
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

/// The one answer a request frame gets. The server hands the handler a
/// live responder; the handler answers with send() on the reader
/// thread, or moves the responder into a pool task with defer() and
/// answers there, or moves it on from that task to whatever answers
/// later. Each frame is answered at most once: a responder is live
/// until it sends, defers or dies. One that dies live closes the
/// connection without a reply (a deliberate peer-death simulation: the
/// other exchanges in flight on that connection abort too). Once the
/// server has stopped, a responder writes nothing. Move-only.
class Responder {
 public:
  Responder(Responder&& other) noexcept;
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;
  Responder& operator=(Responder&&) = delete;
  ~Responder();

  /// Writes `reply` carrying the request's id, under the connection's
  /// write mutex (a failed write closes the connection). Ignored once
  /// the responder is no longer live.
  void send(Frame reply);

  /// Moves this responder into `task`, run on the server's pool (on
  /// the calling thread once the pool is shutting down); this one is
  /// left empty. `task` answers through the responder it is given,
  /// under the same rules as a handler, a throw included. Dropped
  /// unanswered once the server has stopped.
  void defer(std::function<void(Responder&)> task);

 private:
  friend class FrameServer;

  Responder(FrameServer& server,
            std::shared_ptr<FrameServer::Connection> connection,
            std::uint64_t request_id);

  /// Writes `reply`, when given, with the request's id, and shuts the
  /// connection down when `close` (or when the write fails); the frame
  /// is answered. Does nothing once the server has stopped.
  void finish(Frame* reply, bool close);

  std::shared_ptr<FrameServer::Connection> connection_;  ///< null once done
  std::uint64_t request_id_;
};

}  // namespace prts::net
