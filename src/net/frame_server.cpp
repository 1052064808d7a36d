#include "net/frame_server.hpp"

#include <sys/socket.h>

#include <string>
#include <utility>

namespace prts::net {

std::unique_ptr<FrameServer> FrameServer::start(std::uint16_t port,
                                                FrameHandler handler,
                                                ThreadPool& pool,
                                                std::size_t max_payload,
                                                obs::Registry* metrics,
                                                obs::Watchdog* watchdog,
                                                obs::Profiler* profiler,
                                                std::string auth_token) {
  auto listener = Listener::open(port);
  if (!listener) return nullptr;
  return std::unique_ptr<FrameServer>(
      new FrameServer(std::move(*listener), std::move(handler), pool,
                      max_payload, metrics, watchdog, profiler,
                      std::move(auth_token)));
}

FrameServer::FrameServer(Listener listener, FrameHandler handler,
                         ThreadPool& pool, std::size_t max_payload,
                         obs::Registry* metrics, obs::Watchdog* watchdog,
                         obs::Profiler* profiler, std::string auth_token)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      pool_(pool),
      max_payload_(max_payload),
      auth_token_(std::move(auth_token)),
      core_(std::make_shared<Core>(this)),
      metrics_(metrics ? *metrics : own_metrics_),
      connections_counter_(metrics_.counter("net_server_connections_total")),
      frames_counter_(metrics_.counter("net_server_frames_total")),
      protocol_errors_counter_(
          metrics_.counter("net_server_protocol_errors_total")),
      auth_failures_counter_(
          metrics_.counter("net_server_auth_failures_total")),
      heartbeat_((watchdog ? *watchdog : own_watchdog_)
                     .component("frame_server")),
      handler_component_(
          (profiler ? *profiler : own_profiler_).component("frame_handler")),
      accept_thread_([this] { accept_loop(); }) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::accept_loop() {
  while (!stopping_.load()) {
    auto accepted = listener_.accept();
    if (!accepted) break;  // listener closed
    reap_finished();
    auto connection =
        std::make_shared<Connection>(std::move(*accepted), core_);
    heartbeat_.beat();
    const int fd = connection->socket.fd();
    {
      // Register before the reader thread exists: stop() must be able
      // to wake this connection even if the thread has not started yet.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load()) break;
      connections_counter_.add();
      open_fds_.insert(fd);
      const std::uint64_t conn_id = next_conn_id_++;
      connections_.emplace(
          conn_id, std::thread([this, conn_id, connection] {
            serve_connection(conn_id, connection);
          }));
    }
  }
}

void FrameServer::reap_finished() {
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t conn_id : finished_) {
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;
      done.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& thread : done) {
    if (thread.joinable()) thread.join();
  }
}

template <typename Body>
void FrameServer::run(Responder& respond, Body&& body) {
  const obs::ScopedSample handler_sample;
  try {
    body(respond);
  } catch (const std::exception& error) {
    // A throwing handler must not kill the connection's bookkeeping —
    // answer with an error frame and close.
    Frame failure;
    failure.type = FrameType::kError;
    failure.payload = std::string("handler error: ") + error.what();
    if (respond.connection_) respond.finish(&failure, /*close=*/true);
    return;
  } catch (...) {
    if (respond.connection_) respond.finish(nullptr, /*close=*/true);
    return;
  }
  obs::Profiler::record(handler_component_, handler_sample.finish());
}

void FrameServer::serve_connection(std::uint64_t conn_id,
                                   std::shared_ptr<Connection> connection) {
  Socket& socket = connection->socket;
  const int fd = socket.fd();
  const auto write_reply = [&](const Frame& reply) {
    const std::lock_guard<std::mutex> write_lock(connection->write_mutex);
    return write_frame(socket, reply);
  };
  bool authed = auth_token_.empty();
  while (!stopping_.load()) {
    Frame request;
    const FrameReadStatus status = read_frame(socket, request, max_payload_);
    if (status == FrameReadStatus::kOk) {
      frames_counter_.add();
      if (request.type == FrameType::kAuth || !authed) {
        // The auth gate runs before the handler ever sees a frame.
        // kAuth on an open (or already-authed) server is answered
        // benignly, so a token-configured client can talk to a
        // token-free server.
        Frame reply;
        reply.request_id = request.request_id;
        if (request.type == FrameType::kAuth &&
            (authed || request.payload == auth_token_)) {
          authed = true;
          reply.type = FrameType::kPong;
          if (!write_reply(reply)) break;
          continue;
        }
        auth_failures_counter_.add();
        reply.type = FrameType::kError;
        reply.payload = "authentication required";
        write_reply(reply);
        break;
      }
      // The handler answers here or defers to the pool, and the loop
      // reads on. A responder dropped unanswered, or a failed write,
      // shuts the socket down, which ends this loop's next read.
      Responder respond(*this, connection, request.request_id);
      run(respond,
          [&](Responder& live) { handler_(std::move(request), live); });
      continue;
    }
    if (status == FrameReadStatus::kBadMagic ||
        status == FrameReadStatus::kBadVersion ||
        status == FrameReadStatus::kOversized ||
        status == FrameReadStatus::kTruncated) {
      protocol_errors_counter_.add();
      if (status != FrameReadStatus::kTruncated) {
        Frame error;
        error.type = FrameType::kError;
        error.payload = status == FrameReadStatus::kBadMagic ? "bad magic"
                        : status == FrameReadStatus::kBadVersion
                            ? "unsupported protocol version"
                            : "payload too large";
        write_reply(error);
      }
    }
    break;  // framing lost or peer gone: close
  }
  {
    // Deregister while the socket is still open, so stop() can never
    // shut down a descriptor that has already been recycled. Deferred
    // frames hold their own reference to the connection; their writes
    // fail harmlessly once the peer is gone.
    const std::lock_guard<std::mutex> lock(mutex_);
    open_fds_.erase(fd);
    finished_.push_back(conn_id);
    drained_cv_.notify_all();
  }
}

void FrameServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake accept() without touching the descriptor it is reading, join
  // the accept thread, and only then release the descriptor: closing
  // under a blocked accept() races on the fd and lets a later open()
  // reuse the number.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::unique_lock<std::mutex> lock(mutex_);
  for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  drained_cv_.wait(lock, [this] { return open_fds_.empty(); });
  std::vector<std::thread> remaining;
  remaining.reserve(connections_.size());
  for (auto& [conn_id, thread] : connections_) {
    remaining.push_back(std::move(thread));
  }
  connections_.clear();
  finished_.clear();
  lock.unlock();
  for (std::thread& thread : remaining) {
    if (thread.joinable()) thread.join();
  }
  // No reader reads any more; the deferred tasks are all that may still
  // be using the server. From here on an answer writes nothing, so a
  // responder some solve still holds never reaches the server again.
  std::unique_lock<std::mutex> core_lock(core_->mutex);
  core_->server = nullptr;
  core_->drained_cv.wait(core_lock, [this] { return core_->deferred == 0; });
  core_lock.unlock();
  // Frames still held elsewhere are no longer this server's load.
  heartbeat_.set_load(0);
}

FrameServerStats FrameServer::stats() const {
  FrameServerStats out;
  out.connections = connections_counter_.value();
  out.frames = frames_counter_.value();
  out.protocol_errors = protocol_errors_counter_.value();
  out.auth_failures = auth_failures_counter_.value();
  return out;
}

Responder::Responder(FrameServer& server,
                     std::shared_ptr<FrameServer::Connection> connection,
                     std::uint64_t request_id)
    : connection_(std::move(connection)), request_id_(request_id) {
  server.heartbeat_.add_load(1);
}

Responder::Responder(Responder&& other) noexcept
    : connection_(std::move(other.connection_)),
      request_id_(other.request_id_) {}

Responder::~Responder() {
  if (connection_) finish(nullptr, /*close=*/true);
}

void Responder::send(Frame reply) {
  if (connection_) finish(&reply, /*close=*/false);
}

void Responder::defer(std::function<void(Responder&)> task) {
  if (!connection_) return;
  const std::shared_ptr<FrameServer::Core> core = connection_->core;
  FrameServer* server = nullptr;
  {
    const std::lock_guard<std::mutex> lock(core->mutex);
    server = core->server;
    if (server != nullptr) ++core->deferred;
  }
  if (server == nullptr) {
    connection_.reset();  // stopped: dropped unanswered, nothing written
    return;
  }
  // The pool's tasks are copyable functions, so the responder rides in
  // a shared slot. It dies after run() is done with the server — unless
  // the task moved it on — and the drain count drops last.
  auto owned = std::make_shared<Responder>(std::move(*this));
  server->pool_.submit([server, core, owned, task = std::move(task)]() mutable {
    server->run(*owned, task);
    owned.reset();
    const std::lock_guard<std::mutex> lock(core->mutex);
    if (--core->deferred == 0) core->drained_cv.notify_all();
  });
}

void Responder::finish(Frame* reply, bool close) {
  const std::shared_ptr<FrameServer::Connection> connection =
      std::move(connection_);  // not live from here on
  {
    FrameServer::Core& core = *connection->core;
    const std::lock_guard<std::mutex> lock(core.mutex);
    if (core.server == nullptr) return;  // stopped: write nothing
    core.server->heartbeat_.add_load(-1);
    core.server->heartbeat_.beat();
  }
  if (reply) {
    reply->request_id = request_id_;
    const std::lock_guard<std::mutex> write_lock(connection->write_mutex);
    close = !write_frame(connection->socket, *reply) || close;
  }
  if (close) connection->socket.shutdown();
}

}  // namespace prts::net
