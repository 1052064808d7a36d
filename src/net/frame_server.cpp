#include "net/frame_server.hpp"

#include <sys/socket.h>

#include <chrono>
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
    auto socket = std::make_shared<Socket>(std::move(*accepted));
    heartbeat_.beat();
    const int fd = socket->fd();
    {
      // Register before the reader thread exists: stop() must be able
      // to wake this connection even if the thread has not started yet.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load()) break;
      connections_counter_.add();
      open_fds_.insert(fd);
      const std::uint64_t conn_id = next_conn_id_++;
      connections_.emplace(
          conn_id, std::thread([this, conn_id, socket] {
            serve_connection(conn_id, socket);
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

void FrameServer::begin_handler() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++pending_handlers_;
}

void FrameServer::end_handler() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --pending_handlers_;
  drained_cv_.notify_all();
}

bool FrameServer::handle_frame(const Frame& request, Socket& socket,
                               std::mutex& write_mutex) {
  // Load brackets the handler call: a frame stuck inside the handler
  // keeps load > 0, so a silent wedge ages into a stall.
  heartbeat_.add_load(1);
  const obs::ScopedSample handler_sample;
  std::optional<Frame> reply;
  try {
    reply = handler_(request);
  } catch (const std::exception& error) {
    // A throwing handler must not kill the connection's bookkeeping —
    // answer with an error frame and close.
    heartbeat_.add_load(-1);
    heartbeat_.beat();
    Frame failure;
    failure.request_id = request.request_id;
    failure.type = FrameType::kError;
    failure.payload = std::string("handler error: ") + error.what();
    const std::lock_guard<std::mutex> write_lock(write_mutex);
    write_frame(socket, failure);
    return false;
  } catch (...) {
    heartbeat_.add_load(-1);
    heartbeat_.beat();
    return false;
  }
  obs::Profiler::record(handler_component_, handler_sample.finish());
  heartbeat_.add_load(-1);
  heartbeat_.beat();
  if (!reply) return false;
  reply->request_id = request.request_id;
  const std::lock_guard<std::mutex> write_lock(write_mutex);
  return write_frame(socket, *reply);
}

void FrameServer::serve_connection(std::uint64_t conn_id,
                                   std::shared_ptr<Socket> socket_ptr) {
  Socket& socket = *socket_ptr;
  const int fd = socket.fd();
  auto write_mutex = std::make_shared<std::mutex>();
  bool authed = auth_token_.empty();
  while (!stopping_.load()) {
    auto request = std::make_shared<Frame>();
    const FrameReadStatus status =
        read_frame(socket, *request, max_payload_);
    if (status == FrameReadStatus::kOk) {
      frames_counter_.add();
      if (request->type == FrameType::kAuth || !authed) {
        // The auth gate runs before the handler ever sees a frame.
        // kAuth on an open (or already-authed) server is answered
        // benignly, so a token-configured client can talk to a
        // token-free server.
        Frame reply;
        reply.request_id = request->request_id;
        if (request->type == FrameType::kAuth &&
            (authed || request->payload == auth_token_)) {
          authed = true;
          reply.type = FrameType::kPong;
          const std::lock_guard<std::mutex> write_lock(*write_mutex);
          if (!write_frame(socket, reply)) break;
          continue;
        }
        auth_failures_counter_.add();
        reply.type = FrameType::kError;
        reply.payload = "authentication required";
        const std::lock_guard<std::mutex> write_lock(*write_mutex);
        write_frame(socket, reply);
        break;
      }
      // Hand the handler to the pool and keep reading — the reply is
      // written (id-correlated) whenever it is ready, out of order
      // with its neighbours. A handler that declines or a failed write
      // shuts the socket down, which kicks this loop out of read_frame.
      begin_handler();
      auto future = pool_.submit([this, request, socket_ptr, write_mutex] {
        if (!handle_frame(*request, *socket_ptr, *write_mutex)) {
          socket_ptr->shutdown();
        }
        end_handler();
      });
      // A shut-down pool destroys the task unrun (exceptional future);
      // degrade to handling the frame on this reader thread.
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        bool rejected = false;
        try {
          future.get();
        } catch (...) {
          rejected = true;
        }
        if (rejected) {
          const bool keep = handle_frame(*request, socket, *write_mutex);
          end_handler();
          if (!keep) break;
        }
      }
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
        const std::lock_guard<std::mutex> write_lock(*write_mutex);
        write_frame(socket, error);
      }
    }
    break;  // framing lost or peer gone: close
  }
  {
    // Deregister while the socket is still open, so stop() can never
    // shut down a descriptor that has already been recycled. In-flight
    // handlers hold their own shared_ptr to the socket; their writes
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
  drained_cv_.wait(lock, [this] {
    return open_fds_.empty() && pending_handlers_ == 0;
  });
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
}

FrameServerStats FrameServer::stats() const {
  FrameServerStats out;
  out.connections = connections_counter_.value();
  out.frames = frames_counter_.value();
  out.protocol_errors = protocol_errors_counter_.value();
  out.auth_failures = auth_failures_counter_.value();
  return out;
}

}  // namespace prts::net
