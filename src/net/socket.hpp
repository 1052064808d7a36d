// Minimal POSIX TCP wrappers for the solve fabric (the lowest layer of
// src/net/): an RAII socket with all-or-nothing send and timeout-aware
// receive, a connect-with-timeout helper, and a listening socket whose
// accept loop can be woken from another thread.
//
// Deliberately dependency-free (raw sockets, no event loop, no external
// library): the fabric's connections are few and long-lived — one peer
// link per remote shard — so blocking IO on pool threads is the right
// complexity level, matching the blocking batch workers of
// src/service/engine.*.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace prts::net {

/// RAII wrapper around a connected TCP socket file descriptor.
/// Move-only; closing is idempotent. IO helpers never throw and never
/// raise SIGPIPE — failures (peer reset, timeout, EOF) surface as
/// `false` so callers treat every degradation uniformly.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  void close() noexcept;

  /// Wakes any thread blocked in recv/send on this socket (they fail),
  /// without releasing the descriptor — safe to call concurrently.
  void shutdown() noexcept;

  /// Blocking receive timeout for subsequent recv calls; <= 0 blocks
  /// forever. False when the option cannot be set.
  bool set_receive_timeout(double seconds) noexcept;

  /// Sends the whole buffer (looping over partial writes); false on any
  /// error. Retries EINTR.
  bool send_all(const void* data, std::size_t size) noexcept;

  /// Why a receive stopped short: a receive *timeout* (the peer is slow
  /// or wedged, but the connection may well be alive) is a different
  /// verdict from EOF or a hard error — the frame layer backs the two
  /// off differently.
  enum class RecvStatus {
    kOk,       ///< the requested bytes arrived
    kClosed,   ///< orderly EOF
    kTimeout,  ///< SO_RCVTIMEO elapsed (EAGAIN/EWOULDBLOCK)
    kError,    ///< any other socket error (reset, shutdown, ...)
  };

  /// Receives exactly `size` bytes; false on EOF, error or timeout.
  bool recv_all(void* data, std::size_t size) noexcept;

  /// recv_all with the failure reason surfaced.
  RecvStatus recv_exact(void* data, std::size_t size) noexcept;

  /// One recv call: true with got > 0 on data, false on EOF/error.
  bool recv_some(void* data, std::size_t capacity,
                 std::size_t& got) noexcept;

  /// recv_some with the failure reason surfaced (kOk implies got > 0).
  RecvStatus recv_some_status(void* data, std::size_t capacity,
                              std::size_t& got) noexcept;

 private:
  int fd_ = -1;
};

/// Connects to host:port with a bounded connect timeout (name resolution
/// via getaddrinfo, first address that answers wins). nullopt on
/// failure; the result has TCP_NODELAY set (frames are small
/// request/reply exchanges, Nagle only adds latency).
std::optional<Socket> tcp_connect(const std::string& host,
                                  std::uint16_t port,
                                  double timeout_seconds);

/// A listening TCP socket (loopback-or-any bind, SO_REUSEADDR).
/// shutdown() from another thread wakes a blocked accept().
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;

  /// Binds and listens; `port` 0 picks an ephemeral port (see port()).
  /// nullopt when the address is taken or sockets are unavailable.
  static std::optional<Listener> open(std::uint16_t port);

  bool valid() const noexcept { return socket_.valid(); }

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const noexcept { return port_; }

  /// Blocks for one connection; nullopt once the listener was shut
  /// down or closed.
  std::optional<Socket> accept() noexcept;

  /// Stops accepting and wakes blocked accept() calls, keeping the
  /// descriptor: safe while another thread is inside accept().
  void shutdown() noexcept;

  /// Releases the descriptor. Never concurrent with accept(): a thread
  /// blocked on it is woken with shutdown() and joined first, or the
  /// descriptor number could be reused under it.
  void close() noexcept;

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

}  // namespace prts::net
