#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

namespace prts::net {
namespace {

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Socket::set_receive_timeout(double seconds) noexcept {
  if (fd_ < 0) return false;
  struct timeval tv {};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - std::floor(seconds)) * 1e6);
  }
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool Socket::send_all(const void* data, std::size_t size) noexcept {
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a reset peer must yield an error, not SIGPIPE.
    const ssize_t sent = ::send(fd_, bytes, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool Socket::recv_all(void* data, std::size_t size) noexcept {
  return recv_exact(data, size) == RecvStatus::kOk;
}

Socket::RecvStatus Socket::recv_exact(void* data, std::size_t size) noexcept {
  char* bytes = static_cast<char*>(data);
  while (size > 0) {
    std::size_t got = 0;
    const RecvStatus status = recv_some_status(bytes, size, got);
    if (status != RecvStatus::kOk) return status;
    bytes += got;
    size -= got;
  }
  return RecvStatus::kOk;
}

bool Socket::recv_some(void* data, std::size_t capacity,
                       std::size_t& got) noexcept {
  return recv_some_status(data, capacity, got) == RecvStatus::kOk;
}

Socket::RecvStatus Socket::recv_some_status(void* data, std::size_t capacity,
                                            std::size_t& got) noexcept {
  got = 0;
  for (;;) {
    const ssize_t received = ::recv(fd_, data, capacity, 0);
    if (received > 0) {
      got = static_cast<std::size_t>(received);
      return RecvStatus::kOk;
    }
    if (received == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kTimeout;
    return RecvStatus::kError;
  }
}

std::optional<Socket> tcp_connect(const std::string& host,
                                  std::uint16_t port,
                                  double timeout_seconds) {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &results) != 0) {
    return std::nullopt;
  }

  Socket connected;
  for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    Socket candidate(fd);

    // Non-blocking connect bounded by poll: a dead host must cost
    // timeout_seconds, not the kernel's minutes-long SYN retry budget.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    bool ok = rc == 0;
    if (!ok && errno == EINPROGRESS) {
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int timeout_ms =
          timeout_seconds > 0.0
              ? static_cast<int>(timeout_seconds * 1000.0)
              : -1;
      if (::poll(&pfd, 1, timeout_ms) == 1) {
        int error = 0;
        socklen_t len = sizeof(error);
        ok = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) == 0 &&
             error == 0;
      }
    }
    if (!ok) continue;
    ::fcntl(fd, F_SETFL, flags);
    set_nodelay(fd);
    connected = std::move(candidate);
    break;
  }
  ::freeaddrinfo(results);
  if (!connected.valid()) return std::nullopt;
  return connected;
}

std::optional<Listener> Listener::open(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  Socket socket(fd);

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    return std::nullopt;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    return std::nullopt;
  }

  Listener listener;
  listener.socket_ = std::move(socket);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<Socket> Listener::accept() noexcept {
  for (;;) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // listener closed or fatal error
  }
}

void Listener::shutdown() noexcept {
  // On Linux, close() alone does not reliably wake a thread blocked in
  // accept() on the same descriptor; shutdown() does.
  socket_.shutdown();
}

void Listener::close() noexcept {
  socket_.shutdown();
  socket_.close();
}

}  // namespace prts::net
