// Thin POSIX socket helpers shared by the network plane: an owning fd
// wrapper plus the bind/listen/nonblocking plumbing. Nothing here knows
// about HTTP or frames — protocol logic lives in http.h / frame.h,
// connection lifecycle in server.h.
#ifndef TEMPSPEC_NET_SOCKET_H_
#define TEMPSPEC_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/result.h"

namespace tempspec {

/// \brief Owning file descriptor: closes on destruction, move-only. A
/// default-constructed or moved-from instance holds -1 and closes nothing.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// \brief Relinquishes ownership without closing.
  int Release() { return std::exchange(fd_, -1); }

  /// \brief Closes the held fd (if any) and holds -1 afterwards.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// \brief Creates a non-blocking IPv4 listening socket bound to
/// `bind_address:port` (port 0 picks an ephemeral port; read it back with
/// LocalPort). SO_REUSEADDR is set so restarts do not wait out TIME_WAIT.
Result<OwnedFd> ListenTcp(const std::string& bind_address, uint16_t port,
                          int backlog);

/// \brief The locally bound port of a socket (resolves port 0 after bind).
Result<uint16_t> LocalPort(int fd);

/// \brief Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// \brief Disables Nagle's algorithm (TCP_NODELAY) — request/response
/// protocols want the reply on the wire immediately.
void SetNoDelay(int fd);

}  // namespace tempspec

#endif  // TEMPSPEC_NET_SOCKET_H_
