#include "pipe_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "net/socket.h"

namespace perfbench {

namespace {

int Dial(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  tempspec::SetNoDelay(fd);
  return fd;
}

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Classifies a TSP1 reply frame into the QueryClient taxonomy.
tempspec::WireReply ClassifyFrame(const tempspec::Frame& frame) {
  using tempspec::WireOutcome;
  tempspec::WireReply reply;
  reply.body = frame.payload;
  switch (frame.type) {
    case tempspec::FrameType::kResult:
      reply.outcome = WireOutcome::kOk;
      break;
    case tempspec::FrameType::kRejected:
      reply.outcome = WireOutcome::kRejected;
      break;
    case tempspec::FrameType::kError:
      if (StartsWith(frame.payload, "Deadline exceeded")) {
        reply.outcome = WireOutcome::kDeadline;
      } else if (StartsWith(frame.payload, "Invalid argument") ||
                 StartsWith(frame.payload, "Constraint violation") ||
                 StartsWith(frame.payload, "Not found")) {
        reply.outcome = WireOutcome::kClientError;
      } else {
        reply.outcome = WireOutcome::kServerError;
      }
      break;
    default:
      reply.outcome = WireOutcome::kServerError;
      break;
  }
  return reply;
}

}  // namespace

PipeClient::~PipeClient() { Close(); }

bool PipeClient::Connect(uint16_t port) {
  Close();
  fd_ = Dial(port);
  if (fd_ < 0) return false;
  return tempspec::SetNonBlocking(fd_).ok();
}

void PipeClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_.clear();
  out_off_ = 0;
  tags_.clear();
  decoder_ = tempspec::FrameDecoder(64 * 1024 * 1024);
}

void PipeClient::Send(const std::string& statement, uint64_t tag,
                      uint64_t trace_hi, uint64_t trace_lo) {
  tempspec::Frame frame;
  frame.type = tempspec::FrameType::kQuery;
  frame.payload = statement;
  if (trace_hi != 0 || trace_lo != 0) {
    frame.flags |= tempspec::kFrameFlagTrace;
    frame.trace_hi = trace_hi;
    frame.trace_lo = trace_lo;
    frame.span_id = ++span_;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  tempspec::EncodeFrame(frame, &out_);
  tags_.push_back(tag);
}

bool PipeClient::Pump(int64_t timeout_us, std::vector<PipeReply>* out) {
  if (fd_ < 0) return false;
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN | (out_off_ < out_.size() ? POLLOUT : 0);
  // ppoll, not poll: the open-loop schedule needs sub-millisecond waits.
  timespec wait{};
  wait.tv_sec = std::max<int64_t>(timeout_us, 0) / 1000000;
  wait.tv_nsec = (std::max<int64_t>(timeout_us, 0) % 1000000) * 1000;
  const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;
  if (pfd.revents & (POLLERR | POLLNVAL)) return false;
  if ((pfd.revents & POLLOUT) && out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (n > 0) out_off_ += static_cast<size_t>(n);
  }
  if (pfd.revents & (POLLIN | POLLHUP)) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      decoder_.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) return false;
      if (!next.ValueOrDie().has_value()) break;
      if (tags_.empty()) return false;  // a reply nobody asked for
      PipeReply reply;
      reply.tag = tags_.front();
      tags_.pop_front();
      reply.reply = ClassifyFrame(*next.ValueOrDie());
      out->push_back(std::move(reply));
    }
  }
  return true;
}

double PingRttMicros(uint16_t port, int count) {
  const int fd = Dial(port);
  if (fd < 0) return -1;
  std::string ping;
  tempspec::Frame frame;
  frame.type = tempspec::FrameType::kPing;
  tempspec::EncodeFrame(frame, &ping);
  tempspec::FrameDecoder decoder;
  std::vector<double> rtts;
  char buf[4096];
  for (int i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(ping.size())) {
      break;
    }
    bool got = false;
    while (!got) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed(buf, static_cast<size_t>(n));
      auto next = decoder.Next();
      if (!next.ok()) break;
      got = next.ValueOrDie().has_value() &&
            next.ValueOrDie()->type == tempspec::FrameType::kPong;
    }
    if (!got) break;
    rtts.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  ::close(fd);
  if (rtts.size() != static_cast<size_t>(count)) return -1;
  std::nth_element(rtts.begin(), rtts.begin() + count / 2, rtts.end());
  return rtts[static_cast<size_t>(count / 2)];
}

}  // namespace perfbench
