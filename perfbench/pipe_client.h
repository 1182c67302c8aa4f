// Pipelined TSP1 connection for the benchmark's open-loop generator.
//
// QueryClient (net/client.h) is blocking: one statement, one reply. An
// open-loop generator must send on schedule whatever the replies are doing,
// so this connection queues encoded frames, writes them as the socket
// accepts them, and hands back replies in send order (the server answers a
// connection's statements one at a time, in order). Single-threaded: the
// owning thread calls Send and Pump.
#ifndef TEMPSPEC_PERFBENCH_PIPE_CLIENT_H_
#define TEMPSPEC_PERFBENCH_PIPE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/frame.h"

namespace perfbench {

struct PipeReply {
  uint64_t tag = 0;  // the caller's tag from Send
  tempspec::WireReply reply;
};

class PipeClient {
 public:
  PipeClient() = default;
  ~PipeClient();
  PipeClient(const PipeClient&) = delete;
  PipeClient& operator=(const PipeClient&) = delete;

  bool Connect(uint16_t port);
  void Close();

  /// \brief Queues one kQuery frame; with `trace_hi`/`trace_lo` nonzero the
  /// frame carries that wire trace id.
  void Send(const std::string& statement, uint64_t tag, uint64_t trace_hi = 0,
            uint64_t trace_lo = 0);

  /// \brief Writes pending bytes and reads replies, waiting at most
  /// `timeout_us` for the socket. Appends completed replies to `out`.
  /// False when the connection failed (outstanding requests are lost).
  bool Pump(int64_t timeout_us, std::vector<PipeReply>* out);

  size_t outstanding() const { return tags_.size(); }

 private:
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  tempspec::FrameDecoder decoder_{64 * 1024 * 1024};
  std::deque<uint64_t> tags_;
  uint64_t span_ = 0;
};

/// \brief Median round trip, in microseconds, of `count` raw kPing frames on
/// a fresh connection; negative on failure.
double PingRttMicros(uint16_t port, int count);

}  // namespace perfbench

#endif  // TEMPSPEC_PERFBENCH_PIPE_CLIENT_H_
