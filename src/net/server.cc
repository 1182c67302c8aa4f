#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"

namespace tempspec {

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(size_t threads) {
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { Work(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::Work() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain queued work even during shutdown: an admitted statement's
      // completion must reach its connection, never vanish.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// ---------------------------------------------------------------------------
// NetServer

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool WantsKeepAlive(const HttpRequest& request) {
  const std::string* connection = request.FindHeader("Connection");
  if (request.version == "HTTP/1.1") {
    return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
  }
  return connection != nullptr && EqualsIgnoreCase(*connection, "keep-alive");
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// X-Tempspec-Trace: "<32 hex trace id>-<16 hex span id>". False on any
// malformation — the caller falls back to a server-generated id; a bad
// trace header must never fail the request itself.
bool ParseTraceHeader(const std::string& header, uint64_t* hi, uint64_t* lo,
                      uint64_t* span) {
  const std::string_view s(header);
  return s.size() == 49 && s[32] == '-' && ParseHex64(s.substr(0, 16), hi) &&
         ParseHex64(s.substr(16, 16), lo) && ParseHex64(s.substr(33, 16), span);
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(b - a).count()));
}

int StatusToHttpCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kNotImplemented: return 404;
    case StatusCode::kInvalidArgument:
    case StatusCode::kConstraintViolation:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange: return 400;
    default: return 500;
  }
}

constexpr char kTextPlain[] = "text/plain; charset=utf-8";

}  // namespace

struct NetServer::Connection {
  Connection(const HttpLimits& limits, size_t max_frame_payload)
      : http(limits), decoder(max_frame_payload) {}

  OwnedFd fd;
  uint64_t id = 0;
  std::string peer;  // "ip:port" of the remote end, for span/slowlog attrs
  enum class Proto { kUnknown, kHttp, kFrame } proto = Proto::kUnknown;
  std::string inbuf;  // raw bytes ahead of the protocol machinery
  HttpParser http;
  FrameDecoder decoder;
  std::string outbuf;
  size_t out_offset = 0;
  uint32_t interest = kEventReadable;
  bool processing = false;  // one batch on the workers for this conn
  bool reading_paused = false;
  bool close_after_flush = false;
  bool closed = false;
  // The running batch's spans, cancelled on disconnect.
  std::vector<std::shared_ptr<TraceContext>> active_traces;
  // A non-query frame that ended a batch; handled once the batch's replies
  // are out, so replies stay in send order.
  std::optional<Frame> held_frame;
  std::chrono::steady_clock::time_point last_activity;
};

NetServer::NetServer(ServerOptions options) : options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

void NetServer::AddHttpHandler(std::string target, HttpHandler handler) {
  http_handlers_[std::move(target)] = std::move(handler);
}

void NetServer::SetHttpFallback(HttpHandler handler) {
  http_fallback_ = std::move(handler);
}

void NetServer::SetStatementHandler(StatementHandler handler) {
  statement_handler_ = std::move(handler);
}

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running on port ",
                                 bound_port_.load());
  }
  TS_RETURN_NOT_OK(loop_.Init());
  TS_ASSIGN_OR_RETURN(listen_fd_,
                      ListenTcp(options_.bind_address, options_.port,
                                options_.backlog));
  TS_ASSIGN_OR_RETURN(const uint16_t port, LocalPort(listen_fd_.get()));
  TS_RETURN_NOT_OK(loop_.Register(listen_fd_.get(), kEventReadable,
                                  [this](uint32_t) { OnAccept(); }));
  bound_port_.store(port, std::memory_order_release);
  workers_ = std::make_unique<WorkerPool>(
      std::max<size_t>(1, options_.worker_threads));
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] {
    // Pre-Run timer setup happens on the loop thread, honoring the
    // loop-thread-only contract of AddTimer.
    if (options_.idle_timeout_ms > 0) {
      loop_.AddTimer(std::chrono::milliseconds(1000),
                     [this] { SweepIdleConnections(); });
    }
    loop_.Run();
  });
  TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerStart, port, 0, "");
  TS_COUNTER_INC("server.starts");
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Cancel whatever the workers are executing so the drain below is quick.
  loop_.RunInLoop([this] {
    for (auto& [fd, conn] : connections_) {
      for (const auto& trace : conn->active_traces) trace->RequestCancel();
    }
  });
  // Admitted statements finish (cancelled or not) and post their
  // completions; the loop is still alive to run them.
  if (workers_ != nullptr) workers_->Shutdown();
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop thread has exited; connection state is safe to touch here.
  TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerStop,
            accepted_.load(std::memory_order_relaxed), 0, "");
  for (auto& [fd, conn] : connections_) conn->closed = true;
  connections_.clear();
  open_connections_.store(0, std::memory_order_relaxed);
  listen_fd_.Reset();
}

ServerStats NetServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.requests_rejected = rejected_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections_.load(std::memory_order_relaxed);
  stats.inflight = inflight_published_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::OnAccept() {
  while (true) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int cfd = ::accept(listen_fd_.get(),
                             reinterpret_cast<sockaddr*>(&peer_addr),
                             &peer_len);
    if (cfd < 0) break;  // EAGAIN / transient: the loop will call back
    if (connections_.size() >= options_.max_connections) {
      ::close(cfd);
      refused_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_INC("server.connections_refused");
      TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerReject, 0,
                static_cast<int64_t>(connections_.size()), "max_connections");
      continue;
    }
    if (!SetNonBlocking(cfd).ok()) {
      ::close(cfd);
      continue;
    }
    SetNoDelay(cfd);
    auto conn = std::make_shared<Connection>(options_.http_limits,
                                             options_.max_frame_payload_bytes);
    conn->fd.Reset(cfd);
    conn->id = next_connection_id_++;
    if (peer_addr.sin_family == AF_INET) {
      char ip[INET_ADDRSTRLEN] = {};
      if (::inet_ntop(AF_INET, &peer_addr.sin_addr, ip, sizeof(ip)) !=
          nullptr) {
        conn->peer =
            std::string(ip) + ":" + std::to_string(ntohs(peer_addr.sin_port));
      }
    }
    conn->last_activity = std::chrono::steady_clock::now();
    connections_[cfd] = conn;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
    TS_COUNTER_INC("server.connections_accepted");
    TS_GAUGE_SET("server.open_connections",
                 static_cast<int64_t>(connections_.size()));
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerAccept,
              static_cast<int64_t>(conn->id),
              static_cast<int64_t>(connections_.size()), "");
    const Status registered = loop_.Register(
        cfd, kEventReadable,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!registered.ok()) CloseConnection(conn);
  }
}

void NetServer::OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                                  uint32_t events) {
  if (conn->closed) return;
  if (events & kEventError) {
    CloseConnection(conn);
    return;
  }
  if (events & kEventWritable) {
    FlushWrites(conn);
    if (conn->closed) return;
  }
  if (events & kEventReadable) {
    char buf[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        conn->last_activity = std::chrono::steady_clock::now();
        if (n < static_cast<ssize_t>(sizeof(buf))) break;  // drained
        continue;
      }
      if (n == 0) {  // peer closed; cancel whatever it was waiting for
        CloseConnection(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConnection(conn);
      return;
    }
    ProcessInput(conn);
    if (conn->closed) return;
  }
  UpdateInterest(conn);
}

void NetServer::ProcessInput(const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->processing || conn->close_after_flush) return;
  if (conn->proto == Connection::Proto::kUnknown) {
    if (conn->inbuf.size() < 4) return;
    // The TSP1 magic on the wire ("TSP1") is not a prefix of any HTTP
    // method, so 4 bytes decide the protocol unambiguously.
    static const char kMagicBytes[4] = {0x54, 0x53, 0x50, 0x31};
    conn->proto =
        std::memcmp(conn->inbuf.data(), kMagicBytes, 4) == 0
            ? Connection::Proto::kFrame
            : Connection::Proto::kHttp;
  }
  if (conn->proto == Connection::Proto::kHttp) {
    ProcessHttp(conn);
  } else {
    ProcessFrames(conn);
  }
}

void NetServer::ProcessHttp(const std::shared_ptr<Connection>& conn) {
  while (!conn->closed && !conn->processing && !conn->close_after_flush) {
    if (!conn->inbuf.empty()) {
      const size_t consumed =
          conn->http.Feed(conn->inbuf.data(), conn->inbuf.size());
      conn->inbuf.erase(0, consumed);
    }
    if (conn->http.error()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_INC("server.protocol_errors");
      conn->close_after_flush = true;  // before the send: FlushWrites may
                                       // drain fully inside it and close
      SendHttpResponse(conn, conn->http.error_code(), kTextPlain,
                       conn->http.error_reason() + "\n",
                       /*keep_alive=*/false);
      return;
    }
    if (!conn->http.complete()) return;  // wait for more bytes
    RouteHttpRequest(conn);
    if (conn->processing) return;  // parser resets when the statement lands
    if (!conn->closed) conn->http.Reset();
    if (conn->inbuf.empty()) return;
  }
}

void NetServer::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  if (!conn->inbuf.empty()) {
    conn->decoder.Feed(conn->inbuf.data(), conn->inbuf.size());
    conn->inbuf.clear();
  }
  const auto to_statement = [](Frame frame) {
    BatchStatement s;
    s.statement = std::move(frame.payload);
    if (frame.has_deadline()) s.deadline_ms = frame.deadline_millis;
    if (frame.has_trace()) {
      s.wire = {frame.trace_hi, frame.trace_lo, frame.span_id, true};
    }
    return s;
  };
  while (!conn->closed && !conn->processing && !conn->close_after_flush) {
    std::optional<Frame> frame = std::exchange(conn->held_frame, std::nullopt);
    if (!frame.has_value()) {
      Result<std::optional<Frame>> next = conn->decoder.Next();
      if (!next.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        TS_COUNTER_INC("server.protocol_errors");
        Frame error;
        error.type = FrameType::kError;
        error.payload = next.status().ToString();
        conn->close_after_flush = true;
        SendFrame(conn, error);
        return;
      }
      if (!next.ValueOrDie().has_value()) return;  // truncated: need bytes
      frame = std::move(*next.ValueOrDie());
    }
    switch (frame->type) {
      case FrameType::kPing: {
        Frame pong;
        pong.type = FrameType::kPong;
        pong.payload = std::move(frame->payload);
        SendFrame(conn, pong);
        continue;
      }
      case FrameType::kQuery: {
        // The query frames already decodable behind this one join its
        // batch. The first other frame is held for after the batch; an
        // incomplete frame or a poisoned decoder just ends the batch (the
        // decoder's error frame then follows the batch's replies).
        const size_t cap = std::max<size_t>(1, options_.max_inflight);
        std::vector<BatchStatement> batch;
        batch.push_back(to_statement(std::move(*frame)));
        while (batch.size() < cap) {
          Result<std::optional<Frame>> next = conn->decoder.Next();
          if (!next.ok() || !next.ValueOrDie().has_value()) break;
          Frame& more = *next.ValueOrDie();
          if (more.type != FrameType::kQuery) {
            conn->held_frame = std::move(more);
            break;
          }
          batch.push_back(to_statement(std::move(more)));
        }
        DispatchBatch(conn, std::move(batch), /*is_http=*/false,
                      /*http_keep_alive=*/true);
        continue;
      }
      default: {
        // kResult/kError/kPong/kRejected are server-to-client only.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        TS_COUNTER_INC("server.protocol_errors");
        Frame error;
        error.type = FrameType::kError;
        error.payload = "Invalid argument: client sent a server-only frame type";
        conn->close_after_flush = true;
        SendFrame(conn, error);
        return;
      }
    }
  }
}

void NetServer::RouteHttpRequest(const std::shared_ptr<Connection>& conn) {
  const HttpRequest& request = conn->http.request();
  const bool keep_alive = WantsKeepAlive(request);
  if (request.method == "GET") {
    if (!keep_alive) conn->close_after_flush = true;
    auto it = http_handlers_.find(request.target);
    if (it != http_handlers_.end()) {
      HttpResponse response;
      it->second(request, &response);
      SendHttpResponse(conn, response.code, response.content_type,
                       response.body, keep_alive);
    } else if (request.target == "/query") {
      SendHttpResponse(conn, 405, kTextPlain, "POST a statement to /query\n",
                       keep_alive);
    } else if (http_fallback_) {
      HttpResponse response;
      response.code = 404;
      http_fallback_(request, &response);
      SendHttpResponse(conn, response.code, response.content_type,
                       response.body, keep_alive);
    } else {
      SendHttpResponse(conn, 404, kTextPlain, "not found\n", keep_alive);
    }
    return;
  }
  if (request.method == "POST") {
    if (request.target != "/query" || !statement_handler_) {
      if (!keep_alive) conn->close_after_flush = true;
      SendHttpResponse(conn, 404, kTextPlain,
                       "not found; statements go to POST /query\n",
                       keep_alive);
      return;
    }
    uint64_t deadline_ms = 0;
    if (const std::string* header =
            request.FindHeader("X-Tempspec-Deadline-Ms")) {
      if (!ParseU64(*header, &deadline_ms)) {
        if (!keep_alive) conn->close_after_flush = true;
        SendHttpResponse(conn, 400, kTextPlain,
                         "malformed X-Tempspec-Deadline-Ms\n", keep_alive);
        return;
      }
    }
    std::vector<BatchStatement> batch(1);
    batch[0].statement = request.body;
    batch[0].deadline_ms = deadline_ms;
    // Unlike the deadline header, a malformed trace header is not a 400:
    // the request executes under a server-generated id instead.
    if (const std::string* header = request.FindHeader("X-Tempspec-Trace")) {
      WireTraceInfo& wire = batch[0].wire;
      wire.set = ParseTraceHeader(*header, &wire.hi, &wire.lo, &wire.span);
    }
    DispatchBatch(conn, std::move(batch), /*is_http=*/true, keep_alive);
    return;
  }
  if (!keep_alive) conn->close_after_flush = true;
  SendHttpResponse(conn, 405, kTextPlain, "method not allowed\n", keep_alive);
}

void NetServer::DispatchBatch(const std::shared_ptr<Connection>& conn,
                              std::vector<BatchStatement> batch, bool is_http,
                              bool http_keep_alive) {
  if (inflight_ >= options_.max_inflight) {
    rejected_.fetch_add(batch.size(), std::memory_order_relaxed);
    TS_COUNTER_ADD("server.requests_rejected", batch.size());
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerReject,
              static_cast<int64_t>(conn->id),
              static_cast<int64_t>(inflight_), "max_inflight");
    const char* message =
        "overloaded: too many in-flight statements, retry later";
    if (is_http) {
      if (!http_keep_alive) conn->close_after_flush = true;
      SendHttpResponse(conn, 503, kTextPlain, std::string(message) + "\n",
                       http_keep_alive);
      return;
    }
    Frame rejected;
    rejected.type = FrameType::kRejected;
    rejected.payload = message;
    for (size_t i = 0; i < batch.size(); ++i) {
      EncodeFrame(rejected, &conn->outbuf);
    }
    FlushWrites(conn);
    if (!conn->closed) UpdateInterest(conn);
    return;
  }

  // One permit per batch, as one per connection: the connection runs
  // nothing else until the batch's replies are written.
  ++inflight_;
  inflight_published_.store(inflight_, std::memory_order_relaxed);
  TS_GAUGE_SET("server.inflight", static_cast<int64_t>(inflight_));
  requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  TS_COUNTER_ADD("server.requests", batch.size());

  conn->processing = true;
  for (BatchStatement& s : batch) {
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerRequest,
              static_cast<int64_t>(conn->id),
              static_cast<int64_t>(s.statement.size()), "");
    // Deadline policy: a client value is clamped to max_deadline_ms; no
    // value falls back to default_deadline_ms (0 = unlimited). Armed at
    // admission, so time spent queued behind other statements (the earlier
    // ones of this batch included) counts against it.
    uint64_t effective_ms = s.deadline_ms;
    if (effective_ms == 0) {
      effective_ms = options_.default_deadline_ms;
    } else if (options_.max_deadline_ms > 0 &&
               effective_ms > options_.max_deadline_ms) {
      effective_ms = options_.max_deadline_ms;
    }
    // The request span starts at admission, so its wall clock covers queue
    // wait, execution, and the response write — the server-side view of
    // the latency the client observes.
    s.trace = std::make_shared<TraceContext>();
    TraceContext& trace = *s.trace;
    trace.SetServerOwned(true);
    if (s.wire.set) trace.SetWireTrace(s.wire.hi, s.wire.lo, s.wire.span);
    trace.Begin("server.request");
    trace.SetAttr("protocol", is_http ? "http" : "tsp1");
    if (!conn->peer.empty()) trace.SetAttr("peer", conn->peer);
    if (effective_ms > 0) {
      trace.ArmDeadlineAfterMicros(effective_ms * 1000);
      TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerDeadline,
                static_cast<int64_t>(conn->id),
                static_cast<int64_t>(effective_ms), "");
    }
    conn->active_traces.push_back(s.trace);
  }

  const auto admitted = std::chrono::steady_clock::now();
  workers_->Submit([this, conn, batch = std::move(batch), admitted, is_http,
                    http_keep_alive]() mutable {
    for (BatchStatement& s : batch) {
      TraceContext* trace = s.trace.get();
      const auto picked_up = std::chrono::steady_clock::now();
      trace->AddStage("queue.wait", MicrosBetween(admitted, picked_up));
      if (trace->CancellationRequested()) {
        // Skipped, not executed: its deadline passed while it waited, or
        // its client went away.
        s.status = Status::DeadlineExceeded(
            "deadline expired while the statement was queued");
      } else if (!statement_handler_) {  // frame clients can reach here
        s.status = Status::NotImplemented("no statement handler installed");
      } else {
        Result<std::string> result = statement_handler_(s.statement, trace);
        if (result.ok()) {
          s.payload = std::move(result).ValueOrDie();
        } else {
          s.status = result.status();
        }
      }
      const auto executed = std::chrono::steady_clock::now();
      trace->AddStage("execute", MicrosBetween(picked_up, executed));
    }
    loop_.RunInLoop([this, conn, batch = std::move(batch), is_http,
                     http_keep_alive]() mutable {
      CompleteBatch(conn, std::move(batch), is_http, http_keep_alive);
    });
  });
}

void NetServer::CompleteBatch(const std::shared_ptr<Connection>& conn,
                              std::vector<BatchStatement> batch, bool is_http,
                              bool http_keep_alive) {
  --inflight_;
  inflight_published_.store(inflight_, std::memory_order_relaxed);
  TS_GAUGE_SET("server.inflight", static_cast<int64_t>(inflight_));
  conn->processing = false;
  conn->active_traces.clear();

  const auto respond_start = std::chrono::steady_clock::now();
  const bool disconnected = conn->closed;  // client went away mid-batch
  for (BatchStatement& s : batch) {
    if (s.status.IsDeadlineExceeded()) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_INC("server.deadline_exceeded");
    }
    if (disconnected) continue;
    if (is_http) {
      conn->http.Reset();
      if (!http_keep_alive) conn->close_after_flush = true;
      conn->outbuf +=
          s.status.ok()
              ? BuildHttpResponse(200, kTextPlain, s.payload, http_keep_alive)
              : BuildHttpResponse(StatusToHttpCode(s.status), kTextPlain,
                                  s.status.ToString() + "\n",
                                  http_keep_alive);
    } else {
      Frame frame;
      frame.type = s.status.ok() ? FrameType::kResult : FrameType::kError;
      frame.payload =
          s.status.ok() ? std::move(s.payload) : s.status.ToString();
      EncodeFrame(frame, &conn->outbuf);
    }
  }
  if (!disconnected) FlushWrites(conn);

  // Finalize and record each server-owned request span — the slowlog and
  // retained-trace entries other planes join by trace id. Recorded even for
  // a disconnected client: the work happened. `respond` covers encoding the
  // batch's replies and their one flush.
  const auto responded = std::chrono::steady_clock::now();
  for (BatchStatement& s : batch) {
    TraceContext& trace = *s.trace;
    trace.AddStage("respond", MicrosBetween(respond_start, responded));
    trace.SetAttr("outcome", s.status.ok()
                                 ? "ok"
                                 : StatusCodeToString(s.status.code()));
    trace.End();
    TS_METRICS_ONLY({ SlowQueryLog::Instance().Record(trace, s.statement); });
    RetainedTraces::Instance().Record(trace);
  }

  if (conn->closed) return;
  ProcessInput(conn);  // requests buffered behind the batch
  if (!conn->closed) UpdateInterest(conn);
}

void NetServer::SendHttpResponse(const std::shared_ptr<Connection>& conn,
                                 int code, std::string_view content_type,
                                 std::string_view body, bool keep_alive) {
  if (conn->closed) return;
  conn->outbuf += BuildHttpResponse(code, content_type, body, keep_alive);
  FlushWrites(conn);
  if (!conn->closed) UpdateInterest(conn);
}

void NetServer::SendFrame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  if (conn->closed) return;
  EncodeFrame(frame, &conn->outbuf);
  FlushWrites(conn);
  if (!conn->closed) UpdateInterest(conn);
}

void NetServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (conn->out_offset < conn->outbuf.size()) {
    const ssize_t n =
        ::write(conn->fd.get(), conn->outbuf.data() + conn->out_offset,
                conn->outbuf.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    CloseConnection(conn);  // EPIPE, ECONNRESET, ...
    return;
  }
  if (conn->out_offset == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush) CloseConnection(conn);
  } else if (conn->out_offset > 1024 * 1024) {
    conn->outbuf.erase(0, conn->out_offset);
    conn->out_offset = 0;
  }
}

void NetServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  const size_t pending_out = conn->outbuf.size() - conn->out_offset;
  // Write-side backpressure with hysteresis: pause reads at the high
  // watermark, resume at half, so a slow reader oscillates gently instead
  // of toggling epoll per byte.
  if (!conn->reading_paused && pending_out >= options_.write_high_watermark) {
    conn->reading_paused = true;
  } else if (conn->reading_paused &&
             pending_out <= options_.write_high_watermark / 2) {
    conn->reading_paused = false;
  }
  // Input-side bound: while a batch executes, buffer at most one more
  // maximal request's worth of pipelined bytes.
  const size_t input_cap =
      std::max(options_.max_frame_payload_bytes + kFrameHeaderBytes,
               options_.http_limits.max_header_bytes +
                   options_.http_limits.max_request_line_bytes +
                   options_.http_limits.max_body_bytes) +
      4096;
  const bool input_saturated =
      conn->processing &&
      conn->inbuf.size() + conn->decoder.buffered_bytes() >= input_cap;

  uint32_t want = 0;
  if (!conn->reading_paused && !input_saturated && !conn->close_after_flush) {
    want |= kEventReadable;
  }
  if (pending_out > 0) want |= kEventWritable;
  if (want != conn->interest) {
    if (loop_.SetInterest(conn->fd.get(), want).ok()) conn->interest = want;
  }
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  // A disconnect is a cancellation: no one is left to read the answer.
  for (const auto& trace : conn->active_traces) trace->RequestCancel();
  loop_.Deregister(conn->fd.get());
  connections_.erase(conn->fd.get());
  conn->fd.Reset();
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
  TS_GAUGE_SET("server.open_connections",
               static_cast<int64_t>(connections_.size()));
}

void NetServer::SweepIdleConnections() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [fd, conn] : connections_) {
    if (conn->processing || conn->outbuf.size() > conn->out_offset) continue;
    if (now - conn->last_activity >= limit) idle.push_back(conn);
  }
  for (const auto& conn : idle) CloseConnection(conn);
  loop_.AddTimer(std::chrono::milliseconds(1000),
                 [this] { SweepIdleConnections(); });
}

}  // namespace tempspec
