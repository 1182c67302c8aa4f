// Protocol and policy battery for NetServer (net/server.h), driven over real
// sockets against scripted statement handlers: HTTP and TSP1 frame
// round-trips, keep-alive and pipelining, admission control (503/kRejected),
// deadline propagation and enforcement (504), client-disconnect
// cancellation, clean rejection of malformed input on both protocols, and
// the batching of a TSP1 connection's pipelined statements.
#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/net_test_client.h"
#include "obs/trace.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using namespace std::chrono_literals;
using testing::JsonParser;
using testing::JsonValue;
using testing::QueryFrame;
using testing::TestClient;
using testing::WaitFor;

TEST(EventLoopTest, StopBeforeRunIsNotLost) {
  // NetServer::Stop() can run before its loop thread has entered Run() (a
  // server started and stopped at once, on a loaded host). That Stop() must
  // still end the loop; before the fix Run() re-armed the flag and spun
  // forever while Stop() waited to join it.
  EventLoop loop;
  ASSERT_OK(loop.Init());
  loop.Stop();
  std::promise<void> returned;
  std::thread runner([&] {
    loop.Run();
    returned.set_value();
  });
  const bool ended = returned.get_future().wait_for(2s) ==
                     std::future_status::ready;
  if (!ended) loop.Stop();  // unblock the runner so the test can fail cleanly
  runner.join();
  EXPECT_TRUE(ended) << "Run() ignored a Stop() issued before it started";
}

class NetServerTest : public ::testing::Test {
 protected:
  /// Starts a server on an ephemeral port with the given options + handler.
  void StartServer(ServerOptions options, NetServer::StatementHandler handler) {
    options.bind_address = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<NetServer>(std::move(options));
    if (handler) server_->SetStatementHandler(std::move(handler));
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, HttpQueryRoundTrip) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("echo: " + statement);
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  TestClient::HttpReply reply = client.PostQuery("CURRENT readings");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.body, "echo: CURRENT readings");
  EXPECT_EQ(server_->Stats().requests, 1u);
}

TEST_F(NetServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  std::atomic<int> calls{0};
  StartServer({}, [&calls](const std::string& statement, TraceContext*) {
    calls.fetch_add(1);
    return Result<std::string>("#" + statement);
  });
  TestClient client(server_->port());
  for (int i = 0; i < 5; ++i) {
    TestClient::HttpReply reply = client.PostQuery(std::to_string(i));
    ASSERT_TRUE(reply.ok) << "request " << i;
    EXPECT_EQ(reply.code, 200);
    EXPECT_EQ(reply.body, "#" + std::to_string(i));
  }
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(server_->Stats().connections_accepted, 1u);
}

TEST_F(NetServerTest, PipelinedHttpRequestsAnswerInOrder) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("r:" + statement);
  });
  TestClient client(server_->port());
  // Both requests hit the socket before either response is read; the server
  // must serialize per-connection and answer in order.
  std::string two;
  for (const char* payload : {"a", "b"}) {
    two += "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\n";
    two += payload;
  }
  ASSERT_TRUE(client.Send(two));
  TestClient::HttpReply first = client.ReadHttpResponse();
  TestClient::HttpReply second = client.ReadHttpResponse();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.body, "r:a");
  EXPECT_EQ(second.body, "r:b");
}

TEST_F(NetServerTest, StatementErrorsMapToHttpCodes) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    if (statement == "missing") {
      return Result<std::string>(Status::NotFound("no such relation"));
    }
    if (statement == "bad") {
      return Result<std::string>(Status::InvalidArgument("parse error"));
    }
    return Result<std::string>(Status::Internal("boom"));
  });
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("missing").code, 404);
  EXPECT_EQ(client.PostQuery("bad").code, 400);
  EXPECT_EQ(client.PostQuery("other").code, 500);
}

TEST_F(NetServerTest, PostToUnknownTargetIs404) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("unreachable");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(
      "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nx"));
  EXPECT_EQ(client.ReadHttpResponse().code, 404);
}

TEST_F(NetServerTest, QueryWithoutHandlerIs404) {
  StartServer({}, nullptr);
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("CURRENT r").code, 404);
}

TEST_F(NetServerTest, MalformedHttpRejectedAndCounted) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send("complete garbage\r\n\r\n"));
  TestClient::HttpReply reply = client.ReadHttpResponse();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 400);
  EXPECT_TRUE(WaitFor([&] { return server_->Stats().protocol_errors >= 1; }));

  // A request line that parses but claims an unsupported version is 505.
  TestClient version_client(server_->port());
  ASSERT_TRUE(version_client.Send("GET /metrics HTTP/3.0\r\n\r\n"));
  TestClient::HttpReply version_reply = version_client.ReadHttpResponse();
  ASSERT_TRUE(version_reply.ok);
  EXPECT_EQ(version_reply.code, 505);
}

TEST_F(NetServerTest, FrameQueryAndPingRoundTrip) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("echo: " + statement);
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.SendFrame(QueryFrame("TIMESLICE r AT '1992-01-01'")));
  ASSERT_OK_AND_ASSIGN(Frame result, client.ReadFrame());
  EXPECT_EQ(result.type, FrameType::kResult);
  EXPECT_EQ(result.payload, "echo: TIMESLICE r AT '1992-01-01'");

  Frame ping;
  ping.type = FrameType::kPing;
  ping.payload = "liveness";
  ASSERT_TRUE(client.SendFrame(ping));
  ASSERT_OK_AND_ASSIGN(Frame pong, client.ReadFrame());
  EXPECT_EQ(pong.type, FrameType::kPong);
  EXPECT_EQ(pong.payload, "liveness");
}

TEST_F(NetServerTest, FrameStatementErrorCarriesStatusName) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>(Status::InvalidArgument("parse error at 'x'"));
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.SendFrame(QueryFrame("garbage")));
  ASSERT_OK_AND_ASSIGN(Frame error, client.ReadFrame());
  EXPECT_EQ(error.type, FrameType::kError);
  EXPECT_NE(error.payload.find("parse error"), std::string::npos)
      << error.payload;
}

TEST_F(NetServerTest, CorruptFrameClosesConnectionAndCounts) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  std::string wire;
  EncodeFrame(QueryFrame("x"), &wire);
  wire[12] ^= 0x5A;  // break the CRC
  ASSERT_TRUE(client.Send(wire));
  // The server answers with one kError frame explaining the corruption,
  // then tears the connection down (framing is unrecoverable).
  ASSERT_OK_AND_ASSIGN(Frame error, client.ReadFrame());
  EXPECT_EQ(error.type, FrameType::kError);
  EXPECT_NE(error.payload.find("CRC"), std::string::npos) << error.payload;
  EXPECT_EQ(client.ReadToEof(), "");
  EXPECT_TRUE(WaitFor([&] { return server_->Stats().protocol_errors >= 1; }));
}

TEST_F(NetServerTest, AdmissionControlRejectsExcessLoad) {
  // One permit; the first statement parks in the handler until released, so
  // every concurrent request must be refused up front: HTTP 503 with
  // Retry-After semantics, kRejected on the frame protocol.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 1;
  options.worker_threads = 2;
  StartServer(options, [&](const std::string&, TraceContext*) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return Result<std::string>("done");
  });

  TestClient blocker(server_->port());
  ASSERT_TRUE(blocker.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nslow"));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));

  TestClient refused_http(server_->port());
  TestClient::HttpReply reply = refused_http.PostQuery("fast");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 503);

  TestClient refused_frame(server_->port());
  ASSERT_TRUE(refused_frame.SendFrame(QueryFrame("fast")));
  ASSERT_OK_AND_ASSIGN(Frame rejection, refused_frame.ReadFrame());
  EXPECT_EQ(rejection.type, FrameType::kRejected);

  EXPECT_GE(server_->Stats().requests_rejected, 2u);
  EXPECT_EQ(entered.load(), 1);  // rejected statements never ran

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  TestClient::HttpReply unblocked = blocker.ReadHttpResponse();
  ASSERT_TRUE(unblocked.ok);
  EXPECT_EQ(unblocked.code, 200);

  // With the permit back, new statements are admitted again.
  TestClient after(server_->port());
  EXPECT_EQ(after.PostQuery("fast").code, 200);
}

TEST_F(NetServerTest, ClientDeadlineIsArmedOnTheTrace) {
  std::atomic<bool> saw_deadline{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    saw_deadline.store(trace != nullptr && trace->has_deadline());
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  EXPECT_EQ(
      client.PostQuery("q", "X-Tempspec-Deadline-Ms: 5000\r\n").code, 200);
  EXPECT_TRUE(saw_deadline.load());

  // Frame-protocol deadline prefix arms the same way.
  saw_deadline.store(false);
  TestClient frame_client(server_->port());
  ASSERT_TRUE(frame_client.SendFrame(
      QueryFrame("q", /*deadline_ms=*/5000, /*with_deadline=*/true)));
  ASSERT_OK_AND_ASSIGN(Frame result, frame_client.ReadFrame());
  EXPECT_EQ(result.type, FrameType::kResult);
  EXPECT_TRUE(saw_deadline.load());
}

TEST_F(NetServerTest, DefaultDeadlineAppliesWhenClientSendsNone) {
  std::atomic<bool> saw_deadline{false};
  ServerOptions options;
  options.default_deadline_ms = 30000;
  StartServer(options, [&](const std::string&, TraceContext* trace) {
    saw_deadline.store(trace != nullptr && trace->has_deadline());
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("q").code, 200);
  EXPECT_TRUE(saw_deadline.load());
}

TEST_F(NetServerTest, ExpiredDeadlineCancelsTheStatementMidFlight) {
  // The handler simulates a long scan that polls at morsel boundaries: it
  // runs until the armed deadline fires, then reports DeadlineExceeded —
  // which must reach the HTTP client as 504 and bump the counter. The
  // cooperative loop is bounded so a cancellation bug fails, not hangs.
  StartServer({}, [](const std::string&, TraceContext* trace) {
    for (int morsel = 0; morsel < 20000; ++morsel) {
      if (trace != nullptr && trace->CancellationRequested()) {
        return Result<std::string>(Status::DeadlineExceeded(
            "query cancelled after ", morsel, " morsel(s)"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  TestClient::HttpReply reply =
      client.PostQuery("long scan", "X-Tempspec-Deadline-Ms: 50\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 504);
  EXPECT_NE(reply.body.find("cancelled"), std::string::npos) << reply.body;
  EXPECT_EQ(server_->Stats().deadline_exceeded, 1u);
}

TEST_F(NetServerTest, ClientDeadlineIsClampedToServerMax) {
  // max_deadline_ms=50 must override the client's 1-hour deadline: the
  // cancellation still fires within the bounded loop below.
  ServerOptions options;
  options.max_deadline_ms = 50;
  StartServer(options, [](const std::string&, TraceContext* trace) {
    for (int morsel = 0; morsel < 20000; ++morsel) {
      if (trace != nullptr && trace->CancellationRequested()) {
        return Result<std::string>(
            Status::DeadlineExceeded("cancelled at morsel ", morsel));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  TestClient::HttpReply reply =
      client.PostQuery("long scan", "X-Tempspec-Deadline-Ms: 3600000\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 504);
}

TEST_F(NetServerTest, DisconnectingClientCancelsItsStatement) {
  std::atomic<bool> entered{false};
  std::atomic<bool> cancelled{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    entered.store(true);
    for (int i = 0; i < 20000; ++i) {
      if (trace != nullptr && trace->CancellationRequested()) {
        cancelled.store(true);
        return Result<std::string>(Status::DeadlineExceeded("cancelled"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  {
    TestClient client(server_->port());
    ASSERT_TRUE(client.Send(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
    ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  }  // client destructor closes the socket mid-query
  EXPECT_TRUE(WaitFor([&] { return cancelled.load(); }));
}

TEST_F(NetServerTest, TelemetryNeverPassesAdmission) {
  // With the lone permit held by a parked statement, /healthz via a
  // registered handler must still answer: loop-thread endpoints bypass
  // admission by design.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  options.max_inflight = 1;
  server_ = std::make_unique<NetServer>(std::move(options));
  server_->AddHttpHandler("/healthz",
                          [](const HttpRequest&, NetServer::HttpResponse* out) {
                            out->body = "ok\n";
                          });
  server_->SetStatementHandler([&](const std::string&, TraceContext*) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return Result<std::string>("done");
  });
  ASSERT_OK(server_->Start());

  TestClient blocker(server_->port());
  ASSERT_TRUE(blocker.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
  ASSERT_TRUE(WaitFor([&] { return entered.load() >= 1; }));

  TestClient health(server_->port());
  ASSERT_TRUE(health.Send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  TestClient::HttpReply reply = health.ReadHttpResponse();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.body, "ok\n");

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(blocker.ReadHttpResponse().code, 200);
}

TEST_F(NetServerTest, MaxConnectionsRefusesFurtherAccepts) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient first(server_->port());
  TestClient second(server_->port());
  ASSERT_EQ(first.PostQuery("a").code, 200);  // both fully established
  ASSERT_EQ(second.PostQuery("b").code, 200);

  TestClient third(server_->port());
  // The server accepts then immediately closes; the read sees EOF without
  // any response bytes.
  EXPECT_EQ(third.ReadToEof(), "");
  EXPECT_TRUE(
      WaitFor([&] { return server_->Stats().connections_refused >= 1; }));
}

TEST_F(NetServerTest, StopCancelsParkedStatements) {
  std::atomic<bool> entered{false};
  std::atomic<bool> cancelled{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    entered.store(true);
    for (int i = 0; i < 20000; ++i) {
      if (trace != nullptr && trace->CancellationRequested()) {
        cancelled.store(true);
        return Result<std::string>(Status::DeadlineExceeded("cancelled"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  server_->Stop();  // must cancel the in-flight statement, not wait 20s
  EXPECT_TRUE(cancelled.load());
}

// ---------------------------------------------------------------------------
// Batches: a TSP1 connection's already-buffered query frames run as one
// worker task under one admission permit, and their replies go out together.
// Each test pipelines its frames in one write, so the server reads them in
// one pass. Several of them park the first statement so the batch's
// admission is visible in Stats().requests: under one-statement-at-a-time
// dispatch only that first statement would have been admitted.

/// Parks the statements that wait on it until Open(); the fixture opens it
/// before stopping the server, so a failed assertion cannot hang TearDown.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class NetServerBatchTest : public NetServerTest {
 protected:
  void TearDown() override {
    gate_.Open();
    NetServerTest::TearDown();
  }

  /// Echoes "r:<statement>"; the statement "park" first waits on the gate.
  void StartEchoServer(ServerOptions options = {}) {
    StartServer(options, [this](const std::string& statement, TraceContext*) {
      calls_.fetch_add(1);
      if (statement == "park") {
        parked_.store(true);
        gate_.Wait();
      }
      return Result<std::string>("r:" + statement);
    });
  }

  Gate gate_;
  std::atomic<int> calls_{0};
  std::atomic<bool> parked_{false};
};

Frame PingFrame(const std::string& payload) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.payload = payload;
  return ping;
}

std::string Wire(const std::vector<Frame>& frames) {
  std::string wire;
  for (const Frame& frame : frames) EncodeFrame(frame, &wire);
  return wire;
}

TEST_F(NetServerBatchTest, PingBetweenPipelinedQueriesKeepsSendOrder) {
  StartEchoServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(Wire({QueryFrame("park"), QueryFrame("a"),
                                QueryFrame("b"), PingFrame("p"),
                                QueryFrame("c"), QueryFrame("d")})));
  ASSERT_TRUE(WaitFor([&] { return parked_.load(); }));
  // The batch stops at the ping: the three queries before it were admitted
  // together, the ping waits for their replies.
  EXPECT_EQ(server_->Stats().requests, 3u);
  gate_.Open();
  const std::vector<std::pair<FrameType, std::string>> expected = {
      {FrameType::kResult, "r:park"}, {FrameType::kResult, "r:a"},
      {FrameType::kResult, "r:b"},    {FrameType::kPong, "p"},
      {FrameType::kResult, "r:c"},    {FrameType::kResult, "r:d"}};
  for (const auto& [type, payload] : expected) {
    ASSERT_OK_AND_ASSIGN(Frame reply, client.ReadFrame());
    EXPECT_EQ(reply.type, type) << payload;
    EXPECT_EQ(reply.payload, payload);
  }
  EXPECT_EQ(server_->Stats().requests, 5u);
}

TEST_F(NetServerBatchTest, DisconnectSkipsTheRestOfTheBatch) {
  StartEchoServer();
  {
    TestClient client(server_->port());
    ASSERT_TRUE(client.Send(Wire({QueryFrame("park"), QueryFrame("a"),
                                  QueryFrame("b"), QueryFrame("c")})));
    ASSERT_TRUE(WaitFor([&] { return parked_.load(); }));
    EXPECT_EQ(server_->Stats().requests, 4u);  // one batch of four
  }  // the client leaves while the batch's first statement runs
  ASSERT_TRUE(WaitFor([&] { return server_->Stats().open_connections == 0; }));
  gate_.Open();
  ASSERT_TRUE(WaitFor([&] { return server_->Stats().inflight == 0; }));
  EXPECT_EQ(calls_.load(), 1) << "statements of a cancelled batch ran";
}

TEST_F(NetServerBatchTest, ExpiredDeadlineSkipsOnlyItsStatement) {
  StartEchoServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(
      Wire({QueryFrame("park"),
            QueryFrame("late", /*deadline_ms=*/1, /*with_deadline=*/true),
            QueryFrame("after")})));
  ASSERT_TRUE(WaitFor([&] { return parked_.load(); }));
  // "late" was admitted with the batch; its 1 ms runs out behind "park".
  std::this_thread::sleep_for(20ms);
  gate_.Open();
  ASSERT_OK_AND_ASSIGN(Frame first, client.ReadFrame());
  ASSERT_OK_AND_ASSIGN(Frame late, client.ReadFrame());
  ASSERT_OK_AND_ASSIGN(Frame after, client.ReadFrame());
  EXPECT_EQ(first.type, FrameType::kResult);
  EXPECT_EQ(first.payload, "r:park");
  EXPECT_EQ(late.type, FrameType::kError);
  EXPECT_NE(late.payload.find(
                StatusCodeToString(StatusCode::kDeadlineExceeded)),
            std::string::npos)
      << late.payload;
  EXPECT_EQ(after.type, FrameType::kResult);
  EXPECT_EQ(after.payload, "r:after");
  EXPECT_EQ(calls_.load(), 2);  // "late" was skipped, not executed
  EXPECT_EQ(server_->Stats().deadline_exceeded, 1u);
}

TEST_F(NetServerBatchTest, CorruptFrameErrorFollowsTheBatchReplies) {
  StartEchoServer();
  TestClient client(server_->port());
  std::string corrupt;
  EncodeFrame(QueryFrame("x"), &corrupt);
  corrupt[12] ^= 0x5A;  // break the CRC
  ASSERT_TRUE(client.Send(
      Wire({QueryFrame("park"), QueryFrame("a"), QueryFrame("b")}) + corrupt));
  ASSERT_TRUE(WaitFor([&] { return parked_.load(); }));
  // The poisoned frame ends the batch but is reported only after it.
  EXPECT_EQ(server_->Stats().requests, 3u);
  EXPECT_EQ(server_->Stats().protocol_errors, 0u);
  gate_.Open();
  for (const char* payload : {"r:park", "r:a", "r:b"}) {
    ASSERT_OK_AND_ASSIGN(Frame reply, client.ReadFrame());
    EXPECT_EQ(reply.type, FrameType::kResult);
    EXPECT_EQ(reply.payload, payload);
  }
  ASSERT_OK_AND_ASSIGN(Frame error, client.ReadFrame());
  EXPECT_EQ(error.type, FrameType::kError);
  EXPECT_NE(error.payload.find("CRC"), std::string::npos) << error.payload;
  EXPECT_EQ(client.ReadToEof(), "");
}

TEST_F(NetServerBatchTest, PipelinedConnectionsEachHoldOnePermit) {
  // 3 connections x 64 pipelined statements under the default options
  // (max_inflight 8): a permit per statement would refuse most of them.
  StartEchoServer();
  constexpr int kClients = 3;
  constexpr int kDepth = 64;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TestClient>(server_->port()));
    std::vector<Frame> frames;
    for (int i = 0; i < kDepth; ++i) {
      frames.push_back(QueryFrame(std::to_string(c) + "." + std::to_string(i)));
    }
    ASSERT_TRUE(clients.back()->Send(Wire(frames)));
  }
  int results = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kDepth; ++i) {
      ASSERT_OK_AND_ASSIGN(Frame reply, clients[c]->ReadFrame());
      EXPECT_EQ(reply.type, FrameType::kResult);
      EXPECT_EQ(reply.payload,
                "r:" + std::to_string(c) + "." + std::to_string(i));
      if (reply.type == FrameType::kResult) ++results;
    }
  }
  EXPECT_EQ(results, kClients * kDepth);
  EXPECT_EQ(server_->Stats().requests_rejected, 0u);
  EXPECT_EQ(server_->Stats().requests,
            static_cast<uint64_t>(kClients * kDepth));
}

TEST_F(NetServerBatchTest, EveryBatchedStatementKeepsItsOwnSpan) {
  RetainedTraces::Instance().Clear();
  StartServer({}, [](const std::string& statement, TraceContext*) {
    if (statement == "slow") std::this_thread::sleep_for(20ms);
    return Result<std::string>("r:" + statement);
  });
  TestClient client(server_->port());
  std::vector<Frame> frames;
  for (uint64_t i = 1; i <= 3; ++i) {
    Frame frame = QueryFrame(i == 1 ? "slow" : "fast");
    frame.flags |= kFrameFlagTrace;
    frame.trace_hi = 0;
    frame.trace_lo = i;  // names the span by its position in the batch
    frame.span_id = i;
    frames.push_back(frame);
  }
  ASSERT_TRUE(client.Send(Wire(frames)));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(Frame reply, client.ReadFrame());
    EXPECT_EQ(reply.type, FrameType::kResult);
  }
  // Spans are recorded right after the batch's replies are written.
  ASSERT_TRUE(WaitFor(
      [&] { return RetainedTraces::Instance().Entries().size() >= 3; }));
  const std::vector<RetainedTrace> entries =
      RetainedTraces::Instance().Entries();
  ASSERT_EQ(entries.size(), 3u);
  for (uint64_t i = 1; i <= 3; ++i) {
    const RetainedTrace& entry = entries[i - 1];
    EXPECT_EQ(entry.span, "server.request");
    ASSERT_OK_AND_ASSIGN(JsonValue span, JsonParser::Parse(entry.json));
    char wire[33];
    std::snprintf(wire, sizeof(wire), "%016llx%016llx", 0ULL,
                  static_cast<unsigned long long>(i));
    EXPECT_EQ(span.at("wire_trace").string, wire);
    std::map<std::string, uint64_t> stages;
    for (const JsonValue& stage : span.at("stages").array) {
      stages[stage.at("name").string] =
          std::stoull(stage.at("micros").number);
    }
    ASSERT_EQ(stages.count("queue.wait"), 1u) << entry.json;
    ASSERT_EQ(stages.count("execute"), 1u) << entry.json;
    ASSERT_EQ(stages.count("respond"), 1u) << entry.json;
    // A later statement's queue wait includes the earlier ones of its batch.
    if (i > 1) {
      EXPECT_GE(stages["queue.wait"], 20000u) << entry.json;
    }
  }
}

}  // namespace
}  // namespace tempspec
