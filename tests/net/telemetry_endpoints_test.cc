// Telemetry pages: the Prometheus text renderers (obs/metrics.h) and every
// endpoint RegisterTelemetryEndpoints puts on a NetServer — the same server
// tempspec_serve runs. The rendering tests work on hand-built snapshots; the
// server tests bind an ephemeral loopback port and speak minimal HTTP/1.0
// over a raw socket (no client library, mirroring how the server itself is
// built).
#include "net/telemetry_endpoints.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;
using testing::ValidJson;

TEST(SanitizeMetricNameTest, MapsToPrometheusCharset) {
  EXPECT_EQ(SanitizeMetricName("tempspec.storage.wal_syncs"),
            "tempspec_storage_wal_syncs");
  EXPECT_EQ(SanitizeMetricName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(SanitizeMetricName("9starts.with-digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("sp ace/slash"), "sp_ace_slash");
}

TEST(RenderPrometheusTextTest, CountersAndGauges) {
  MetricsSnapshot snap;
  snap.counters["tempspec.a.hits"] = 42;
  snap.gauges["tempspec.b.depth"] = -7;
  const std::string text = RenderPrometheusText(snap);
  EXPECT_NE(text.find("# HELP tempspec_a_hits "), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_a_hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_a_hits 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_b_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_b_depth -7\n"), std::string::npos);
}

TEST(RenderPrometheusTextTest, HistogramBucketsAreCumulativeAndClosed) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.count = 6;
  h.sum = 100;
  // Buckets as the registry snapshot produces them: (index, per-bucket count).
  h.buckets = {{1, 2}, {3, 3}, {5, 1}};
  snap.histograms["tempspec.lat"] = h;
  const std::string text = RenderPrometheusText(snap);
  // Cumulative counts at the log2 upper bounds: 2^1-1=1, 2^3-1=7, 2^5-1=31.
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"7\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"31\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_count 6\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_lat histogram\n"), std::string::npos);
}

TEST(RenderPrometheusTextTest, EveryRegisteredMetricAppears) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("exporter_test.counter").Add(3);
  reg.GetGauge("exporter_test.gauge").Set(11);
  reg.GetHistogram("exporter_test.histogram").Observe(9);
  const MetricsSnapshot snap = reg.Scrape();
  const std::string text = RenderPrometheusText(snap);
  for (const auto& [name, value] : snap.counters) {
    (void)value;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " counter"),
              std::string::npos)
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    (void)value;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " gauge"),
              std::string::npos)
        << name;
  }
  for (const auto& [name, h] : snap.histograms) {
    (void)h;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " histogram"),
              std::string::npos)
        << name;
  }
}

// -- HTTP server -------------------------------------------------------------

/// Minimal HTTP GET against 127.0.0.1:port; returns the full response.
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Parses a JSONL body line by line; every line must be one JSON value.
Result<std::vector<testing::JsonValue>> ParseJsonl(const std::string& body) {
  std::vector<testing::JsonValue> lines;
  size_t start = 0;
  while (start < body.size()) {
    const size_t nl = body.find('\n', start);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("unterminated JSONL line at ", start);
    }
    TS_ASSIGN_OR_RETURN(testing::JsonValue v,
                        JsonParser::Parse(body.substr(start, nl - start)));
    lines.push_back(std::move(v));
    start = nl + 1;
  }
  return lines;
}

class TelemetryEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<NetServer>(options);
    RegisterTelemetryEndpoints(server_.get());
    ASSERT_OK(server_->Start());
    ASSERT_TRUE(server_->running());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<NetServer> server_;
};

TEST_F(TelemetryEndpointsTest, HealthzServes) {
  const std::string response = HttpGet(server_->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "ok\n");
}

TEST_F(TelemetryEndpointsTest, MetricsServesRegisteredMetricsInPrometheusFormat) {
  MetricsRegistry::Instance().GetCounter("telemetry_test.http.hits").Add(5);
  const std::string response = HttpGet(server_->port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Body(response).find("telemetry_test_http_hits 5"), std::string::npos);
}

TEST_F(TelemetryEndpointsTest, VarzServesValidJson) {
  const std::string response = HttpGet(server_->port(), "/varz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  if (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_OK(ValidJson(body));
}

TEST_F(TelemetryEndpointsTest, VarzCarriesTheBuildConfigStamp) {
  const std::string body = Body(HttpGet(server_->port(), "/varz"));
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       JsonParser::Parse(body.substr(0, body.find('\n'))));
  ASSERT_TRUE(v.has("build"));
  const testing::JsonValue& build = v.at("build");
  // The stamp must answer "what tree produced these numbers": every
  // compile-time toggle plus sanitizer and compiler identification.
  for (const char* key :
       {"metrics_enabled", "failpoints_enabled", "flightrecorder_enabled",
        "sanitizers", "compiler"}) {
    EXPECT_TRUE(build.has(key)) << key;
  }
}

TEST_F(TelemetryEndpointsTest, DebugEventsServesTheFlightRing) {
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalAppend, 1, 2, "telemetry");
  const std::string response = HttpGet(server_->port(), "/debug/events");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  if (!FlightRecorderCompiledIn() &&
      FlightRecorder::Instance().head() == 0) {
    EXPECT_TRUE(body.empty()) << "compiled-out ring serves an empty page";
    return;
  }
  // Every line is one parseable flight event.
  size_t start = 0;
  size_t lines = 0;
  while (start < body.size()) {
    const size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                         JsonParser::Parse(body.substr(start, nl - start)));
    EXPECT_TRUE(v.has("seq"));
    EXPECT_TRUE(v.has("code"));
    start = nl + 1;
    ++lines;
  }
  EXPECT_GE(lines, 1u);
}

TEST_F(TelemetryEndpointsTest, DebugTracesServesRetainedSpans) {
  TraceContext span;
  span.Begin("telemetry.test.span");
  RetainedTraces::Instance().Record(span);
  const std::string response = HttpGet(server_->port(), "/debug/traces");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  bool found = false;
  size_t start = 0;
  while (start < body.size()) {
    const size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                         JsonParser::Parse(body.substr(start, nl - start)));
    EXPECT_TRUE(v.has("trace_id"));
    EXPECT_TRUE(v.has("unix_micros"));
    ASSERT_TRUE(v.has("trace"));
    if (v.at("trace_id").number == std::to_string(span.trace_id())) {
      EXPECT_EQ(v.at("trace").at("span").string, "telemetry.test.span");
      found = true;
    }
    start = nl + 1;
  }
  EXPECT_TRUE(found) << "the span recorded above must be served";
}

TEST_F(TelemetryEndpointsTest, DebugHealthServesDeclaredSlosAndSeries) {
  SloRegistry::Instance().Declare("telemetry_test_rel", 50.0);
  QueryLatencyFamily::Instance().Observe("telemetry_test_rel", "generic",
                                         "http", 120);
  const std::string response = HttpGet(server_->port(), "/debug/health");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::vector<testing::JsonValue> lines,
                       ParseJsonl(Body(response)));
  ASSERT_EQ(lines.size(), 1u);
  const testing::JsonValue& health = lines[0];
  EXPECT_TRUE(health.has("unix_micros"));
  ASSERT_TRUE(health.has("slos"));
  ASSERT_TRUE(health.has("series"));
  bool judged = false;
  for (const testing::JsonValue& slo : health.at("slos").array) {
    if (slo.at("relation").string != "telemetry_test_rel") continue;
    judged = true;
    EXPECT_EQ(slo.at("objective_p99_ms").number, "50.000");
    EXPECT_EQ(slo.at("total").at("count").number, "1");
    EXPECT_EQ(slo.at("total").at("verdict").string, "ok");
  }
  EXPECT_TRUE(judged) << "the declared objective must be judged";
  bool served = false;
  for (const testing::JsonValue& series : health.at("series").array) {
    if (series.at("relation").string == "telemetry_test_rel" &&
        series.at("kind").string == "generic" &&
        series.at("protocol").string == "http") {
      served = true;
      EXPECT_EQ(series.at("count").number, "1");
    }
  }
  EXPECT_TRUE(served) << "the observed latency series must be served";
  SloRegistry::Instance().Remove("telemetry_test_rel");
  QueryLatencyFamily::Instance().ReleaseRelation("telemetry_test_rel");
}

TEST_F(TelemetryEndpointsTest, MetricsHistoryServesTheSampleRing) {
  MetricsHistory& history = MetricsHistory::Instance();
  history.Clear();
  EXPECT_TRUE(Body(HttpGet(server_->port(), "/metrics/history")).empty())
      << "no sampler has run, so the ring is empty";
  MetricsRegistry::Instance().GetCounter("telemetry_test.history.ticks").Add(2);
  history.SampleOnce();
  history.SampleOnce();
  const std::string response = HttpGet(server_->port(), "/metrics/history");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::vector<testing::JsonValue> samples,
                       ParseJsonl(Body(response)));
  ASSERT_EQ(samples.size(), 2u);
  for (const testing::JsonValue& sample : samples) {
    EXPECT_TRUE(sample.has("unix_micros"));
    EXPECT_TRUE(sample.has("gauges"));
    EXPECT_TRUE(sample.has("histograms"));
    ASSERT_TRUE(sample.has("counters"));
    EXPECT_EQ(sample.at("counters").at("telemetry_test.history.ticks").number,
              "2");
  }
  history.Clear();
}

TEST_F(TelemetryEndpointsTest, UnknownPathIs404AndQueryStringsAreStripped) {
  const std::string response = HttpGet(server_->port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
  // The 404 body doubles as endpoint discovery: every page must be listed.
  const std::string body = Body(response);
  for (const char* endpoint :
       {"/metrics", "/metrics/history", "/varz", "/healthz", "/debug/events",
        "/debug/traces", "/debug/health"}) {
    EXPECT_NE(body.find(endpoint), std::string::npos) << endpoint;
  }
  EXPECT_NE(HttpGet(server_->port(), "/healthz?x=1").find("200 OK"),
            std::string::npos);
}

TEST_F(TelemetryEndpointsTest, StopIsIdempotentAndDoublePortBindFails) {
  ServerOptions clash;
  clash.port = server_->port();
  NetServer second(clash);
  EXPECT_NOT_OK(second.Start());
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

/// Sends raw bytes to the server and returns the full response (the
/// malformed-request tests speak broken HTTP on purpose).
std::string RawRequest(uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Telemetry pages share the NetServer request limits: a request line past
// the bound is rejected with 431, not buffered without bound.
TEST_F(TelemetryEndpointsTest, OversizedRequestLineRejectedWith431) {
  const std::string target = "/" + std::string(10000, 'a');
  const std::string response = RawRequest(
      server_->port(), "GET " + target + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(TelemetryEndpointsTest, OversizedHeaderBlockRejectedWith431) {
  std::string request = "GET /healthz HTTP/1.0\r\n";
  request += "X-Padding: " + std::string(20000, 'b') + "\r\n\r\n";
  const std::string response = RawRequest(server_->port(), request);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(TelemetryEndpointsTest, MalformedRequestLineRejectedWith400) {
  const std::string response =
      RawRequest(server_->port(), "COMPLETE GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

TEST_F(TelemetryEndpointsTest, UnsupportedHttpVersionRejectedWith505) {
  const std::string response =
      RawRequest(server_->port(), "GET /healthz HTTP/2.0\r\n\r\n");
  EXPECT_NE(response.find("505"), std::string::npos) << response;
}

TEST_F(TelemetryEndpointsTest, NonGetMethodsRejected) {
  const std::string response = RawRequest(
      server_->port(),
      "PUT /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos) << response;
}

// The event-loop server must answer a scrape while another connection sits
// open and silent (a serial server would block every scrape behind it).
TEST_F(TelemetryEndpointsTest, ScrapesAreNotBlockedByAnIdleConnection) {
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The idle connection sends nothing; the scrape must still answer.
  const std::string response = HttpGet(server_->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  ::close(idle);
}

}  // namespace
}  // namespace tempspec
