// tsbench: the repository benchmark's load generator.
//
//   tsbench --workload ingest|history_scan|chatter --seed N --seconds S
//           --trace 0|1 --work-dir DIR [--serve PATH] [--spans PATH]
//
// --trace 0 spawns the shipped tempspec_serve on a fresh data directory
// (several times, for a median set-up time), preloads it, drives a fixed-rate
// open-loop phase and a closed-loop capacity phase over HTTP and TSP1,
// restarts the daemon, checks the outputs, and prints the end-to-end
// metrics. --trace 1 runs the same workload against an in-process stack
// (QueryService behind a NetServer with the daemon's default options) and
// prints the per-layer metrics from client and handler spans, executor
// replay, side-relation inserts, recovery and /metrics counter deltas.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics. A run whose generator fell behind its schedule is invalid:
// it prints no result and exits 3. Any other failure exits 1.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/query_lang.h"
#include "catalog/query_service.h"
#include "gen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/telemetry_endpoints.h"
#include "obs/metrics.h"
#include "pipe_client.h"
#include "query/executor.h"
#include "workload/tenant_driver.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using tempspec::ClientProtocol;
using tempspec::QueryClient;
using tempspec::WireOutcome;
using tempspec::WireReply;

// ---------------------------------------------------------------------------
// Run parameters.

// Streams: one client thread and one connection each. Stream 0 speaks HTTP
// keep-alive through QueryClient, stream 1 TSP1 through QueryClient, stream 2
// pipelined TSP1. Plus the main thread and its control connection.
constexpr int kMaxStreams = 3;
constexpr int kRestarts = 5;            // restart_s is their median
constexpr int kPreloadDepth = 64;       // pipelined preload window
constexpr int kClosedDepth = 8;         // pipelined stream's closed-loop window
constexpr double kClosedTimeoutS = 60;  // a closed loop that takes longer fails
// Generator p99 lateness that voids a run. The 4-vCPU VM this was tuned on
// wakes a sleeping thread ~5 ms late at p99 even when idle, and tens of ms
// late while the hypervisor steals CPU; past this the schedule is gone.
constexpr double kLateLimitMs = 100.0;
constexpr size_t kSamplesPerStream = 120;  // read replies kept for the shadow
constexpr uint64_t kSampleEvery = 23;
constexpr size_t kReplayFloor = 200;    // executor replays per read kind

// Per-workload load shape.
//   open_rate:  offered open-loop rate, ops/s, well under the closed-loop
//               capacity so a stall of the host drains quickly instead of
//               turning the schedule into a backlog.
//   closed_ops: closed-loop ops, about three seconds' worth on a 4-vCPU VM.
//   setups:     set-ups per run; setup_s is their median. history_scan's
//               340k-element preload takes 13 to 35 s, so it sets up once
//               to keep a run well inside its time limit.
struct Load {
  double open_rate;
  uint64_t closed_ops;
  int setups;
};

Load LoadOf(Workload w) {
  switch (w) {
    case Workload::kIngest: return {1000, 20000, 3};
    case Workload::kHistoryScan: return {300, 6000, 1};
    case Workload::kChatter: return {1500, 30000, 3};
  }
  return {};
}

struct Args {
  Workload workload = Workload::kIngest;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve;
  std::string work_dir;
  std::string spans;  // traced runs write their spans here, as JSON lines
};

// Child processes to reap on any exit path.
std::vector<pid_t> g_children;

[[noreturn]] void Die(const std::string& message, int code = 1) {
  std::fprintf(stderr, "tsbench: %s\n", message.c_str());
  for (pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::exit(code);
}

// Machine-wide CPU ticks from /proc/stat: the share the hypervisor stole
// explains runs that were slow for reasons outside the program.
struct HostCpu {
  double busy = 0, idle = 0, steal = 0;
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  HostCpu h;
  h.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  h.idle = v[3] + v[4];
  h.steal = v[7];
  return h;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintMetric(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  std::printf("  %-36s %14.4f %-8s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

/// The sample count behind a p99, and the highest percentile it supports
/// (at least ten samples beyond it) when p99 is not.
std::string TailNote(const std::vector<double>& v) {
  std::string note = "n=" + std::to_string(v.size());
  if (v.size() >= 1000) return note;
  for (double p : {0.95, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(v.size()) * (1 - p) >= 10) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ", too few for p99; p%.0f %.4f", p * 100,
                    Percentile(v, p));
      return note + buf;
    }
  }
  return note + ", too few for any tail";
}

/// The metrics of the result JSON, printed as they are added.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    PrintMetric(name, value, unit, note);
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// The system under test: a spawned daemon or an in-process stack.

class Daemon {
 public:
  Daemon(std::string binary, std::string data_dir, std::string log)
      : binary_(std::move(binary)),
        data_dir_(std::move(data_dir)),
        log_(std::move(log)),
        portfile_(data_dir_ + ".port") {}
  ~Daemon() { Stop(); }

  void Start() {
    fs::remove(portfile_);
    const pid_t pid = ::fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      const std::string data = "--data-dir=" + data_dir_;
      const std::string port = "--portfile=" + portfile_;
      ::execl(binary_.c_str(), binary_.c_str(), "--port=0", data.c_str(),
              port.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pid_ = pid;
    g_children.push_back(pid);
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      std::ifstream in(portfile_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        Forget();
        Die("tempspec_serve exited during start-up; see " + log_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    Die("tempspec_serve did not publish its port");
  }

  /// SIGTERM and wait for the graceful exit; SIGKILL after a minute.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (::waitpid(pid_, nullptr, WNOHANG) != pid_) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Forget();
  }

  /// User plus system CPU time the daemon has used, in seconds.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 1; i <= 13 && fields >> field; ++i) {
      if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set of the daemon (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  uint16_t port() const { return port_; }

 private:
  void Forget() {
    g_children.erase(std::remove(g_children.begin(), g_children.end(), pid_),
                     g_children.end());
    pid_ = -1;
    port_ = 0;
  }

  std::string binary_;
  std::string data_dir_;
  std::string log_;
  std::string portfile_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// Handler span: entry and exit of QueryService::Execute, keyed by the wire
// trace id the client sent.
struct HandlerSpan {
  std::string trace;
  Clock::time_point enter;
  Clock::time_point exit;
  bool write = false;
};

std::atomic<bool> g_spans{false};
std::mutex g_span_mu;
std::vector<HandlerSpan> g_handler_spans;

class InProcessStack {
 public:
  explicit InProcessStack(const std::string& data_dir) {
    tempspec::QueryServiceOptions options;
    options.data_dir = data_dir;
    service_ = std::make_unique<tempspec::QueryService>(options);
    if (!service_->Open().ok()) Die("cannot open in-process data dir");
    // The daemon's defaults: ServerOptions as tempspec_serve builds them.
    server_ = std::make_unique<tempspec::NetServer>(tempspec::ServerOptions{});
    tempspec::RegisterTelemetryEndpoints(server_.get());
    tempspec::QueryService* service = service_.get();
    server_->SetStatementHandler(
        [service](const std::string& statement, tempspec::TraceContext* trace) {
          if (!g_spans.load(std::memory_order_relaxed)) {
            return service->Execute(statement, trace);
          }
          HandlerSpan span;
          span.enter = Clock::now();
          auto result = service->Execute(statement, trace);
          span.exit = Clock::now();
          span.trace = trace != nullptr ? trace->WireTraceId() : "";
          span.write = tempspec::IsWriteStatement(statement);
          std::lock_guard<std::mutex> lock(g_span_mu);
          g_handler_spans.push_back(std::move(span));
          return result;
        });
    if (!server_->Start().ok()) Die("cannot start in-process server");
  }
  ~InProcessStack() { Stop(); }

  void Stop() {
    if (server_) server_->Stop();
  }
  uint16_t port() const { return server_->port(); }
  tempspec::QueryService& service() { return *service_; }
  tempspec::NetServer& server() { return *server_; }

 private:
  std::unique_ptr<tempspec::QueryService> service_;
  std::unique_ptr<tempspec::NetServer> server_;
};

// ---------------------------------------------------------------------------
// Client streams.

enum class Phase { kOpen, kClosed };

struct Sample {
  OpKind kind = OpKind::kInsert;
  Phase phase = Phase::kOpen;
  Clock::time_point slot;  // scheduled send (closed loop: actual send)
  Clock::time_point sent;
  Clock::time_point done;
  WireOutcome outcome = WireOutcome::kTransport;
  size_t reply_bytes = 0;
  uint64_t examined = 0;  // reads: the "M examined" the reply reports
  std::string trace;      // wire trace id (traced runs)
};

struct SampledRead {
  int relation = 0;
  uint64_t writes_before = 0;
  std::string statement;
  std::string reply;
};

struct Stream {
  int index = 0;
  bool pipelined = false;
  ClientProtocol protocol = ClientProtocol::kHttp;
  std::unique_ptr<StreamGen> gen;
  std::unique_ptr<QueryClient> client;
  std::unique_ptr<PipeClient> pipe;
  std::vector<Sample> samples;
  std::vector<double> late_ms;
  std::vector<Op> reads;  // open-loop reads, for executor replay
  std::vector<SampledRead> sampled;
  // Per owned relation: every insert sent, in order.
  std::map<int, std::vector<Op>> writes;
  std::map<int, uint64_t> acked, ambiguous;
  uint64_t rejections = 0;
  uint64_t constraint_rejections = 0;
  uint64_t op_index = 0;
  std::string error;
};

/// Query output ends "N element(s), M examined": M, or 0 when absent.
uint64_t ExaminedOf(const std::string& body) {
  const size_t pos = body.rfind(" examined");
  if (pos == std::string::npos) return 0;
  const size_t comma = body.rfind(", ", pos);
  return comma == std::string::npos
             ? 0
             : std::strtoull(body.c_str() + comma + 2, nullptr, 10);
}

uint64_t CountOf(const std::string& body) {
  // Query output ends "N element(s), M examined".
  const size_t pos = body.rfind(" element(s)");
  if (pos == std::string::npos) return UINT64_MAX;
  size_t begin = body.rfind('\n', pos);
  begin = begin == std::string::npos ? 0 : begin + 1;
  return std::strtoull(body.c_str() + begin, nullptr, 10);
}

std::string TraceKey(uint64_t hi, uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, hi, lo);
  return buf;
}

class Runner {
 public:
  Runner(const Args& args, const WorkloadSpec& spec, uint64_t seed)
      : args_(args), spec_(spec), seed_(seed) {}

  /// Fresh generators for every stream, with the preload generated up
  /// front so set-up timing covers only the system under test.
  void Prepare(int streams) {
    streams_.clear();
    for (int s = 0; s < streams; ++s) {
      auto stream = std::make_unique<Stream>();
      stream->index = s;
      stream->pipelined = s == 2;
      stream->protocol = s == 0 ? ClientProtocol::kHttp : ClientProtocol::kTsp1;
      stream->gen = std::make_unique<StreamGen>(spec_, s, seed_);
      for (Op& op : stream->gen->Preload()) {
        stream->writes[op.relation].push_back(std::move(op));
      }
      streams_.push_back(std::move(stream));
    }
  }

  /// DDL over the control connection, the pipelined preload, then one
  /// measurement connection per stream.
  void Preload(uint16_t port) {
    port_ = port;
    QueryClient control(ControlOptions());
    for (auto scenario : spec_.relations) {
      WireReply reply =
          control.Execute(tempspec::TenantDriver::CreateStatement(scenario));
      if (!reply.ok()) Die("DDL failed: " + reply.body);
    }
    RunStreams([this](Stream& s) { PreloadStream(s); });
    for (auto& s : streams_) {
      if (!s->error.empty()) Die("preload: " + s->error);
      tempspec::ClientOptions options;
      options.port = port_;
      options.protocol = s->protocol;
      s->client = std::make_unique<QueryClient>(options);
      s->pipe = std::make_unique<PipeClient>();
      if (s->pipelined) {
        if (!s->pipe->Connect(port_)) Die("pipelined connect failed");
      } else if (!s->client->Connect(port_).ok()) {
        Die("connect failed");
      }
    }
  }

  /// The open loop sends at `rate` for `seconds`; the closed loop sends
  /// `ops` back to back, each stream its share, so the final data set is
  /// the same however fast the system runs. Returns the phase's start.
  Clock::time_point RunPhase(Phase phase, double seconds, double rate,
                             uint64_t ops) {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    RunStreams([&](Stream& s) {
      const double share = spec_.stream_share[static_cast<size_t>(s.index)];
      // Quotas by cumulative share, so they sum to exactly `ops`.
      double before = 0;
      for (int i = 0; i < s.index; ++i) {
        before += spec_.stream_share[static_cast<size_t>(i)];
      }
      const uint64_t quota = static_cast<uint64_t>(
          std::llround(static_cast<double>(ops) * (before + share)) -
          std::llround(static_cast<double>(ops) * before));
      if (s.pipelined) {
        PipelinedPhase(s, phase, start, end, rate * share, quota);
      } else {
        BlockingPhase(s, phase, start, end, rate * share, quota);
      }
    });
    for (auto& s : streams_) {
      if (!s->error.empty()) Die("stream " + std::to_string(s->index) + ": " +
                                 s->error);
    }
    return start;
  }

  void CloseStreams() {
    for (auto& s : streams_) {
      if (s->client) s->client->Close();
      if (s->pipe) s->pipe->Close();
    }
  }

  tempspec::ClientOptions ControlOptions() const {
    tempspec::ClientOptions options;
    options.port = port_;
    options.protocol = ClientProtocol::kHttp;
    options.recv_timeout_ms = 120000;
    return options;
  }

  std::vector<std::unique_ptr<Stream>>& streams() { return streams_; }

 private:
  template <typename Fn>
  void RunStreams(Fn fn) {
    std::vector<std::thread> threads;
    for (auto& s : streams_) {
      Stream* stream = s.get();
      threads.emplace_back([stream, &fn] { fn(*stream); });
    }
    for (auto& t : threads) t.join();
  }

  void PreloadStream(Stream& s) {
    PipeClient pipe;
    if (!pipe.Connect(port_)) {
      s.error = "preload connect failed";
      return;
    }
    std::vector<PipeReply> replies;
    for (const auto& [relation, ops] : s.writes) {
      size_t next = 0;
      while (next < ops.size() || pipe.outstanding() > 0) {
        while (next < ops.size() && pipe.outstanding() < kPreloadDepth) {
          pipe.Send(ops[next].statement, next);
          ++next;
        }
        replies.clear();
        if (!pipe.Pump(1000, &replies)) {
          s.error = "preload connection lost";
          return;
        }
        for (const PipeReply& r : replies) {
          if (!r.reply.ok()) {
            s.error = "preload insert refused: " + r.reply.body;
            return;
          }
        }
      }
      s.acked[relation] = ops.size();
    }
  }

  bool Sampled(const Stream& s) const {
    if (s.sampled.size() >= kSamplesPerStream) return false;
    uint64_t x = (seed_ * 0x9E3779B97F4A7C15ULL) ^
                 (static_cast<uint64_t>(s.index) << 48) ^ s.op_index;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 32;
    return x % kSampleEvery == 0;
  }

  /// Books one finished op; `op` is the generated operation.
  void Record(Stream& s, Op& op, Sample sample, const WireReply& reply,
              uint64_t writes_before, bool sampled) {
    sample.outcome = reply.outcome;
    sample.reply_bytes = reply.body.size();
    if (!IsWrite(op.kind) && reply.ok()) sample.examined = ExaminedOf(reply.body);
    if (IsWrite(op.kind)) {
      if (reply.ok()) {
        ++s.acked[op.relation];
      } else if (reply.outcome == WireOutcome::kClientError) {
        ++s.constraint_rejections;
      } else if (reply.outcome != WireOutcome::kRejected) {
        ++s.ambiguous[op.relation];
      }
      if (reply.outcome == WireOutcome::kRejected) ++s.rejections;
    } else {
      if (reply.outcome == WireOutcome::kRejected) ++s.rejections;
      if (sampled && reply.ok()) {
        s.sampled.push_back(
            {op.relation, writes_before, op.statement, reply.body});
      }
      if (sample.phase == Phase::kOpen) s.reads.push_back(op);
    }
    s.samples.push_back(std::move(sample));
  }

  /// Next op; `writes_before` counts the inserts sent to its relation
  /// before it (the state a read observes: one owner, in-order replies).
  Op NextOp(Stream& s, uint64_t* writes_before) {
    Op op = s.gen->Next();
    if (IsWrite(op.kind)) s.writes[op.relation].push_back(op);
    *writes_before = s.writes[op.relation].size();
    return op;
  }

  void BlockingPhase(Stream& s, Phase phase, Clock::time_point start,
                     Clock::time_point end, double rate, uint64_t quota) {
    const double interval_us = rate > 0 ? 1e6 / rate : 0;
    const double offset_us = interval_us * s.index / kMaxStreams;
    for (uint64_t k = 0;; ++k) {
      Clock::time_point slot = Clock::now();
      if (phase == Phase::kOpen) {
        slot = start + std::chrono::microseconds(static_cast<int64_t>(
                           offset_us + interval_us * static_cast<double>(k)));
        if (slot >= end) break;
        if (Clock::now() < slot) {
          std::this_thread::sleep_until(slot);
          s.late_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - slot)
                  .count());
        }
      } else if (k >= quota) {
        break;
      } else if (slot >= end) {
        s.error = "closed-loop quota not reached in time";
        return;
      }
      uint64_t writes_before = 0;
      Op op = NextOp(s, &writes_before);
      const bool sampled = !IsWrite(op.kind) && Sampled(s);
      ++s.op_index;
      Sample sample;
      sample.kind = op.kind;
      sample.phase = phase;
      sample.slot = slot;
      sample.sent = Clock::now();
      WireReply reply = s.client->Execute(op.statement);
      sample.done = Clock::now();
      if (args_.trace) sample.trace = s.client->last_trace_id();
      if (reply.outcome == WireOutcome::kTransport) {
        s.error = "transport failure: " + reply.body;
        return;
      }
      Record(s, op, std::move(sample), reply, writes_before, sampled);
    }
  }

  void PipelinedPhase(Stream& s, Phase phase, Clock::time_point start,
                      Clock::time_point end, double rate, uint64_t quota) {
    const double interval_us = rate > 0 ? 1e6 / rate : 0;
    const double offset_us = interval_us * s.index / kMaxStreams;
    struct Pending {
      Op op;
      Sample sample;
      uint64_t writes_before = 0;
      bool sampled = false;
    };
    std::map<uint64_t, Pending> pending;
    std::vector<PipeReply> replies;
    uint64_t k = 0;
    const uint64_t trace_hi = 0x7462656e63680000ULL | static_cast<uint64_t>(s.index);
    auto send = [&](Clock::time_point slot) {
      Pending p;
      p.op = NextOp(s, &p.writes_before);
      p.sampled = !IsWrite(p.op.kind) && Sampled(s);
      ++s.op_index;
      p.sample.kind = p.op.kind;
      p.sample.phase = phase;
      p.sample.slot = slot;
      p.sample.sent = Clock::now();
      const uint64_t tag = s.op_index;
      if (args_.trace) {
        p.sample.trace = TraceKey(trace_hi, tag);
        s.pipe->Send(p.op.statement, tag, trace_hi, tag);
      } else {
        s.pipe->Send(p.op.statement, tag);
      }
      pending.emplace(tag, std::move(p));
    };
    auto pump = [&](int64_t timeout_us) {
      replies.clear();
      if (!s.pipe->Pump(timeout_us, &replies)) {
        s.error = "pipelined connection lost";
        return false;
      }
      const Clock::time_point now = Clock::now();
      for (PipeReply& r : replies) {
        auto it = pending.find(r.tag);
        if (it == pending.end()) continue;
        it->second.sample.done = now;
        Record(s, it->second.op, std::move(it->second.sample), r.reply,
               it->second.writes_before, it->second.sampled);
        pending.erase(it);
      }
      return true;
    };

    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= end) break;
      if (phase == Phase::kOpen) {
        const Clock::time_point slot =
            start + std::chrono::microseconds(static_cast<int64_t>(
                        offset_us + interval_us * static_cast<double>(k)));
        if (slot >= end) {
          if (!pump(std::chrono::duration_cast<std::chrono::microseconds>(
                        end - now).count())) return;
          continue;
        }
        if (now >= slot) {
          s.late_ms.push_back(
              std::chrono::duration<double, std::milli>(now - slot).count());
          send(slot);
          ++k;
          if (!pump(0)) return;
          continue;
        }
        if (!pump(std::chrono::duration_cast<std::chrono::microseconds>(
                      slot - now).count())) return;
      } else {
        while (k < quota && s.pipe->outstanding() < kClosedDepth) {
          send(Clock::now());
          ++k;
        }
        if (k == quota) break;
        if (!pump(1000)) return;
      }
    }
    if (phase == Phase::kClosed && k < quota) {
      s.error = "closed-loop quota not reached in time";
      return;
    }
    const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(60);
    while (s.pipe->outstanding() > 0 && Clock::now() < drain_deadline) {
      if (!pump(1000)) return;
    }
    if (s.pipe->outstanding() > 0) s.error = "replies did not drain";
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  uint64_t seed_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Stream>> streams_;
};

// ---------------------------------------------------------------------------
// Measurements shared by both modes.

struct PhaseStats {
  std::vector<double> read_ms, write_ms;
  uint64_t ops = 0, failed = 0;
  double first_half_read_p50 = 0, second_half_read_p50 = 0;
};

PhaseStats Collect(const std::vector<std::unique_ptr<Stream>>& streams,
                   Phase phase) {
  PhaseStats st;
  std::vector<std::pair<Clock::time_point, double>> reads;
  for (const auto& s : streams) {
    for (const Sample& x : s->samples) {
      if (x.phase != phase) continue;
      ++st.ops;
      if (x.outcome != WireOutcome::kOk) ++st.failed;
      const double ms =
          std::chrono::duration<double, std::milli>(x.done - x.slot).count();
      if (IsWrite(x.kind)) {
        st.write_ms.push_back(ms);
      } else {
        st.read_ms.push_back(ms);
        reads.emplace_back(x.slot, ms);
      }
    }
  }
  std::sort(reads.begin(), reads.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> first, second;
  for (size_t i = 0; i < reads.size(); ++i) {
    (i < reads.size() / 2 ? first : second).push_back(reads[i].second);
  }
  st.first_half_read_p50 = Percentile(first, 0.5);
  st.second_half_read_p50 = Percentile(second, 0.5);
  return st;
}

std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double At(const std::map<std::string, double>& metrics, const std::string& name) {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0 : it->second;
}

std::map<std::string, double> Scrape(QueryClient& control) {
  auto text = control.Get("/metrics");
  if (!text.ok()) Die("metrics scrape failed");
  return ParseMetrics(text.ValueOrDie());
}

uint64_t DiskBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) bytes += it->file_size();
  }
  if (ec) Die("cannot measure " + dir + ": " + ec.message());
  return bytes;
}

struct CheckResult {
  bool ok = true;
  std::vector<std::string> problems;
  void Fail(std::string why) {
    ok = false;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

/// CURRENT counts within the bounds the acked and ambiguous inserts set.
void CheckCounts(const WorkloadSpec& spec,
                 const std::vector<std::unique_ptr<Stream>>& streams,
                 const std::function<uint64_t(const std::string&)>& count,
                 CheckResult* check) {
  for (const auto& s : streams) {
    for (int r : s->gen->owned()) {
      const std::string name =
          tempspec::ScenarioRelationName(spec.relations[static_cast<size_t>(r)]);
      const uint64_t lo = s->acked[r];
      const uint64_t hi = lo + s->ambiguous[r];
      const uint64_t got = count(name);
      if (got < lo || got > hi) {
        check->Fail("CURRENT " + name + " has " + std::to_string(got) +
                    " element(s), expected [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
      }
    }
  }
}

/// TemporalRelation::Insert of a generated insert, as the statement would.
tempspec::Result<tempspec::ElementSurrogate> InsertOp(
    tempspec::TemporalRelation* relation, const Op& op) {
  const auto vb = tempspec::TimePoint::FromMicros(op.vt_begin_us);
  const auto valid =
      op.vt_end_us == op.vt_begin_us
          ? tempspec::ValidTime::Event(vb)
          : tempspec::ValidTime::IntervalUnchecked(
                vb, tempspec::TimePoint::FromMicros(op.vt_end_us));
  const tempspec::Value key(static_cast<int64_t>(op.object));
  tempspec::Tuple tuple = op.label.empty()
                              ? tempspec::Tuple{key, tempspec::Value(op.amount)}
                              : tempspec::Tuple{key, tempspec::Value(op.label)};
  return relation->Insert(op.object, valid, std::move(tuple));
}

/// Replays every acked insert on an in-memory shadow QueryService and
/// byte-compares the sampled read replies at their positions.
void CheckShadow(const WorkloadSpec& spec,
                 const std::vector<std::unique_ptr<Stream>>& streams,
                 CheckResult* check, size_t* compared) {
  tempspec::QueryService shadow;
  if (!shadow.Open().ok()) Die("shadow open failed");
  *compared = 0;
  for (const auto& s : streams) {
    for (int r : s->gen->owned()) {
      const auto scenario = spec.relations[static_cast<size_t>(r)];
      if (!shadow.Execute(tempspec::TenantDriver::CreateStatement(scenario),
                          nullptr).ok()) {
        Die("shadow DDL failed");
      }
      std::vector<const SampledRead*> reads;
      for (const SampledRead& sr : s->sampled) {
        if (sr.relation == r) reads.push_back(&sr);
      }
      std::stable_sort(reads.begin(), reads.end(),
                       [](const SampledRead* a, const SampledRead* b) {
                         return a->writes_before < b->writes_before;
                       });
      const std::vector<Op>& writes = s->writes[r];
      const size_t preload = spec.preload[static_cast<size_t>(r)];
      auto relation = shadow.catalog().Get(tempspec::ScenarioRelationName(scenario));
      if (!relation.ok()) Die("shadow relation missing");
      size_t next_read = 0;
      for (size_t w = 0; w <= writes.size(); ++w) {
        while (next_read < reads.size() && reads[next_read]->writes_before == w) {
          const SampledRead& sr = *reads[next_read++];
          auto got = shadow.Execute(sr.statement, nullptr);
          ++*compared;
          if (!got.ok() || got.ValueOrDie() != sr.reply) {
            check->Fail("reply differs from the shadow for: " + sr.statement);
          }
        }
        if (w >= writes.size()) break;
        // The preload goes straight into the relation (parsing 340k
        // statements would dominate the run); measured writes are replayed
        // as the statements the server acked.
        const bool ok = w < preload
                            ? InsertOp(relation.ValueOrDie(), writes[w]).ok()
                            : shadow.Execute(writes[w].statement, nullptr).ok();
        if (!ok) check->Fail("shadow refused: " + writes[w].statement);
      }
    }
  }
}

void CheckLateness(const std::vector<std::unique_ptr<Stream>>& streams,
                   double* p99) {
  std::vector<double> late;
  for (const auto& s : streams) late.insert(late.end(), s->late_ms.begin(), s->late_ms.end());
  *p99 = Percentile(late, 0.99);
  if (*p99 > kLateLimitMs) {
    std::printf("generator late p99 %.3f ms exceeds %.1f ms: run invalid\n",
                *p99, kLateLimitMs);
    std::fflush(stdout);
    Die("run invalid: the open-loop generator fell behind its schedule", 3);
  }
}

int StreamCount() {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int streams =
      static_cast<int>(std::clamp<long>(nproc - 1, 1, kMaxStreams));
  // Load-generator threads (streams + main) and connections (streams +
  // control) must both fit the machine.
  if (streams + 1 > nproc) {
    Die("needs at least 2 processors, found " + std::to_string(nproc));
  }
  return streams;
}

std::string PhaseLine(const char* name, const PhaseStats& st) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s phase: %" PRIu64 " ops, %" PRIu64
                " failed, reads %zu, writes %zu, read p50 first half %.4f ms, "
                "second half %.4f ms",
                name, st.ops, st.failed, st.read_ms.size(), st.write_ms.size(),
                st.first_half_read_p50, st.second_half_read_p50);
  return buf;
}

uint64_t LiveElements(const std::vector<std::unique_ptr<Stream>>& streams) {
  uint64_t live = 0;
  for (const auto& s : streams) {
    for (const auto& [r, n] : s->acked) live += n;
  }
  return live;
}

void PrintChecks(const CheckResult& check, size_t compared) {
  std::printf("output checks: %s (%zu read replies byte-compared)\n",
              check.ok ? "pass" : "FAIL", compared);
  for (const auto& p : check.problems) std::printf("  check failed: %s\n", p.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: the spawned daemon.

int RunEndToEnd(const Args& args) {
  const int streams = StreamCount();
  const WorkloadSpec spec = MakeSpec(args.workload, streams);
  Runner runner(args, spec, args.seed);
  const std::string log = args.work_dir + "/serve.log";

  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  const std::string data_dir = args.work_dir + "/data";
  const Load load = LoadOf(args.workload);
  for (int i = 0; i < load.setups; ++i) {
    if (daemon) {
      daemon->Stop();
      runner.CloseStreams();
    }
    fs::remove_all(data_dir);
    runner.Prepare(streams);
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.serve, data_dir, log);
    daemon->Start();
    runner.Preload(daemon->port());
    setups.push_back(Seconds(t0, Clock::now()));
  }
  const uint64_t preloaded = LiveElements(runner.streams());

  QueryClient control(runner.ControlOptions());
  const auto before = Scrape(control);
  const HostCpu host_before = ReadHostCpu();
  runner.RunPhase(Phase::kOpen, args.seconds, load.open_rate, 0);
  const auto mid = Scrape(control);
  const double cpu_before = daemon->CpuSeconds();
  const Clock::time_point closed_start = runner.RunPhase(
      Phase::kClosed, kClosedTimeoutS, 0, load.closed_ops);
  const Clock::time_point closed_end = Clock::now();
  const double cpu_s = daemon->CpuSeconds() - cpu_before;
  const HostCpu host_after = ReadHostCpu();
  const auto after = Scrape(control);
  control.Close();

  const PhaseStats open = Collect(runner.streams(), Phase::kOpen);
  const PhaseStats closed = Collect(runner.streams(), Phase::kClosed);
  double late_p99 = 0;
  CheckLateness(runner.streams(), &late_p99);

  const uint64_t live = LiveElements(runner.streams());
  const double rss_mb = daemon->PeakRssMb();
  runner.CloseStreams();

  // Graceful restarts, each timed from SIGTERM to the first successful
  // read; restart_s is their median. The first one's down time also
  // measures the data directory (untimed).
  QueryClient probe(runner.ControlOptions());
  const std::string probe_read =
      "ROLLBACK " +
      std::string(tempspec::ScenarioRelationName(spec.relations[0])) +
      " TO '1970-01-01 00:00:00'";
  double disk_per_element = 0;
  std::vector<double> restarts;
  for (int i = 0; i < kRestarts; ++i) {
    probe.Close();
    const Clock::time_point t_stop = Clock::now();
    daemon->Stop();
    const double stop_s = Seconds(t_stop, Clock::now());
    if (i == 0) {
      disk_per_element =
          static_cast<double>(DiskBytes(data_dir)) / static_cast<double>(live);
    }
    const Clock::time_point t_start = Clock::now();
    daemon->Start();
    for (;;) {
      if (probe.connected() || probe.Connect(daemon->port()).ok()) {
        if (probe.Execute(probe_read).ok()) break;
      }
      if (Seconds(t_start, Clock::now()) > 120) Die("restart: no successful read");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    restarts.push_back(stop_s + Seconds(t_start, Clock::now()));
  }
  const double restart_s = Percentile(restarts, 0.5);

  CheckResult check;
  CheckCounts(spec, runner.streams(),
              [&](const std::string& name) {
                WireReply reply = probe.Execute("CURRENT " + name);
                return reply.ok() ? CountOf(reply.body) : UINT64_MAX;
              },
              &check);
  probe.Close();
  daemon->Stop();
  fs::remove_all(data_dir);

  size_t compared = 0;
  CheckShadow(spec, runner.streams(), &check, &compared);

  // Client/server reconciliation: every statement the streams sent was
  // counted by the server (no admission rejections are expected).
  uint64_t sent = 0, rejected = 0, constraint = 0;
  for (const auto& s : runner.streams()) {
    sent += s->samples.size();
    rejected += s->rejections;
    constraint += s->constraint_rejections;
  }
  const double served = At(after, "server_requests") - At(before, "server_requests");
  if (static_cast<uint64_t>(served) != sent - rejected) {
    check.Fail("server counted " + std::to_string(static_cast<uint64_t>(served)) +
               " statements, clients sent " + std::to_string(sent - rejected));
  }

  const uint64_t attempted = open.ops + closed.ops;
  const uint64_t failed = open.failed + closed.failed;

  std::printf("workload %s seed %" PRIu64 ": %d streams (HTTP, TSP1, TSP1 "
              "pipelined), open loop %.0f ops/s for %.2f s, closed loop %" PRIu64
              " ops in %.2f s\n",
              WorkloadName(args.workload), args.seed, streams, load.open_rate,
              args.seconds, load.closed_ops,
              Seconds(closed_start, closed_end));
  std::printf("preload %" PRIu64 " elements, measured growth %" PRIu64
              " (%.1f%% of preload)\n",
              preloaded, live - preloaded,
              100.0 * static_cast<double>(live - preloaded) /
                  static_cast<double>(preloaded));
  std::printf("%s\n%s\n", PhaseLine("open-loop", open).c_str(),
              PhaseLine("closed-loop", closed).c_str());
  const double ticks = (host_after.busy - host_before.busy) +
                       (host_after.idle - host_before.idle) +
                       (host_after.steal - host_before.steal);
  std::printf("host CPU during the measured phases: %.1f%% busy, %.1f%% "
              "stolen by the hypervisor\n",
              100 * (host_after.busy - host_before.busy) / std::max(ticks, 1.0),
              100 * (host_after.steal - host_before.steal) / std::max(ticks, 1.0));
  std::printf("set-ups (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  // Exact counter deltas from the /metrics scrapes around each phase.
  const auto counters = [](const char* phase,
                           const std::map<std::string, double>& from,
                           const std::map<std::string, double>& to) {
    const auto delta = [&](const char* name) { return At(to, name) - At(from, name); };
    const double appends = delta("storage_wal_appends");
    std::printf("%s counters: server.requests %.0f, WAL appends %.0f, %.1f "
                "bytes/append, syncs %.0f\n",
                phase, delta("server_requests"), appends,
                appends > 0 ? delta("storage_wal_bytes_appended") / appends : 0.0,
                delta("storage_wal_syncs"));
  };
  counters("open-loop", before, mid);
  counters("closed-loop", mid, after);
  PrintChecks(check, compared);
  for (const auto& s : runner.streams()) {
    std::vector<double> ms;
    for (const Sample& x : s->samples) {
      if (x.phase == Phase::kOpen) {
        ms.push_back(
            std::chrono::duration<double, std::milli>(x.done - x.slot).count());
      }
    }
    std::printf("stream %d (%s): open-loop p50 %.4f ms, p99 %.4f ms, n=%zu; "
                "generator late p50 %.4f ms, p99 %.4f ms\n",
                s->index,
                s->pipelined ? "TSP1 pipelined"
                             : s->protocol == ClientProtocol::kHttp ? "HTTP"
                                                                    : "TSP1",
                Percentile(ms, 0.5), Percentile(ms, 0.99), ms.size(),
                Percentile(s->late_ms, 0.5), Percentile(s->late_ms, 0.99));
  }

  // The JSON carries the metrics steady enough to gate a change on a VM
  // whose hypervisor steals a varying share of the CPU; the timings are
  // printed for the record and for paired comparisons (see README.md).
  Report report;
  std::printf("metrics:\n");
  report.Add("setup_s", Percentile(setups, 0.5), "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  PrintMetric("throughput_ops_s",
              static_cast<double>(closed.ops - closed.failed) /
                  Seconds(closed_start, closed_end),
              "ops/s", "closed loop, n=" + std::to_string(closed.ops));
  PrintMetric("server_cpu_us_per_op",
              cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(closed.ops, 1)),
              "us", "closed loop");
  PrintMetric("read_p50_ms", Percentile(open.read_ms, 0.5), "ms",
              "n=" + std::to_string(open.read_ms.size()));
  PrintMetric("read_p99_ms", Percentile(open.read_ms, 0.99), "ms",
              TailNote(open.read_ms));
  PrintMetric("write_p50_ms", Percentile(open.write_ms, 0.5), "ms",
              "n=" + std::to_string(open.write_ms.size()));
  PrintMetric("write_p99_ms", Percentile(open.write_ms, 0.99), "ms",
              TailNote(open.write_ms));
  PrintMetric("restart_s", restart_s, "s",
              "median of " + std::to_string(kRestarts) + " restarts");
  uint64_t examined = 0, reads_ok = 0;
  for (const auto& st : runner.streams()) {
    for (const Sample& x : st->samples) {
      if (x.phase == Phase::kOpen && !IsWrite(x.kind) &&
          x.outcome == WireOutcome::kOk) {
        examined += x.examined;
        ++reads_ok;
      }
    }
  }
  report.Add("examined_per_read",
             static_cast<double>(examined) /
                 static_cast<double>(std::max<uint64_t>(reads_ok, 1)),
             "rows", "open loop, n=" + std::to_string(reads_ok));
  report.Add("disk_bytes_per_element", disk_per_element, "bytes",
             "n=" + std::to_string(live));
  report.Add("server_rss_mb", rss_mb, "MB", "VmHWM");
  PrintMetric("failed_ratio",
              attempted ? static_cast<double>(failed) / attempted : 0.0, "ratio",
              "constraint rejections " + std::to_string(constraint));
  PrintMetric("bench.generator_late_ms.p99", late_p99, "ms", "");
  std::printf("%s\n", report.Json(check.ok, attempted, failed).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the in-process stack.

int RunTraced(const Args& args) {
  const int streams = StreamCount();
  const WorkloadSpec spec = MakeSpec(args.workload, streams);
  Runner runner(args, spec, args.seed);
  const std::string data_dir = args.work_dir + "/inproc";
  fs::remove_all(data_dir);

  auto stack = std::make_unique<InProcessStack>(data_dir);
  runner.Prepare(streams);
  runner.Preload(stack->port());
  const uint64_t preloaded = LiveElements(runner.streams());

  QueryClient control(runner.ControlOptions());
  const auto before = Scrape(control);
  g_spans = true;
  const Load load = LoadOf(args.workload);
  runner.RunPhase(Phase::kOpen, args.seconds, load.open_rate, 0);
  g_spans = false;
  const auto after = Scrape(control);
  runner.RunPhase(Phase::kClosed, kClosedTimeoutS, 0, load.closed_ops);
  runner.CloseStreams();
  double late_p99 = 0;
  CheckLateness(runner.streams(), &late_p99);

  Report report;
  std::printf("metrics:\n");

  // net: raw ping, then span joins.
  report.Add("net.ping_rtt_us", PingRttMicros(stack->port(), 2000), "us");
  std::map<std::string, const HandlerSpan*> by_trace;
  for (const HandlerSpan& h : g_handler_spans) {
    if (!h.trace.empty()) by_trace[h.trace] = &h;
  }
  std::vector<double> to_handler, from_handler, exec_read, exec_write;
  double reply_bytes = 0;
  uint64_t open_ops = 0;
  std::ofstream spans_out(args.spans, std::ios::trunc);
  const Clock::time_point t0 = Clock::now();
  for (const auto& s : runner.streams()) {
    for (const Sample& x : s->samples) {
      if (x.phase != Phase::kOpen) continue;
      ++open_ops;
      reply_bytes += static_cast<double>(x.reply_bytes);
      auto it = by_trace.find(x.trace);
      if (it == by_trace.end()) continue;
      const HandlerSpan& h = *it->second;
      const auto us = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
      };
      to_handler.push_back(us(x.sent, h.enter));
      from_handler.push_back(us(h.exit, x.done));
      (h.write ? exec_write : exec_read).push_back(us(h.enter, h.exit));
      // Root span = the client request; its child = the handler span.
      spans_out << "{\"trace\":\"" << x.trace << "\",\"op\":\""
                << OpKindName(x.kind) << "\",\"client_start_us\":"
                << us(t0, x.sent) << ",\"client_us\":" << us(x.sent, x.done)
                << ",\"handler_us\":" << us(h.enter, h.exit)
                << ",\"client_self_us\":"
                << us(x.sent, x.done) - us(h.enter, h.exit) << "}\n";
    }
  }
  spans_out.close();
  const size_t joined = to_handler.size();
  report.Add("net.to_handler_us", Percentile(to_handler, 0.5), "us",
             "n=" + std::to_string(joined));
  report.Add("net.from_handler_us", Percentile(from_handler, 0.5), "us");
  report.Add("net.bytes_out_per_op", reply_bytes / std::max<uint64_t>(open_ops, 1),
             "bytes");
  const tempspec::ServerStats stats = stack->server().Stats();
  report.Add("net.rejected_ratio",
             static_cast<double>(stats.requests_rejected) /
                 static_cast<double>(std::max<uint64_t>(
                     stats.requests + stats.requests_rejected, 1)),
             "ratio");
  report.Add("catalog.execute_us.read.p50", Percentile(exec_read, 0.5), "us",
             "n=" + std::to_string(exec_read.size()));
  report.Add("catalog.execute_us.read.p99", Percentile(exec_read, 0.99), "us");
  report.Add("catalog.execute_us.write.p50", Percentile(exec_write, 0.5), "us",
             "n=" + std::to_string(exec_write.size()));
  report.Add("catalog.execute_us.write.p99", Percentile(exec_write, 0.99), "us");

  // Trace overhead: client p50 of identical reads, spans on vs off.
  {
    QueryClient probe([&] {
      tempspec::ClientOptions o = runner.ControlOptions();
      o.protocol = ClientProtocol::kTsp1;
      return o;
    }());
    if (!probe.Connect(stack->port()).ok()) Die("probe connect failed");
    const std::string rel =
        tempspec::ScenarioRelationName(spec.relations[0]);
    const std::string read = "ROLLBACK " + rel + " TO '1970-01-01 00:00:05'";
    std::vector<double> on, off;
    for (int block = 0; block < 20; ++block) {
      g_spans = block % 2 == 0;
      for (int i = 0; i < 100; ++i) {
        const Clock::time_point a = Clock::now();
        if (!probe.Execute(read).ok()) Die("probe read failed");
        (g_spans ? on : off)
            .push_back(std::chrono::duration<double, std::micro>(Clock::now() - a)
                           .count());
      }
    }
    g_spans = false;
    report.Add("bench.trace_overhead_ratio",
               Percentile(on, 0.5) / Percentile(off, 0.5), "ratio");
  }
  const double wal_appends =
      At(after, "storage_wal_appends") - At(before, "storage_wal_appends");
  const double wal_bytes = At(after, "storage_wal_bytes_appended") -
                           At(before, "storage_wal_bytes_appended");
  const double wal_syncs =
      At(after, "storage_wal_syncs") - At(before, "storage_wal_syncs");
  control.Close();
  stack->Stop();

  // query: replay the open-loop reads through the executor.
  std::vector<double> exec_us[kOpKinds];
  uint64_t scanned = 0, matched = 0, morsels = 0, queries = 0, row_kernel = 0;
  {
    // The workload's own open-loop reads, then generated reads of each kind
    // the workload sends fewer than kReplayFloor of, so every query.exec_us
    // kind is measured on every workload. The ratios below count only the
    // workload's own reads.
    std::vector<std::pair<Op, bool>> replay;
    size_t per_kind[kOpKinds] = {};
    for (const auto& s : runner.streams()) {
      for (const Op& op : s->reads) {
        replay.emplace_back(op, true);
        ++per_kind[static_cast<int>(op.kind)];
      }
    }
    for (OpKind kind : {OpKind::kTimeslice, OpKind::kAsOf, OpKind::kRollback,
                        OpKind::kRange}) {
      for (size_t made = 0; per_kind[static_cast<int>(kind)] < kReplayFloor;) {
        for (const auto& s : runner.streams()) {
          for (int r : s->gen->owned()) {
            RelationGen& gen = s->gen->relation(r);
            if (!gen.SupportsRead(kind)) continue;
            Op op = gen.NextRead(kind, false);
            op.relation = r;
            replay.emplace_back(std::move(op), false);
            ++per_kind[static_cast<int>(kind)];
            ++made;
          }
        }
        if (made == 0) break;  // no relation supports this kind
      }
    }
    auto& catalog = stack->service().catalog();
    for (const auto& [op, own] : replay) {
      {
        const std::string name = tempspec::ScenarioRelationName(
            spec.relations[static_cast<size_t>(op.relation)]);
        auto rel = catalog.Get(name);
        if (!rel.ok()) Die("replay: no relation " + name);
        tempspec::QueryExecutor exec(*rel.ValueOrDie());
        tempspec::QueryStats qs;
        const auto at = tempspec::TimePoint::FromMicros(op.at_us);
        const auto to = tempspec::TimePoint::FromMicros(op.to_us);
        bool row = false;
        const Clock::time_point a = Clock::now();
        switch (op.kind) {
          case OpKind::kTimeslice:
            exec.TimesliceSet(at, &qs);
            row = exec.optimizer().PlanTimeslice(at).kernel ==
                  tempspec::ScanKernel::kRowAtATime;
            break;
          case OpKind::kAsOf:
            exec.TimesliceAsOfSet(at, to, &qs);
            row = exec.optimizer().PlanTimeslice(at).kernel ==
                  tempspec::ScanKernel::kRowAtATime;
            break;
          case OpKind::kRollback:
            exec.RollbackSet(at, &qs);
            break;
          case OpKind::kRange:
          case OpKind::kWideRange:
            exec.ValidRangeSet(at, to, &qs);
            row = exec.optimizer().PlanValidRange(at, to).kernel ==
                  tempspec::ScanKernel::kRowAtATime;
            break;
          case OpKind::kInsert:
            break;
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - a).count();
        const int k = op.kind == OpKind::kWideRange
                          ? static_cast<int>(OpKind::kRange)
                          : static_cast<int>(op.kind);
        exec_us[k].push_back(us);
        if (!own) continue;
        scanned += qs.rows_scanned;
        matched += qs.rows_matched;
        morsels += qs.morsels_executed;
        ++queries;
        if (row) ++row_kernel;
      }
    }
  }
  std::vector<double> all_exec;
  for (int k = 1; k < kOpKinds; ++k) {
    all_exec.insert(all_exec.end(), exec_us[k].begin(), exec_us[k].end());
  }
  report.Add("catalog.render_us", Mean(exec_read) - Mean(all_exec), "us",
             "mean execute_us.read - mean query.exec_us");
  for (OpKind kind : {OpKind::kTimeslice, OpKind::kRange, OpKind::kAsOf,
                      OpKind::kRollback}) {
    const auto& v = exec_us[static_cast<int>(kind)];
    report.Add(std::string("query.exec_us.") + OpKindName(kind),
               Percentile(v, 0.5), "us", "n=" + std::to_string(v.size()));
  }
  report.Add("query.scanned_per_returned",
             static_cast<double>(scanned) / std::max<uint64_t>(matched, 1),
             "ratio");
  report.Add("query.morsels_per_query",
             static_cast<double>(morsels) / std::max<uint64_t>(queries, 1),
             "count");
  report.Add("query.row_kernel_share",
             static_cast<double>(row_kernel) / std::max<uint64_t>(queries, 1),
             "ratio");

  CheckResult check;
  CheckCounts(spec, runner.streams(),
              [&](const std::string& name) -> uint64_t {
                auto rel = stack->service().catalog().Get(name);
                if (!rel.ok()) return UINT64_MAX;
                return tempspec::QueryExecutor(*rel.ValueOrDie()).CurrentSet().size();
              },
              &check);
  stack.reset();
  size_t compared = 0;
  CheckShadow(spec, runner.streams(), &check, &compared);

  // relation: the inserts replayed on a durable side relation.
  std::vector<double> insert_us;
  uint64_t side_rejections = 0, wire_rejections = 0;
  {
    const std::string side_dir = args.work_dir + "/side";
    fs::remove_all(side_dir);
    tempspec::QueryServiceOptions options;
    options.data_dir = side_dir;
    tempspec::QueryService side(options);
    if (!side.Open().ok()) Die("side open failed");
    for (const auto& s : runner.streams()) {
      wire_rejections += s->constraint_rejections;
      for (int r : s->gen->owned()) {
        const auto scenario = spec.relations[static_cast<size_t>(r)];
        if (!side.Execute(tempspec::TenantDriver::CreateStatement(scenario),
                          nullptr).ok()) {
          Die("side DDL failed");
        }
        auto rel = side.catalog().Get(tempspec::ScenarioRelationName(scenario));
        if (!rel.ok()) Die("side relation missing");
        tempspec::TemporalRelation* relation = rel.ValueOrDie();
        const std::vector<Op>& writes = s->writes[r];
        const size_t preload = spec.preload[static_cast<size_t>(r)];
        for (size_t w = 0; w < writes.size(); ++w) {
          const Clock::time_point a = Clock::now();
          auto inserted = InsertOp(relation, writes[w]);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - a).count();
          if (!inserted.ok()) ++side_rejections;
          if (w >= preload) insert_us.push_back(us);
        }
      }
    }
  }
  report.Add("relation.insert_us", Percentile(insert_us, 0.5), "us",
             "n=" + std::to_string(insert_us.size()));
  report.Add("relation.constraint_rejections",
             static_cast<double>(wire_rejections + side_rejections), "count");
  report.Add("storage.wal_bytes_per_insert",
             wal_appends > 0 ? wal_bytes / wal_appends : 0, "bytes",
             "n=" + std::to_string(static_cast<uint64_t>(wal_appends)));
  report.Add("storage.wal_syncs_per_insert",
             wal_appends > 0 ? wal_syncs / wal_appends : 0, "ratio");

  // storage: recovery of a copy of the data directory.
  {
    const std::string copy = args.work_dir + "/recovery";
    fs::remove_all(copy);
    fs::copy(data_dir, copy, fs::copy_options::recursive);
    auto& entries = tempspec::MetricsRegistry::Instance().GetCounter(
        "storage.backlog.recovered_entries");
    const uint64_t entries_before = entries.Value();
    tempspec::QueryServiceOptions options;
    options.data_dir = copy;
    const Clock::time_point a = Clock::now();
    {
      tempspec::QueryService recovered(options);
      if (!recovered.Open().ok()) Die("recovery open failed");
      report.Add("storage.recovery_s", Seconds(a, Clock::now()), "s");
    }
    report.Add("storage.recovered_entries",
               static_cast<double>(entries.Value() - entries_before), "count");
    fs::remove_all(copy);
  }
  fs::remove_all(data_dir);
  fs::remove_all(args.work_dir + "/side");
  report.Add("bench.generator_late_ms.p99", late_p99, "ms");

  const PhaseStats open = Collect(runner.streams(), Phase::kOpen);
  const PhaseStats closed = Collect(runner.streams(), Phase::kClosed);
  std::printf("traced %s seed %" PRIu64 ": preload %" PRIu64
              " elements, %zu of %" PRIu64 " open-loop requests joined to "
              "handler spans\n%s\n%s\n",
              WorkloadName(args.workload), args.seed, preloaded, joined, open_ops,
              PhaseLine("open-loop", open).c_str(),
              PhaseLine("closed-loop", closed).c_str());
  PrintChecks(check, compared);
  if (joined * 10 < open_ops * 9) check.Fail("too few spans joined");
  std::printf("%s\n", report.Json(check.ok, open.ops + closed.ops,
                                  open.failed + closed.failed)
                          .c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--serve") {
      args->serve = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 && !args->work_dir.empty() &&
         (args->trace ? !args->spans.empty() : !args->serve.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tsbench --workload ingest|history_scan|chatter "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
                 "               [--serve PATH (trace 0)] [--spans PATH (trace 1)]\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(args.work_dir);
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
