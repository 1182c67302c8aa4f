// tempspec_simulate: seven-tenant production traffic simulator with SLO
// gates and hostile-scenario harness.
//
// Maps the paper's seven applications onto seven concurrently-driven
// relations of one live tempspec_serve daemon (spawned from --serve-bin),
// mixing HTTP and TSP1 tenants, closed-loop and paced arrival, per-tenant
// deadline budgets and read/write mixes. After the run every tenant's
// client-side ledger is reconciled against the server: CURRENT counts must
// land inside the acked-insert/delete bounds, and (metrics builds, no
// restarts) the scraped server.requests / server.requests_rejected counters
// must match the clients' reply counts exactly, widened only by
// transport-ambiguous sends.
//
// Hostile scenarios behind flags:
//   --scenario-drift         the ledger tenant starts violating its declared
//                            STRONGLY BOUNDED band a third into the run; the
//                            drift monitor must flip SHOW SPECIALIZATION to
//                            DRIFTED (metrics builds). Plans do not change:
//                            enforcement keeps the stored band sound.
//   --scenario-crash         SIGKILL the daemon at peak load halfway
//                            through, restart on the same data dir; tenants
//                            reconnect and every acked write must still be
//                            readable afterwards.
//   --scenario-cold-restart  graceful stop + restart at the end; measures
//                            time from exec to the first successful CURRENT
//                            and re-verifies that no element moved.
//
// Health plane (metrics builds): the daemon is spawned with --slo declaring
// a generous p99 objective for every tenant relation and --history-ms so the
// sampler feeds /metrics/history and the SLO watchdog. The simulator scrapes
// /debug/health mid-run and after the run, cross-checks the server's
// per-relation verdicts against the client-side latency ledgers (a tenant
// whose client p99 is inside the objective must read "ok" server-side). A
// post-run probe statement also proves the trace join: the control client's
// X-Tempspec-Trace id must show up in the server's /debug/traces retention.
//
// Emits a schema-v2 BENCH_p4_simulator.json (--json) that
// tools/check_bench_json.py validates, with per-tenant latency percentiles
// and reconciliation counters. Exit status is the SLO gate: nonzero on any
// reconciliation failure, failed scenario assertion, or --gate-p99-ms
// violation.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/percentile.h"
#include "net/client.h"
#include "workload/tenant_driver.h"
#include "workload/workloads.h"

namespace tempspec {
namespace {

struct SimOptions {
  std::string serve_bin;
  std::string data_dir;
  std::string host = "127.0.0.1";
  std::string json_path = "BENCH_p4_simulator.json";
  int duration_s = 30;
  uint64_t seed = 42;
  uint64_t max_ops = 0;  // per tenant; 0 = duration-bound
  bool scenario_drift = false;
  bool scenario_crash = false;
  bool scenario_cold_restart = false;
  double gate_p99_ms = 0;
  int max_inflight = 64;
  int workers = 0;  // 0 = daemon default
  int think_us = 2000;
  uint64_t deadline_ms = 5000;
  /// Health plane: the daemon samples its metrics registry (and re-evaluates
  /// the SLO watchdog) every this many ms; 0 disables the sampler.
  uint64_t history_ms = 250;
  /// Declared per-tenant p99 objective passed to the daemon as --slo. Set
  /// generously above a healthy run's p99 so server and client verdicts must
  /// both read "ok"; 0 disables the declarations and the health assertions.
  double slo_p99_ms = 2000;
  /// Built in SimulateMain from the seven tenant relations ("ledger=2000,...").
  std::string slo_spec;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --serve-bin=PATH --data-dir=DIR [options]\n"
      "  --duration-s=N          run length (default 30)\n"
      "  --seed=N                tenant RNG seed (default 42)\n"
      "  --max-ops=N             per-tenant op cap for deterministic runs\n"
      "  --json=PATH             result file (default BENCH_p4_simulator.json)\n"
      "  --gate-p99-ms=X         fail if any tenant write p99 exceeds X ms\n"
      "  --deadline-ms=N         per-statement deadline budget (default 5000)\n"
      "  --think-us=N            closed-loop think time (default 2000)\n"
      "  --max-inflight=N        daemon admission limit (default 64)\n"
      "  --workers=N             daemon worker threads (default: daemon's)\n"
      "  --history-ms=N          daemon metrics sampling period (default 250,\n"
      "                          0 disables the history ring + SLO watchdog)\n"
      "  --slo-p99-ms=X          declared per-tenant p99 objective (default\n"
      "                          2000; 0 skips SLO declarations)\n"
      "  --scenario-drift        ledger tenant drifts out of its declaration\n"
      "  --scenario-crash        SIGKILL + recovery at peak load\n"
      "  --scenario-cold-restart measure graceful restart-to-first-read\n",
      argv0);
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

bool ParseOptions(int argc, char** argv, SimOptions* options) {
  if (const char* env = std::getenv("TEMPSPEC_SERVE_BIN")) {
    options->serve_bin = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "serve-bin", &v)) {
      options->serve_bin = v;
    } else if (ParseFlag(arg, "data-dir", &v)) {
      options->data_dir = v;
    } else if (ParseFlag(arg, "host", &v)) {
      options->host = v;
    } else if (ParseFlag(arg, "json", &v)) {
      options->json_path = v;
    } else if (ParseFlag(arg, "duration-s", &v)) {
      options->duration_s = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "seed", &v)) {
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "max-ops", &v)) {
      options->max_ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "gate-p99-ms", &v)) {
      options->gate_p99_ms = std::atof(v.c_str());
    } else if (ParseFlag(arg, "deadline-ms", &v)) {
      options->deadline_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "think-us", &v)) {
      options->think_us = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "max-inflight", &v)) {
      options->max_inflight = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "workers", &v)) {
      options->workers = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "history-ms", &v)) {
      options->history_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "slo-p99-ms", &v)) {
      options->slo_p99_ms = std::atof(v.c_str());
    } else if (arg == "--scenario-drift") {
      options->scenario_drift = true;
    } else if (arg == "--scenario-crash") {
      options->scenario_crash = true;
    } else if (arg == "--scenario-cold-restart") {
      options->scenario_cold_restart = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->serve_bin.empty() || options->data_dir.empty()) {
    Usage(argv[0]);
    return false;
  }
  return true;
}

/// Spawns, kills, and restarts the daemon; publishes its coordinates into
/// the shared SimEndpoint the tenants poll.
class DaemonController {
 public:
  DaemonController(const SimOptions& options, SimEndpoint* endpoint)
      : options_(options), endpoint_(endpoint) {
    portfile_ = options_.data_dir + "/.portfile";
  }

  ~DaemonController() {
    if (pid_ > 0) Kill(SIGKILL);
  }

  bool Start() {
    std::remove(portfile_.c_str());
    endpoint_->port.store(0, std::memory_order_release);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      const std::string data_arg = "--data-dir=" + options_.data_dir;
      const std::string port_arg = "--portfile=" + portfile_;
      const std::string inflight_arg =
          "--max-inflight=" + std::to_string(options_.max_inflight);
      std::vector<const char*> argv = {options_.serve_bin.c_str(), "--port=0",
                                       data_arg.c_str(), port_arg.c_str(),
                                       inflight_arg.c_str()};
      const std::string workers_arg =
          "--workers=" + std::to_string(options_.workers);
      if (options_.workers > 0) argv.push_back(workers_arg.c_str());
      const std::string history_arg =
          "--history-ms=" + std::to_string(options_.history_ms);
      if (options_.history_ms > 0) argv.push_back(history_arg.c_str());
      const std::string slo_arg = "--slo=" + options_.slo_spec;
      if (!options_.slo_spec.empty()) argv.push_back(slo_arg.c_str());
      argv.push_back(nullptr);
      ::execv(options_.serve_bin.c_str(),
              const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    // Wait for the portfile the daemon writes after binding.
    int port = 0;
    for (int tries = 0; tries < 2000; ++tries) {
      std::ifstream in(portfile_);
      if (in >> port && port > 0) break;
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (port <= 0) return false;
    ++restarts_observed_;
    endpoint_->generation.fetch_add(1, std::memory_order_release);
    endpoint_->port.store(port, std::memory_order_release);
    return true;
  }

  void Kill(int signo) {
    if (pid_ <= 0) return;
    endpoint_->port.store(0, std::memory_order_release);
    ::kill(pid_, signo);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  uint16_t port() const {
    return static_cast<uint16_t>(endpoint_->port.load());
  }
  /// Start() invocations so far (1 = never restarted).
  int starts() const { return restarts_observed_; }

 private:
  SimOptions options_;
  SimEndpoint* endpoint_;
  std::string portfile_;
  pid_t pid_ = -1;
  int restarts_observed_ = 0;
};

/// Extracts N from a body containing "N element(s)"; -1 when absent.
int64_t ElementCount(const std::string& body) {
  const size_t at = body.find(" element(s)");
  if (at == std::string::npos) return -1;
  size_t start = at;
  while (start > 0 &&
         std::isdigit(static_cast<unsigned char>(body[start - 1]))) {
    --start;
  }
  if (start == at) return -1;
  return std::atoll(body.substr(start, at - start).c_str());
}

/// Parses "<name> <value>" out of a Prometheus scrape; -1 when absent.
int64_t MetricValue(const std::string& scrape, const std::string& name) {
  size_t pos = 0;
  while ((pos = scrape.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || scrape[pos - 1] == '\n';
    const size_t after = pos + name.size();
    if (line_start && after < scrape.size() && scrape[after] == ' ') {
      return std::atoll(scrape.c_str() + after + 1);
    }
    pos = after;
  }
  return -1;
}

/// Extracts the server's total-window SLO verdict ("ok"/"violated") for one
/// relation out of a /debug/health body; "" when the relation has no
/// declared objective in the scrape.
std::string HealthTotalVerdict(const std::string& health,
                               const std::string& relation) {
  const size_t at = health.find("\"relation\":\"" + relation + "\",\"objective");
  if (at == std::string::npos) return "";
  const size_t total = health.find("\"total\":{", at);
  if (total == std::string::npos) return "";
  const std::string key = "\"verdict\":\"";
  const size_t verdict = health.find(key, total);
  if (verdict == std::string::npos) return "";
  const size_t begin = verdict + key.size();
  const size_t end = health.find('"', begin);
  if (end == std::string::npos) return "";
  return health.substr(begin, end - begin);
}

struct TenantPlan {
  Scenario scenario;
  ClientProtocol protocol;
  double paced_rate_per_s;  // 0 = closed loop
  int reads_per_write;
};

/// The seven paper applications mapped onto protocols and arrival modes:
/// the chatty monitoring feeds run paced over HTTP, the batch-oriented
/// business tenants run closed-loop, and the protocols are split so both
/// wire formats see concurrent production-shaped load.
std::vector<TenantPlan> SevenTenants() {
  return {
      {Scenario::kProcessMonitoring, ClientProtocol::kHttp, 100.0, 3},
      {Scenario::kDegenerateMonitoring, ClientProtocol::kHttp, 0, 3},
      {Scenario::kPayroll, ClientProtocol::kTsp1, 0, 3},
      {Scenario::kAssignments, ClientProtocol::kTsp1, 0, 3},
      {Scenario::kAccounting, ClientProtocol::kHttp, 0, 2},
      {Scenario::kOrders, ClientProtocol::kTsp1, 50.0, 2},
      {Scenario::kArchaeology, ClientProtocol::kHttp, 0, 4},
  };
}

double PercentileUs(const std::vector<double>& ns, double p) {
  return bench::SamplePercentile(ns, p) / 1000.0;
}

}  // namespace

int SimulateMain(int argc, char** argv) {
  SimOptions options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  ::mkdir(options.data_dir.c_str(), 0755);

  // Declare one generous p99 objective per tenant relation; the daemon's
  // watchdog judges them and the post-run check cross-examines its verdicts
  // against the client-side ledgers.
  if (options.slo_p99_ms > 0) {
    for (const TenantPlan& plan : SevenTenants()) {
      if (!options.slo_spec.empty()) options.slo_spec += ',';
      options.slo_spec += std::string(ScenarioRelationName(plan.scenario)) +
                          "=" + std::to_string(options.slo_p99_ms);
    }
  }

  SimEndpoint endpoint;
  endpoint.host = options.host;
  DaemonController daemon(options, &endpoint);
  if (!daemon.Start()) {
    std::fprintf(stderr, "tempspec_simulate: daemon failed to start (%s)\n",
                 options.serve_bin.c_str());
    return 1;
  }
  std::fprintf(stderr, "tempspec_simulate: daemon up on port %u\n",
               daemon.port());

  // Control plane: one HTTP client for DDL, scenario assertions, and the
  // reconciliation reads. Every statement it POSTs is dispatched by the
  // server and therefore counted in server.requests alongside tenant
  // traffic; control_posts tracks that for the metrics reconciliation.
  ClientOptions control_options;
  control_options.host = options.host;
  control_options.port = daemon.port();
  QueryClient control(control_options);
  uint64_t control_posts = 0;
  std::vector<std::string> failures;

  const std::vector<TenantPlan> plans = SevenTenants();
  for (const TenantPlan& plan : plans) {
    const std::string ddl = TenantDriver::CreateStatement(plan.scenario);
    WireReply reply = control.ExecuteRetrying(ddl, options.deadline_ms);
    ++control_posts;
    if (!reply.ok()) {
      std::fprintf(stderr, "tempspec_simulate: DDL failed: %s\n",
                   reply.body.c_str());
      return 1;
    }
  }

  std::vector<std::unique_ptr<TenantDriver>> drivers;
  TenantDriver* ledger_driver = nullptr;
  for (size_t i = 0; i < plans.size(); ++i) {
    TenantOptions tenant;
    tenant.scenario = plans[i].scenario;
    tenant.protocol = plans[i].protocol;
    tenant.seed = options.seed * 7919 + i;
    tenant.deadline_ms = options.deadline_ms;
    tenant.reads_per_write = plans[i].reads_per_write;
    tenant.think_time_us = options.think_us;
    tenant.paced_rate_per_s = plans[i].paced_rate_per_s;
    tenant.max_ops = options.max_ops;
    // In op-capped runs a fast tenant can finish before any wall-clock
    // trigger fires; the drift switch rides the tenant's own op index.
    if (options.scenario_drift && options.max_ops > 0 &&
        plans[i].scenario == Scenario::kAccounting) {
      tenant.drift_after_ops = options.max_ops / 3;
    }
    drivers.push_back(std::make_unique<TenantDriver>(tenant, &endpoint));
    if (plans[i].scenario == Scenario::kAccounting) {
      ledger_driver = drivers.back().get();
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(drivers.size());
  for (auto& driver : drivers) {
    threads.emplace_back([&driver] { driver->Run(); });
  }

  // Timeline: drift starts a third of the way in; the crash lands halfway,
  // at peak load. Progress is wall-clock for duration-bound runs and
  // op-count for --max-ops runs (where the tenants may finish well before
  // the clock would).
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto duration = std::chrono::seconds(options.duration_s);
  bool drift_started = false;
  bool drift_verified = false;
  bool drifted_flag = false;
  std::string drift_show_body;
  std::string mid_health;
  bool crashed = false;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    double progress;
    if (options.max_ops > 0) {
      uint64_t slowest = options.max_ops;
      for (const auto& driver : drivers) {
        slowest = std::min(slowest, driver->ops_completed());
      }
      progress = static_cast<double>(slowest) /
                 static_cast<double>(options.max_ops);
      // Ops mode still respects the wall clock as a hang backstop.
      if (Clock::now() - start > duration + std::chrono::seconds(120)) {
        progress = 1.0;
      }
    } else {
      progress = std::chrono::duration<double>(Clock::now() - start).count() /
                 static_cast<double>(options.duration_s);
    }
    if (options.scenario_drift && !drift_started && options.max_ops == 0 &&
        progress >= 1.0 / 3) {
      std::fprintf(stderr, "tempspec_simulate: starting ledger drift\n");
      ledger_driver->StartDrift();
      drift_started = true;
    }
    // Mid-run health scrape: the watchdog must be publishing verdicts while
    // the tenants are still driving load, not only at quiescence. Retried
    // every tick until it lands (the crash window can make one attempt
    // fail).
    if (options.slo_p99_ms > 0 && mid_health.empty() && progress >= 0.7 &&
        control.connected()) {
      Result<std::string> health = control.Get("/debug/health");
      if (health.ok()) mid_health = health.ValueOrDie();
    }
    // Verify the DRIFTED flip as soon as the engine rejects a drifted
    // write — and before any crash: the monitor is in-memory, and WAL
    // replay only re-observes stored (conforming) writes, so a post-crash
    // check would legitimately read CONFORMING again. The engine's monitor
    // observes the violation before the rejection is sent, so by the time
    // the driver counts it the flip is visible.
    if (options.scenario_drift && !drift_verified &&
        ledger_driver->drift_rejections_observed() > 0) {
      WireReply shown = control.ExecuteRetrying("SHOW SPECIALIZATION ledger",
                                                options.deadline_ms);
      ++control_posts;
      drift_show_body = shown.body;
      drifted_flag =
          shown.ok() && shown.body.find("DRIFTED") != std::string::npos;
      drift_verified = true;
      std::fprintf(stderr, "tempspec_simulate: drift check: drifted_flag=%d\n",
                   drifted_flag ? 1 : 0);
    }
    if (options.scenario_crash && !crashed && progress >= 0.5) {
      std::fprintf(stderr,
                   "tempspec_simulate: SIGKILL daemon at peak load\n");
      daemon.Kill(SIGKILL);
      crashed = true;
      if (!daemon.Start()) {
        std::fprintf(stderr, "tempspec_simulate: restart failed\n");
        return 1;
      }
      control.Connect(daemon.port());
      std::fprintf(stderr,
                   "tempspec_simulate: daemon recovered on port %u\n",
                   daemon.port());
    }
    if (progress >= 1.0) break;
  }
  endpoint.stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  // --- Post-run verification -------------------------------------------
  if (!control.connected()) control.Connect(daemon.port());

  // Hostile scenario: the drift monitor must have noticed the ledger
  // tenant leaving its declared band. The SHOW probe ran mid-flight
  // (see the timeline loop); here we only assert on what it saw. Drift
  // observation lives behind TEMPSPEC_METRICS; a metrics-OFF tree cannot
  // flip, so the flip assertions are compiled out with it.
  if (options.scenario_drift) {
    const uint64_t drift_rejections = ledger_driver->report().drift_rejections;
    if (drift_rejections == 0) {
      failures.push_back(
          "drift scenario ran but no drifted write was rejected");
    }
#ifdef TEMPSPEC_METRICS
    if (!drift_verified) {
      failures.push_back(
          "drift scenario never reached the mid-run DRIFTED check");
    } else if (!drifted_flag) {
      failures.push_back("drift monitor did not flip ledger to DRIFTED: " +
                         drift_show_body);
    }
#else
    std::fprintf(stderr,
                 "tempspec_simulate: metrics compiled out; drift-flip "
                 "assertions skipped\n");
#endif
  }

  // Reconciliation: every acked write must be readable; the live element
  // count must land inside the client-side bounds (exact when nothing was
  // ambiguous).
  std::vector<int64_t> current_counts(drivers.size(), -1);
  for (size_t i = 0; i < drivers.size(); ++i) {
    const TenantReport& report = drivers[i]->report();
    WireReply reply = control.ExecuteRetrying("CURRENT " + report.relation,
                                              options.deadline_ms);
    ++control_posts;
    const int64_t count = reply.ok() ? ElementCount(reply.body) : -1;
    current_counts[i] = count;
    const int64_t lo = static_cast<int64_t>(drivers[i]->MinLiveElements());
    const int64_t hi = static_cast<int64_t>(drivers[i]->MaxLiveElements());
    if (count < lo || count > hi) {
      failures.push_back(report.relation + ": CURRENT returned " +
                         std::to_string(count) + " element(s), acked bounds [" +
                         std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }

#ifdef TEMPSPEC_METRICS
  // Metrics reconciliation: server.requests counts every dispatched
  // statement (admission rejections count in server.requests_rejected
  // instead; the GET scrape itself is not a statement). Counters reset on
  // restart, so this is only exact for an uncrashed daemon.
  if (daemon.starts() == 1) {
    Result<std::string> scrape = control.Get("/metrics");
    if (!scrape.ok()) {
      failures.push_back("scraping /metrics failed: " +
                         scrape.status().ToString());
    } else {
      uint64_t counted = control_posts;
      uint64_t transport_slack = 0;
      uint64_t rejections = 0;
      for (const auto& driver : drivers) {
        counted += driver->report().requests_counted;
        transport_slack += driver->report().transport_errors;
        rejections += driver->report().admission_rejections;
      }
      const int64_t requests =
          MetricValue(scrape.ValueOrDie(), "server_requests");
      // Counters register on first increment: a clean run legitimately has
      // no rejected-requests counter at all.
      int64_t rejected =
          MetricValue(scrape.ValueOrDie(), "server_requests_rejected");
      if (rejected < 0) rejected = 0;
      if (requests < static_cast<int64_t>(counted) ||
          requests > static_cast<int64_t>(counted + transport_slack)) {
        failures.push_back(
            "server_requests=" + std::to_string(requests) +
            " does not reconcile with client replies=" +
            std::to_string(counted) + " (+" +
            std::to_string(transport_slack) + " ambiguous)");
      }
      if (rejected < static_cast<int64_t>(rejections) ||
          rejected > static_cast<int64_t>(rejections + transport_slack)) {
        failures.push_back(
            "server_requests_rejected=" + std::to_string(rejected) +
            " does not reconcile with observed rejections=" +
            std::to_string(rejections));
      }
    }
  }

  // Health-plane reconciliation: the daemon's watchdog judged every declared
  // objective from its own labeled latency series; its verdicts must not
  // contradict the clients' ledgers. The server attributes violations
  // leniently (a histogram bucket straddling the objective counts as
  // conforming), so a tenant whose client-side p99 is inside the objective
  // can never legitimately read "violated" server-side. Restarts reset the
  // series, so like the counter reconciliation this only runs uncrashed.
  uint64_t health_verdicts_agreed = 0;
  if (options.slo_p99_ms > 0 && daemon.starts() == 1) {
    if (mid_health.empty()) {
      failures.push_back("health plane: mid-run /debug/health never scraped");
    }
    Result<std::string> health = control.Get("/debug/health");
    if (!health.ok()) {
      failures.push_back("scraping /debug/health failed: " +
                         health.status().ToString());
    } else {
      const std::string& body = health.ValueOrDie();
      for (const auto& driver : drivers) {
        const TenantReport& r = driver->report();
        const std::string verdict = HealthTotalVerdict(body, r.relation);
        if (verdict.empty()) {
          failures.push_back(r.relation +
                             ": declared SLO missing from /debug/health");
          continue;
        }
        const double client_p99_ms =
            std::max(PercentileUs(r.write_latency_ns, 0.99),
                     PercentileUs(r.read_latency_ns, 0.99)) /
            1000.0;
        if (client_p99_ms <= options.slo_p99_ms && verdict != "ok") {
          failures.push_back(
              r.relation + ": server verdict '" + verdict +
              "' but client-side p99 " + std::to_string(client_p99_ms) +
              "ms is inside the " + std::to_string(options.slo_p99_ms) +
              "ms objective");
        } else {
          ++health_verdicts_agreed;
        }
        if (client_p99_ms > options.slo_p99_ms) {
          std::fprintf(stderr,
                       "tempspec_simulate: note: %s client p99 %.2fms exceeds "
                       "the objective (server says '%s')\n",
                       r.relation.c_str(), client_p99_ms, verdict.c_str());
        }
      }
    }
  }
#endif

  // Trace join: execute one more control statement and require its
  // client-generated X-Tempspec-Trace id in the server's trace retention —
  // the end-to-end id is the key that joins client ledgers to server spans.
  {
    WireReply probe = control.ExecuteRetrying(
        "CURRENT " + std::string(ScenarioRelationName(plans[0].scenario)),
        options.deadline_ms);
    ++control_posts;
    if (probe.ok() && !control.last_trace_id().empty()) {
      Result<std::string> traces = control.Get("/debug/traces");
      if (!traces.ok() ||
          traces.ValueOrDie().find(control.last_trace_id()) ==
              std::string::npos) {
        failures.push_back("trace join: client trace id " +
                           control.last_trace_id() +
                           " not found in /debug/traces");
      }
    }
  }

  // Cold restart: graceful stop, restart on the same data dir, measure
  // exec-to-first-successful-read, and verify nothing moved.
  double cold_restart_ns = 0;
  if (options.scenario_cold_restart) {
    daemon.Kill(SIGTERM);
    const Clock::time_point restart_begin = Clock::now();
    if (!daemon.Start()) {
      failures.push_back("cold restart: daemon failed to come back");
    } else {
      control.Connect(daemon.port());
      WireReply first = control.ExecuteRetrying(
          "CURRENT " + std::string(ScenarioRelationName(plans[0].scenario)),
          options.deadline_ms);
      cold_restart_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               restart_begin)
              .count());
      if (!first.ok()) {
        failures.push_back("cold restart: first read failed: " + first.body);
      }
      for (size_t i = 0; i < drivers.size(); ++i) {
        const std::string rel = drivers[i]->report().relation;
        WireReply reply =
            control.ExecuteRetrying("CURRENT " + rel, options.deadline_ms);
        if (!reply.ok() || ElementCount(reply.body) != current_counts[i]) {
          failures.push_back(rel + ": cold restart changed CURRENT from " +
                             std::to_string(current_counts[i]) + " to " +
                             std::to_string(ElementCount(reply.body)));
        }
      }
    }
  }
  daemon.Kill(SIGTERM);

  // --- Report ----------------------------------------------------------
  std::vector<bench::BenchResult> results;
  double worst_write_p99_ms = 0;
  for (size_t i = 0; i < drivers.size(); ++i) {
    const TenantReport& r = drivers[i]->report();
    bench::BenchResult b;
    b.name = "tenant/" + r.relation;
    b.runs = 1;
    b.iterations = r.acked_inserts + r.acked_deletes + r.reads_ok +
                   r.read_errors + r.constraint_rejections +
                   r.deadline_exceeded + r.server_errors;
    b.real_time_ns_median = bench::SamplePercentile(r.write_latency_ns, 0.5);
    b.real_time_ns_p99 = bench::SamplePercentile(r.write_latency_ns, 0.99);
    b.counters["acked_inserts"] = static_cast<double>(r.acked_inserts);
    b.counters["acked_deletes"] = static_cast<double>(r.acked_deletes);
    b.counters["reads_ok"] = static_cast<double>(r.reads_ok);
    b.counters["read_errors"] = static_cast<double>(r.read_errors);
    b.counters["constraint_rejections"] =
        static_cast<double>(r.constraint_rejections);
    b.counters["drift_rejections"] = static_cast<double>(r.drift_rejections);
    b.counters["admission_rejections"] =
        static_cast<double>(r.admission_rejections);
    b.counters["ambiguous_writes"] =
        static_cast<double>(r.ambiguous_inserts + r.ambiguous_deletes);
    b.counters["deadline_exceeded"] = static_cast<double>(r.deadline_exceeded);
    b.counters["transport_errors"] = static_cast<double>(r.transport_errors);
    b.counters["reconnects"] = static_cast<double>(r.reconnects);
    b.counters["write_p50_us"] = PercentileUs(r.write_latency_ns, 0.5);
    b.counters["write_p95_us"] = PercentileUs(r.write_latency_ns, 0.95);
    b.counters["write_p99_us"] = PercentileUs(r.write_latency_ns, 0.99);
    b.counters["read_p50_us"] = PercentileUs(r.read_latency_ns, 0.5);
    b.counters["read_p95_us"] = PercentileUs(r.read_latency_ns, 0.95);
    b.counters["read_p99_us"] = PercentileUs(r.read_latency_ns, 0.99);
    b.counters["current_count"] = static_cast<double>(current_counts[i]);
    b.counters["reconcile_min"] =
        static_cast<double>(drivers[i]->MinLiveElements());
    b.counters["reconcile_max"] =
        static_cast<double>(drivers[i]->MaxLiveElements());
    results.push_back(std::move(b));
    worst_write_p99_ms =
        std::max(worst_write_p99_ms, PercentileUs(r.write_latency_ns, 0.99) / 1000.0);

    std::fprintf(
        stderr,
        "tenant %-18s %6llu ins %5llu del %6llu reads  p50 %.2fms p99 %.2fms"
        "  rej %llu ambig %llu current %lld\n",
        r.relation.c_str(),
        static_cast<unsigned long long>(r.acked_inserts),
        static_cast<unsigned long long>(r.acked_deletes),
        static_cast<unsigned long long>(r.reads_ok),
        PercentileUs(r.write_latency_ns, 0.5) / 1000.0,
        PercentileUs(r.write_latency_ns, 0.99) / 1000.0,
        static_cast<unsigned long long>(r.admission_rejections),
        static_cast<unsigned long long>(r.ambiguous_inserts +
                                        r.ambiguous_deletes),
        static_cast<long long>(current_counts[i]));
  }

  if (options.scenario_drift) {
    bench::BenchResult b;
    b.name = "scenario/drift";
    b.runs = 1;
    b.iterations = 1;
    b.counters["drift_rejections"] =
        static_cast<double>(ledger_driver->report().drift_rejections);
    b.counters["drifted_flag"] = drifted_flag ? 1 : 0;
    results.push_back(std::move(b));
  }
#ifdef TEMPSPEC_METRICS
  if (options.slo_p99_ms > 0 && daemon.starts() == 1) {
    bench::BenchResult b;
    b.name = "scenario/health";
    b.runs = 1;
    b.iterations = 1;
    b.counters["slo_objectives"] = static_cast<double>(drivers.size());
    b.counters["verdicts_agreed"] = static_cast<double>(health_verdicts_agreed);
    results.push_back(std::move(b));
  }
#endif
  if (options.scenario_crash) {
    bench::BenchResult b;
    b.name = "scenario/crash_recovery";
    b.runs = 1;
    b.iterations = 1;
    b.counters["daemon_starts"] = daemon.starts();
    uint64_t reconnects = 0;
    for (const auto& driver : drivers) {
      reconnects += driver->report().reconnects;
    }
    b.counters["tenant_reconnects"] = static_cast<double>(reconnects);
    results.push_back(std::move(b));
  }
  if (options.scenario_cold_restart) {
    bench::BenchResult b;
    b.name = "scenario/cold_restart";
    b.runs = 1;
    b.iterations = 1;
    b.real_time_ns_median = cold_restart_ns;
    b.real_time_ns_p99 = cold_restart_ns;
    results.push_back(std::move(b));
  }

  if (!bench::WriteBenchJson(options.json_path, "p4_simulator", results)) {
    failures.push_back("could not write " + options.json_path);
  }

  if (options.gate_p99_ms > 0 && worst_write_p99_ms > options.gate_p99_ms) {
    failures.push_back("SLO gate: worst tenant write p99 " +
                       std::to_string(worst_write_p99_ms) + "ms exceeds " +
                       std::to_string(options.gate_p99_ms) + "ms");
  }

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "tempspec_simulate: FAIL: %s\n", f.c_str());
    }
    // Reconciliation evidence: what the server actually said on each error
    // reply, so a failed run reads as a diagnosis, not a count. (Successful
    // runs keep these quiet — the drift scenario's intentional rejections
    // would drown the report.)
    for (const auto& driver : drivers) {
      const TenantReport& r = driver->report();
      for (const std::string& detail : r.error_details) {
        std::fprintf(stderr, "    %s: server said %s\n", r.relation.c_str(),
                     detail.c_str());
      }
    }
    return 1;
  }
  std::fprintf(stderr,
               "tempspec_simulate: OK — %zu tenants reconciled, results in "
               "%s\n",
               drivers.size(), options.json_path.c_str());
  return 0;
}

}  // namespace tempspec

int main(int argc, char** argv) {
  return tempspec::SimulateMain(argc, argv);
}
