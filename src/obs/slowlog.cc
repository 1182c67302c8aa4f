#include "obs/slowlog.h"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tempspec {

std::string SlowQueryEntry::ToJson() const {
  std::string out = "{\"sequence\":" + std::to_string(sequence) +
                    ",\"trace_id\":" + std::to_string(trace_id) +
                    ",\"unix_micros\":" + std::to_string(unix_micros) +
                    ",\"wall_micros\":" + std::to_string(wall_micros) +
                    ",\"statement\":\"" + JsonEscape(statement) + "\"";
  if (!protocol.empty()) {
    out += ",\"protocol\":\"" + JsonEscape(protocol) + "\"";
  }
  if (!peer.empty()) out += ",\"peer\":\"" + JsonEscape(peer) + "\"";
  if (!wire_trace.empty()) {
    out += ",\"wire_trace\":\"" + JsonEscape(wire_trace) + "\"";
  }
  out += ",\"trace\":";
  out += trace_json.empty() ? "{}" : trace_json;
  out += "}";
  return out;
}

SlowQueryLog& SlowQueryLog::Instance() {
  static SlowQueryLog* log = new SlowQueryLog();  // leaked: process lifetime
  return *log;
}

void SlowQueryLog::SetThresholdMicros(uint64_t threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_micros_ = threshold;
}

uint64_t SlowQueryLog::threshold_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_micros_;
}

void SlowQueryLog::SetSinkPath(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_path_ = std::move(path);
}

void SlowQueryLog::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void SlowQueryLog::ConfigureFromEnv() {
  if (const char* v = std::getenv("TEMPSPEC_SLOWLOG_MICROS")) {
    if (*v != '\0') {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end != v) SetThresholdMicros(static_cast<uint64_t>(parsed));
    }
  }
  if (const char* v = std::getenv("TEMPSPEC_SLOWLOG_PATH")) {
    if (*v != '\0') SetSinkPath(v);
  }
  if (const char* v = std::getenv("TEMPSPEC_SLOWLOG_CAPACITY")) {
    if (*v != '\0') {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end != v && parsed > 0) SetCapacity(static_cast<size_t>(parsed));
    }
  }
}

void SlowQueryLog::Record(TraceContext& trace, const std::string& statement) {
  trace.End();
  SlowQueryEntry entry;
  entry.unix_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  entry.wall_micros = trace.wall_micros();
  entry.trace_id = trace.trace_id();
  entry.statement = statement;
  entry.protocol = trace.attr("protocol");
  entry.peer = trace.attr("peer");
  entry.wire_trace = trace.WireTraceId();

  std::string sink_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry.wall_micros < threshold_micros_) return;
    entry.trace_json = trace.ToJson();
    entry.sequence = ++sequence_;
    if (capacity_ == 0) return;
    if (ring_.size() >= capacity_) ring_.pop_front();
    ring_.push_back(entry);
    sink_path = sink_path_;
  }
  TS_COUNTER_INC("tempspec.obs.slowlog_recorded");
  if (!sink_path.empty()) {
    // Append outside the lock: a slow disk must not stall recorders.
    std::ofstream out(sink_path, std::ios::app);
    if (out) out << entry.ToJson() << "\n";
  }
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t SlowQueryLog::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sequence_;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  sequence_ = 0;
}

}  // namespace tempspec
