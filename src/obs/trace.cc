#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace tempspec {

namespace {
uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
             .count()));
}

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

void TraceContext::Begin(std::string name) {
  if (started_ && !ended_) {
    ++nest_depth_;
    SetAttr("inner_span", std::move(name));
    return;
  }
  name_ = std::move(name);
  trace_id_ = NextTraceId();
  nest_depth_ = 0;
  started_ = true;
  ended_ = false;
  wall_micros_ = 0;
  start_ = std::chrono::steady_clock::now();
}

void TraceContext::End() {
  if (!started_ || ended_) return;
  if (nest_depth_ > 0) {
    --nest_depth_;
    return;
  }
  ended_ = true;
  wall_micros_ = MicrosSince(start_);
}

void TraceContext::SetWireTrace(uint64_t hi, uint64_t lo,
                                uint64_t parent_span_id) {
  wire_trace_hi_ = hi;
  wire_trace_lo_ = lo;
  parent_span_id_ = parent_span_id;
  wire_trace_set_ = true;
}

std::string TraceContext::WireTraceId() const {
  if (!wire_trace_set_) return "";
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(wire_trace_hi_),
                static_cast<unsigned long long>(wire_trace_lo_));
  return std::string(buf);
}

void TraceContext::SetAttr(const std::string& key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(key, std::move(value));
}

void TraceContext::AddCounter(const std::string& key, uint64_t n) {
  for (auto& [k, v] : counters_) {
    if (k == key) {
      v += n;
      return;
    }
  }
  counters_.emplace_back(key, n);
}

uint64_t TraceContext::counter(const std::string& key) const {
  for (const auto& [k, v] : counters_) {
    if (k == key) return v;
  }
  return 0;
}

const std::string& TraceContext::attr(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : attrs_) {
    if (k == key) return v;
  }
  return kEmpty;
}

void TraceContext::AddStage(std::string name, uint64_t micros) {
  stages_.push_back(TraceStage{std::move(name), micros});
}

void TraceContext::ArmDeadline(std::chrono::steady_clock::time_point deadline) {
  deadline_nanos_.store(
      deadline.time_since_epoch() == std::chrono::steady_clock::duration::zero()
          ? 0
          : std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count(),
      std::memory_order_release);
}

void TraceContext::ArmDeadlineAfterMicros(uint64_t micros) {
  if (micros == 0) {
    deadline_nanos_.store(0, std::memory_order_release);
    return;
  }
  ArmDeadline(std::chrono::steady_clock::now() +
              std::chrono::microseconds(micros));
}

bool TraceContext::CancellationRequested() const {
  if (cancel_.load(std::memory_order_acquire)) return true;
  const int64_t deadline = deadline_nanos_.load(std::memory_order_acquire);
  if (deadline == 0) return false;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  if (now < deadline) return false;
  // Latch: once a deadline has passed the query stays cancelled even if the
  // clock is read again (and later polls skip the clock read entirely).
  const_cast<TraceContext*>(this)->cancel_.store(true,
                                                 std::memory_order_release);
  return true;
}

TraceContext::StageScope::StageScope(TraceContext* ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)) {
  if (ctx_ != nullptr) start_ = std::chrono::steady_clock::now();
}

TraceContext::StageScope::~StageScope() {
  if (ctx_ != nullptr) ctx_->AddStage(std::move(name_), MicrosSince(start_));
}

std::string TraceContext::ToJson() const {
  // A span being serialized is done; finalize the clock without forcing
  // every caller to remember End().
  const_cast<TraceContext*>(this)->End();

  std::string out = "{\"span\":\"" + JsonEscape(name_) + "\"";
  out += ",\"trace_id\":" + std::to_string(trace_id_);
  if (wire_trace_set_) {
    char span_hex[17];
    std::snprintf(span_hex, sizeof(span_hex), "%016llx",
                  static_cast<unsigned long long>(parent_span_id_));
    out += ",\"wire_trace\":\"" + WireTraceId() + "\"";
    out += ",\"parent_span\":\"" + std::string(span_hex) + "\"";
  }
  out += ",\"wall_micros\":" + std::to_string(wall_micros_);
  out += ",\"attrs\":{";
  bool first = true;
  for (const auto& [k, v] : attrs_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(k) + "\":" + std::to_string(v);
  }
  out += "},\"stages\":[";
  first = true;
  for (const TraceStage& s : stages_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) +
           "\",\"micros\":" + std::to_string(s.micros) + "}";
  }
  out += "]}";
  return out;
}

RetainedTraces& RetainedTraces::Instance() {
  static RetainedTraces* traces = new RetainedTraces();  // process lifetime
  return *traces;
}

void RetainedTraces::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t RetainedTraces::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void RetainedTraces::SetSampleEvery(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_every_ = n;
}

uint64_t RetainedTraces::sample_every() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_every_;
}

void RetainedTraces::ConfigureFromEnv() {
  if (const char* v = std::getenv("TEMPSPEC_TRACE_CAPACITY")) {
    if (*v != '\0') {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end != v && parsed > 0) SetCapacity(static_cast<size_t>(parsed));
    }
  }
  if (const char* v = std::getenv("TEMPSPEC_TRACE_SAMPLE")) {
    if (*v != '\0') {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end != v) SetSampleEvery(static_cast<uint64_t>(parsed));
    }
  }
}

void RetainedTraces::Record(TraceContext& trace) {
  if (!trace.started()) return;
  trace.End();
  std::lock_guard<std::mutex> lock(mu_);
  ++seen_;
  if (sample_every_ == 0 || (seen_ - 1) % sample_every_ != 0) return;
  if (capacity_ == 0) return;
  RetainedTrace entry;
  entry.trace_id = trace.trace_id();
  entry.unix_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  entry.span = trace.name();
  entry.json = trace.ToJson();
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(entry));
  ++retained_;
}

std::vector<RetainedTrace> RetainedTraces::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t RetainedTraces::TotalSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

uint64_t RetainedTraces::TotalRetained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

void RetainedTraces::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  seen_ = 0;
  retained_ = 0;
}

}  // namespace tempspec
