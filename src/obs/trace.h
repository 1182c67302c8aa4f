// Trace spans for queries and background work.
//
// A TraceContext is attached to one query execution (via ExecutorOptions) —
// or, since the flight-recorder PR, created locally by background work
// (recovery, checkpoint, compaction, vacuum) — and records what the metrics
// registry can only aggregate: which plan the optimizer chose for *this*
// query, how many elements it examined vs returned, how many buffer-pool
// pages it touched, and how long each stage took. query_lang's EXPLAIN
// ANALYZE surfaces the span as single-line JSON; completed spans are also
// sampled into the RetainedTraces ring below, so recent spans survive after
// the query returns and are joinable from slowlog entries by trace id.
//
// Unlike the TS_* metric macros, tracing is a runtime opt-in rather than a
// compile-time one: a query with no attached context pays only a null-pointer
// check, so the span machinery is always compiled in and works in
// TEMPSPEC_METRICS=OFF trees too.
#ifndef TEMPSPEC_OBS_TRACE_H_
#define TEMPSPEC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tempspec {

/// \brief One recorded stage of a span: (name, wall micros).
struct TraceStage {
  std::string name;
  uint64_t micros = 0;
};

/// \brief A single query's trace span. Not thread-safe: one context belongs
/// to one query execution, and the executor records into it only from the
/// calling thread (per-morsel work aggregates through QueryStats first).
///
/// Exception: the cancellation plumbing below IS thread-safe. A deadline or
/// cancel request may arrive from another thread (the server's event loop,
/// a disconnecting client) while the query runs; the executor polls
/// CancellationRequested() at morsel boundaries, so an in-flight long scan
/// stops within one morsel of the deadline instead of running to completion.
class TraceContext {
 public:
  TraceContext() = default;

  /// \brief Starts the span clock and names it (e.g. "query.timeslice").
  ///
  /// Nest-aware: a Begin() on a span that is already running (a server-owned
  /// request span reaching the executor, which names its own query span)
  /// keeps the outer clock and trace id, records the inner name as the
  /// "inner_span" attribute, and bumps a nesting depth so the matching
  /// End() does not finalize the outer span early.
  void Begin(std::string name);
  /// \brief Stops the span clock. Idempotent; ToJson() calls it if needed.
  /// Pops one nested Begin() first when the span is nested.
  void End();

  bool started() const { return started_; }
  const std::string& name() const { return name_; }
  uint64_t wall_micros() const { return wall_micros_; }
  /// \brief Process-unique id, assigned by Begin() (0 before). Stamped into
  /// ToJson() and slow-query entries so a slow query joins to its retained
  /// span in /debug/traces.
  uint64_t trace_id() const { return trace_id_; }

  // -- Wire trace identity (distributed tracing) -----------------------------

  /// \brief Adopts a client-generated 128-bit trace id plus the client's
  /// span id as this span's parent. Survives Begin(); stamped into ToJson()
  /// as "wire_trace"/"parent_span" so slowlog entries, retained traces, and
  /// EXPLAIN ANALYZE output all join to the client-observed request.
  void SetWireTrace(uint64_t hi, uint64_t lo, uint64_t parent_span_id);
  bool has_wire_trace() const { return wire_trace_set_; }
  uint64_t wire_trace_hi() const { return wire_trace_hi_; }
  uint64_t wire_trace_lo() const { return wire_trace_lo_; }
  uint64_t parent_span_id() const { return parent_span_id_; }
  /// \brief The 128-bit id as 32 lowercase hex chars ("" when unset).
  std::string WireTraceId() const;

  /// \brief Marks the span as owned by the network server, which records it
  /// into the slowlog/retained ring at response completion — query_lang must
  /// then not record the same span a second time mid-request.
  void SetServerOwned(bool owned) { server_owned_ = owned; }
  bool server_owned() const { return server_owned_; }

  /// \brief Sets a string attribute (last write wins), e.g. plan strategy.
  void SetAttr(const std::string& key, std::string value);
  /// \brief Adds to a numeric counter, e.g. elements_examined.
  void AddCounter(const std::string& key, uint64_t n);
  /// \brief Counter value, 0 when absent.
  uint64_t counter(const std::string& key) const;
  /// \brief Attribute value, "" when absent.
  const std::string& attr(const std::string& key) const;

  /// \brief Records a completed stage duration.
  void AddStage(std::string name, uint64_t micros);
  const std::vector<TraceStage>& stages() const { return stages_; }

  // -- Deadline & cancellation (thread-safe, unlike the rest of the span) ----

  /// \brief Arms an absolute steady-clock deadline. After it passes,
  /// CancellationRequested() returns true. Zero/default disarms.
  void ArmDeadline(std::chrono::steady_clock::time_point deadline);
  /// \brief Convenience: deadline = now + micros (0 disarms).
  void ArmDeadlineAfterMicros(uint64_t micros);
  /// \brief Requests cooperative cancellation (idempotent; any thread).
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  /// \brief True when cancelled explicitly or the armed deadline has passed.
  /// Cheap enough for morsel-boundary polling: one relaxed load, plus a
  /// clock read only while a deadline is armed.
  bool CancellationRequested() const;
  bool has_deadline() const {
    return deadline_nanos_.load(std::memory_order_relaxed) != 0;
  }

  /// \brief RAII stage timer: times from construction to destruction and
  /// appends a TraceStage. Safe with a null context (no-op).
  class StageScope {
   public:
    StageScope(TraceContext* ctx, std::string name);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    TraceContext* ctx_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  /// \brief Single-line JSON:
  /// {"span":"query.timeslice","trace_id":N,"wall_micros":N,
  ///  "attrs":{"strategy":"valid_index",...},
  ///  "counters":{"elements_examined":N,...},
  ///  "stages":[{"name":"plan","micros":N},...]}
  std::string ToJson() const;

 private:
  std::string name_;
  uint64_t trace_id_ = 0;
  uint64_t wire_trace_hi_ = 0;
  uint64_t wire_trace_lo_ = 0;
  uint64_t parent_span_id_ = 0;
  bool wire_trace_set_ = false;
  bool server_owned_ = false;
  int nest_depth_ = 0;
  bool started_ = false;
  bool ended_ = false;
  std::chrono::steady_clock::time_point start_;
  uint64_t wall_micros_ = 0;
  /// Cancellation state: a sticky flag plus an armed deadline as
  /// steady-clock nanoseconds since epoch (0 = no deadline). Atomics so the
  /// server's event loop can cancel a query the worker is executing.
  std::atomic<bool> cancel_{false};
  std::atomic<int64_t> deadline_nanos_{0};
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<TraceStage> stages_;
};

/// \brief One retained completed span.
struct RetainedTrace {
  uint64_t trace_id = 0;
  uint64_t unix_micros = 0;  // retention time
  std::string span;          // span name (e.g. "background.vacuum")
  std::string json;          // TraceContext::ToJson() of the completed span
};

/// \brief Sampled retention ring for completed spans, so recent query and
/// background spans outlive the work that produced them. Mutex-guarded like
/// the slowlog — retention happens at most once per span, never on a
/// per-element path.
class RetainedTraces {
 public:
  /// \brief Process-wide instance (fed by query_lang and background work,
  /// read by /debug/traces and SHOW TRACES). Tests use free instances.
  static RetainedTraces& Instance();

  explicit RetainedTraces(size_t capacity = 128, uint64_t sample_every = 1)
      : capacity_(capacity), sample_every_(sample_every) {}

  /// \brief Ring capacity; shrinking drops the oldest spans.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// \brief Keeps 1 of every n completed spans (1 = keep all, 0 = disable
  /// retention entirely).
  void SetSampleEvery(uint64_t n);
  uint64_t sample_every() const;

  /// \brief Applies TEMPSPEC_TRACE_CAPACITY / TEMPSPEC_TRACE_SAMPLE when
  /// set (called at tempspec_serve startup).
  void ConfigureFromEnv();

  /// \brief Considers one completed span (ends it if the caller has not)
  /// and retains it when the sampler selects it.
  void Record(TraceContext& trace);

  /// \brief The retained spans, oldest first.
  std::vector<RetainedTrace> Entries() const;

  /// \brief Completed spans offered / actually retained.
  uint64_t TotalSeen() const;
  uint64_t TotalRetained() const;

  /// \brief Empties the ring and resets the sampler (tests).
  void Clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t sample_every_;
  uint64_t seen_ = 0;
  uint64_t retained_ = 0;
  std::deque<RetainedTrace> ring_;  // oldest first
};

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_TRACE_H_
