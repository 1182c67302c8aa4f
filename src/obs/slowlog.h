// Structured slow-query log.
//
// EXPLAIN ANALYZE shows the trace of a query you *chose* to inspect; the
// slow-query log catches the ones you didn't. Every completed query span
// whose wall time meets a configurable threshold is recorded — the full
// TraceContext::ToJson() line plus the statement text — into a fixed-size
// ring (newest wins, oldest evicted), and optionally appended to a JSONL
// sink file. The ring is queryable in-engine via the query language's
// `SHOW SLOW QUERIES [LIMIT n]`.
//
// Concurrency: Record() and snapshots take one mutex. This is deliberately
// not the sharded-counter design — the slowlog is off the per-element hot
// path (at most one Record per *query*, and only for slow ones), so a mutex
// ring is simpler and keeps entries ordered.
//
// Compile-out contract: like the metrics registry, the class always
// compiles; the engine call site (query_lang's record hook) is wrapped in
// TS_METRICS_ONLY, so a TEMPSPEC_METRICS=OFF tree never records and the
// slowlog observes nothing through engine paths.
#ifndef TEMPSPEC_OBS_SLOWLOG_H_
#define TEMPSPEC_OBS_SLOWLOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace tempspec {

class TraceContext;

/// \brief One retained slow query.
struct SlowQueryEntry {
  /// Monotone per-process sequence number (1-based; total recorded count).
  uint64_t sequence = 0;
  /// The span's process-unique trace id (TraceContext::trace_id()); joins
  /// the entry to its retained span in /debug/traces.
  uint64_t trace_id = 0;
  /// Capture time, unix epoch microseconds.
  uint64_t unix_micros = 0;
  /// Span wall time — the value that crossed the threshold.
  uint64_t wall_micros = 0;
  /// The statement as the user wrote it ("" for programmatic queries).
  std::string statement;
  /// How the statement arrived: "http" / "tsp1" (the server request span's
  /// protocol attribute), "" for embedded/programmatic queries.
  std::string protocol;
  /// Remote "ip:port" for server-side entries, "" otherwise.
  std::string peer;
  /// The client's 128-bit wire trace id as 32 hex chars, "" when the
  /// request carried none (join key against client-side logs).
  std::string wire_trace;
  /// The span's single-line JSON (TraceContext::ToJson()).
  std::string trace_json;

  /// \brief The entry as one JSON line (the sink format):
  /// {"sequence":..,"trace_id":..,"unix_micros":..,"wall_micros":..,
  ///  "statement":"...","protocol":"...","peer":"...","wire_trace":"...",
  ///  "trace":{...}} (protocol/peer/wire_trace omitted when empty).
  std::string ToJson() const;
};

/// \brief Fixed-size ring of slow-query entries with an optional JSONL sink.
class SlowQueryLog {
 public:
  /// \brief Process-wide instance (what the engine hook and SHOW use).
  /// Freestanding instances are used by tests.
  static SlowQueryLog& Instance();

  explicit SlowQueryLog(size_t capacity = 128) : capacity_(capacity) {}

  /// \brief Wall-time threshold in microseconds; spans strictly below it are
  /// ignored. 0 records every completed span (useful in tests and tours);
  /// UINT64_MAX disables recording. Default: 10ms.
  void SetThresholdMicros(uint64_t threshold);
  uint64_t threshold_micros() const;

  /// \brief Redirects the JSONL sink ("" = ring only). Entries are appended
  /// as they are recorded; the file is opened per write (append mode), so
  /// rotation by rename works.
  void SetSinkPath(std::string path);

  /// \brief Ring capacity; shrinking drops the oldest entries.
  void SetCapacity(size_t capacity);

  /// \brief Applies TEMPSPEC_SLOWLOG_MICROS / TEMPSPEC_SLOWLOG_PATH /
  /// TEMPSPEC_SLOWLOG_CAPACITY when set (called at tempspec_serve startup).
  void ConfigureFromEnv();

  /// \brief Considers one completed span; records it if wall time meets the
  /// threshold. Ends the span if the caller has not.
  void Record(TraceContext& trace, const std::string& statement);

  /// \brief The retained entries, oldest first.
  std::vector<SlowQueryEntry> Entries() const;

  /// \brief Total recorded (not retained) count.
  uint64_t TotalRecorded() const;

  /// \brief Empties the ring and resets the sequence (tests).
  void Clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t threshold_micros_ = 10000;
  uint64_t sequence_ = 0;
  std::string sink_path_;
  std::deque<SlowQueryEntry> ring_;  // oldest first
};

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_SLOWLOG_H_
