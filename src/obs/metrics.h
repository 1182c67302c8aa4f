// Engine-wide metrics: monotonic counters, gauges, and log-scale histograms.
//
// The paper's systems claim — specialization semantics "may be used for
// selecting appropriate storage structures, indexing techniques, and query
// processing strategies" — is only testable if the engine can *show* that a
// chosen strategy did less work. This registry is the evidence channel: the
// storage stack counts buffer-pool hits and WAL syncs, the execution engine
// counts per-strategy queries and elements examined, and the advisor counts
// which strategy it recommends per specialization. Benches and EXPLAIN
// ANALYZE scrape a consistent snapshot.
//
// Hot-path design: each counter/histogram is a fixed array of cache-line-
// padded shards; a thread picks its shard once (thread-local index) and then
// every update is a single relaxed atomic add — no locks, no false sharing.
// Scrape() sums the shards. Gauges are single atomics (set semantics do not
// shard).
//
// Compile-out: the registry API always exists, so tests and tools compile
// regardless of build flags; the *call sites* use the TS_COUNTER_* /
// TS_GAUGE_* / TS_HISTOGRAM_* macros below, which compile to nothing unless
// TEMPSPEC_METRICS is defined (a CMake option, default ON — mirror of the
// TEMPSPEC_FAILPOINTS pattern). With the option off the hot paths carry zero
// metrics code and MetricsCompiledIn() returns false so conformance tests
// can detect a vacuous build instead of passing silently.
#ifndef TEMPSPEC_OBS_METRICS_H_
#define TEMPSPEC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tempspec {

/// \brief True when the engine was compiled with TEMPSPEC_METRICS, i.e. the
/// instrumented call sites actually record anything.
bool MetricsCompiledIn();

/// \brief Shard count for striped counters/histograms. A power of two; 16
/// shards keep contention negligible at any realistic thread count while
/// bounding the per-metric footprint (16 cache lines per counter).
constexpr size_t kMetricShards = 16;

/// \brief This thread's shard index (assigned round-robin on first use).
size_t ThisThreadMetricShard();

/// \brief Monotonic counter. Add() is lock-free and wait-free.
class MetricCounter {
 public:
  explicit MetricCounter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n) {
    shards_[ThisThreadMetricShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// \brief Sum over all shards (racy-but-monotone under concurrent writers).
  uint64_t Value() const;

  /// \brief Zeroes all shards in place (registry ResetValues()).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
  std::string name_;
};

/// \brief Point-in-time value (queue depths, open handles). Set/Add only;
/// a gauge is one atomic because "last write wins" cannot be sharded.
class MetricGauge {
 public:
  explicit MetricGauge(std::string name) : name_(std::move(name)) {}

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  std::atomic<int64_t> value_{0};
  std::string name_;
};

/// \brief Number of histogram buckets: bucket b counts values whose bit
/// width is b, i.e. v in [2^(b-1), 2^b), with bucket 0 counting v == 0.
/// Fixed log2 scale — no configuration, so every histogram is mergeable.
constexpr size_t kHistogramBuckets = 65;

/// \brief Bucket index for a value (0 for 0, else bit_width(v)).
size_t HistogramBucketFor(uint64_t v);
/// \brief Inclusive upper bound of a bucket (used for percentile estimates).
uint64_t HistogramBucketUpperBound(size_t bucket);

/// \brief Aggregated view of one histogram at scrape time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Non-empty buckets only: (bucket index, count).
  std::vector<std::pair<size_t, uint64_t>> buckets;

  /// \brief Upper-bound estimate of the p-quantile (p in [0, 1]): the upper
  /// edge of the first bucket whose cumulative count reaches p * count.
  uint64_t Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
};

/// \brief Log-scale histogram with sharded buckets; Observe() is lock-free.
class MetricHistogram {
 public:
  explicit MetricHistogram(std::string name) : name_(std::move(name)) {}

  void Observe(uint64_t v) {
    Shard& s = shards_[ThisThreadMetricShard()];
    s.buckets[HistogramBucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// \brief Zeroes all shards in place (registry ResetValues()).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kHistogramBuckets]{};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kMetricShards];
  std::string name_;
};

/// \brief One consistent-enough scrape of every registered metric (each
/// individual metric is summed atomically; cross-metric skew is possible
/// under concurrent writers, as in any sampling scraper).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// \brief Counter value, 0 when absent.
  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  /// \brief Single-line JSON: {"counters":{...},"gauges":{...},
  /// "histograms":{"name":{"count":..,"sum":..,"p50":..,"p99":..},...}}.
  std::string ToJson() const;
};

/// \brief Process-wide metric registry. Registration (GetCounter & friends)
/// takes a mutex and is meant to be cached by call sites (the TS_* macros
/// cache in a function-local static); updates through the returned handles
/// never lock. Handles are valid for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  MetricCounter& GetCounter(const std::string& name);
  MetricGauge& GetGauge(const std::string& name);
  MetricHistogram& GetHistogram(const std::string& name);

  MetricsSnapshot Scrape() const;

  /// \brief Number of registered metrics (conformance tests use this to
  /// prove the OFF build registers nothing).
  size_t MetricCount() const;

  /// \brief Zeroes every counter/gauge/histogram (benches isolate runs with
  /// this). Handles stay valid; names stay registered.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;
};

// -- Labeled metrics ---------------------------------------------------------
//
// Registry handles live for the process lifetime, so encoding a relation
// name into a registry metric name would leak one series per relation ever
// created. Labeled families instead key series on small interned label ids
// with a hard cardinality cap and id recycling: dropping a relation frees
// its label slot (and its series), and when the table is full new values
// collapse into a shared "other" bucket — a scrape is always O(live labels).

/// \brief Bounded string interner for one label dimension. Intern() of a new
/// value in a full table returns kOverflowId (rendered as "other");
/// Release() frees the value's id for reuse by the next Intern().
class LabelDim {
 public:
  static constexpr uint32_t kOverflowId = 0;

  explicit LabelDim(size_t capacity) : capacity_(capacity) {}

  /// \brief Id for `value`, allocating a slot when one is free. Threadsafe.
  uint32_t Intern(const std::string& value);

  /// \brief Frees `value`'s slot (no-op for unknown/overflow values).
  void Release(const std::string& value);

  /// \brief Label text for an id ("other" for kOverflowId and stale ids).
  std::string ValueOf(uint32_t id) const;

  /// \brief Currently interned (live) values, excluding the overflow bucket.
  size_t LiveCount() const;

  /// \brief Drops every interned value and free-list entry (test isolation).
  void Clear();

  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint32_t next_id_ = 1;
  std::map<std::string, uint32_t> ids_;
  std::map<uint32_t, std::string> values_;
  std::vector<uint32_t> free_ids_;
};

/// \brief One labeled latency series resolved to label text at scrape time.
struct LabeledSeries {
  std::string relation;
  std::string kind;      // scan-kernel token for reads, insert/delete/ddl
  std::string protocol;  // local | http | tsp1
  HistogramSnapshot latency;  // wall micros
};

/// \brief The per-query labeled latency family behind
/// `tempspec_query_latency{relation=...,kind=...,protocol=...}`.
///
/// All operations take one mutex: the family is touched once per query (not
/// per element), so contention is bounded by request rate, and the lock
/// makes series eviction on relation drop trivially safe.
class QueryLatencyFamily {
 public:
  static constexpr size_t kRelationCapacity = 128;

  static QueryLatencyFamily& Instance();

  void Observe(const std::string& relation, const std::string& kind,
               const std::string& protocol, uint64_t wall_micros);

  /// \brief Drops every series for `relation` and recycles its label id
  /// (DROP RELATION keeps the scrape O(live relations)).
  void ReleaseRelation(const std::string& relation);

  /// \brief Every live series, sorted by (relation, kind, protocol).
  std::vector<LabeledSeries> Scrape() const;

  size_t SeriesCount() const;
  size_t LiveRelationLabels() const;

  /// \brief Drops all series and label slots (test isolation).
  void Reset();

 private:
  QueryLatencyFamily();

  struct Series {
    uint64_t buckets[kHistogramBuckets] = {};
    uint64_t sum = 0;
  };

  mutable std::mutex mu_;
  LabelDim relations_;
  LabelDim kinds_;
  LabelDim protocols_;
  // Key: relation_id << 32 | kind_id << 16 | protocol_id.
  std::map<uint64_t, Series> series_;
};

/// \brief Escapes a string for embedding in a JSON string literal (shared by
/// the snapshot, trace spans, and the bench JSON writer).
std::string JsonEscape(const std::string& s);

// -- Prometheus text exposition (served at /metrics) -------------------------

/// \brief Rewrites a registry metric name into the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character (the registry's dots
/// included) becomes '_', and a leading digit gains a '_' prefix.
std::string SanitizeMetricName(const std::string& name);

/// \brief Renders a scrape in the Prometheus text exposition format: one
/// `# HELP` + `# TYPE` header per metric, counters/gauges as single samples,
/// histograms as cumulative `_bucket{le="..."}` series (log2 upper bounds,
/// closed by `le="+Inf"`) plus `_sum` and `_count`.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// \brief Renders the labeled per-query latency family as one
/// `tempspec_query_latency` histogram per {relation, kind, protocol} series
/// (cumulative `_bucket{...,le="..."}` plus labeled `_sum`/`_count`). The
/// /metrics endpoint appends this after the registry text.
std::string RenderLabeledPrometheusText(
    const std::vector<LabeledSeries>& series);

/// \brief Escapes a Prometheus label value (backslash, quote, newline).
std::string EscapeLabelValue(const std::string& value);

// -- Instrumentation macros (compiled out without TEMPSPEC_METRICS) ----------
//
// `name` must be a string literal (or at least loop-invariant): the handle
// lookup runs once per call site via a function-local static, after which
// each hit is one relaxed atomic add. For names computed at runtime (e.g.
// per-strategy counters), wrap a cached-handle table in TS_METRICS_ONLY().

#ifdef TEMPSPEC_METRICS
#define TS_METRICS_ONLY(code) code
#define TS_COUNTER_ADD(name, n)                                      \
  do {                                                               \
    static ::tempspec::MetricCounter& ts_metric_ =                   \
        ::tempspec::MetricsRegistry::Instance().GetCounter(name);    \
    ts_metric_.Add(n);                                               \
  } while (0)
#define TS_COUNTER_INC(name) TS_COUNTER_ADD(name, 1)
#define TS_GAUGE_SET(name, v)                                        \
  do {                                                               \
    static ::tempspec::MetricGauge& ts_metric_ =                     \
        ::tempspec::MetricsRegistry::Instance().GetGauge(name);      \
    ts_metric_.Set(v);                                               \
  } while (0)
#define TS_GAUGE_ADD(name, v)                                        \
  do {                                                               \
    static ::tempspec::MetricGauge& ts_metric_ =                     \
        ::tempspec::MetricsRegistry::Instance().GetGauge(name);      \
    ts_metric_.Add(v);                                               \
  } while (0)
#define TS_HISTOGRAM_OBSERVE(name, v)                                \
  do {                                                               \
    static ::tempspec::MetricHistogram& ts_metric_ =                 \
        ::tempspec::MetricsRegistry::Instance().GetHistogram(name);  \
    ts_metric_.Observe(v);                                           \
  } while (0)
#else
#define TS_METRICS_ONLY(code)
#define TS_COUNTER_ADD(name, n) \
  do {                          \
  } while (0)
#define TS_COUNTER_INC(name) \
  do {                       \
  } while (0)
#define TS_GAUGE_SET(name, v) \
  do {                        \
  } while (0)
#define TS_GAUGE_ADD(name, v) \
  do {                        \
  } while (0)
#define TS_HISTOGRAM_OBSERVE(name, v) \
  do {                                \
  } while (0)
#endif  // TEMPSPEC_METRICS

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_METRICS_H_
