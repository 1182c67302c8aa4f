#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <tuple>

#include "obs/metrics.h"
#include "query/kernels.h"

namespace tempspec {

namespace {

void Count(QueryStats* stats, uint64_t examined, uint64_t probes = 0) {
  if (stats == nullptr) return;
  stats->elements_examined += examined;
  stats->index_probes += probes;
}

/// \brief Records the scan kernel a query actually ran (which can differ
/// from the planned one when a columnar precondition fails): trace attribute
/// for EXPLAIN ANALYZE, per-kernel registry counter for /metrics.
void RecordKernel(TraceContext* trace, ScanKernel kernel) {
  const char* token = ScanKernelToToken(kernel);
  if (trace != nullptr) trace->SetAttr("kernel", token);
  TS_METRICS_ONLY({
    MetricsRegistry::Instance()
        .GetCounter(std::string("executor.kernel.") + token)
        .Increment();
  });
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// \brief Adds wall-clock time to stats->wall_micros on scope exit.
class StatsTimer {
 public:
  explicit StatsTimer(QueryStats* stats) : stats_(stats) {
    if (stats_) start_ = std::chrono::steady_clock::now();
  }
  ~StatsTimer() {
    if (stats_ == nullptr) return;
    stats_->wall_micros +=
        MicrosBetween(start_, std::chrono::steady_clock::now());
  }

 private:
  QueryStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Per-query observation scope: routes stats, populates the trace
/// span, and publishes registry metrics on exit.
///
/// Declared before the StatsTimer in every entry point, so the timer's
/// destructor finalizes wall_micros before this scope reads the deltas. When
/// the caller passed no QueryStats but a trace is attached (or metrics are
/// compiled in), a scope-local QueryStats collects the counters instead.
class QueryScope {
 public:
  QueryScope(const TemporalRelation& relation, TraceContext* trace,
             const char* span_name, QueryStats* caller_stats)
      : trace_(trace), span_name_(span_name) {
    if (trace_ != nullptr) trace_->Begin(span_name);
    if (caller_stats != nullptr) {
      stats_ = caller_stats;
      baseline_ = *caller_stats;
    } else if (trace_ != nullptr || MetricsCompiledIn()) {
      stats_ = &local_;
    }
    if (stats_ != nullptr) {
      if (const BufferPool* pool = relation.backlog().buffer_pool()) {
        pool_ = pool;
        pages_before_ = pool->hits() + pool->misses();
      }
    }
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// \brief Stats target for this query: the caller's, a scope-local one
  /// when observation needs counters anyway, or nullptr.
  QueryStats* stats() const { return stats_; }

  /// \brief Records the optimizer's rationale for the span.
  void SetPlan(const PlanChoice& plan) {
    if (trace_ != nullptr && !plan.rationale.empty()) {
      trace_->SetAttr("plan", plan.rationale);
    }
  }

  /// \brief Records the path that ran (span attribute and registry
  /// counter), the candidate range's row count, and the index probe's work
  /// when one ran.
  void SetPath(const char* token, size_t range_rows,
               std::optional<size_t> probe_work) {
    strategy_token_ = token;
    range_rows_ = range_rows;
    probe_work_ = probe_work;
  }

  ~QueryScope() {
    if (stats_ == nullptr) return;
    QueryStats d = *stats_;
    d.elements_examined -= baseline_.elements_examined;
    d.index_probes -= baseline_.index_probes;
    d.results -= baseline_.results;
    d.wall_micros -= baseline_.wall_micros;
    d.cpu_micros -= baseline_.cpu_micros;
    d.morsels_executed -= baseline_.morsels_executed;
    d.rows_scanned -= baseline_.rows_scanned;
    d.rows_matched -= baseline_.rows_matched;
    d.scan_aborts -= baseline_.scan_aborts;
    const uint64_t pages_touched =
        pool_ == nullptr ? 0 : pool_->hits() + pool_->misses() - pages_before_;

    if (trace_ != nullptr) {
      if (strategy_token_ != nullptr) {
        trace_->SetAttr("strategy", strategy_token_);
        trace_->AddCounter("range_rows", range_rows_);
        if (probe_work_.has_value()) {
          trace_->AddCounter("probe_work", *probe_work_);
        }
      }
      trace_->AddCounter("elements_examined", d.elements_examined);
      trace_->AddCounter("index_probes", d.index_probes);
      trace_->AddCounter("results", d.results);
      trace_->AddCounter("morsels_executed", d.morsels_executed);
      trace_->AddCounter("cpu_micros", d.cpu_micros);
      trace_->AddCounter("rows_scanned", d.rows_scanned);
      trace_->AddCounter("rows_matched", d.rows_matched);
      trace_->AddCounter("pages_touched", pages_touched);
      if (d.scan_aborts > 0) {
        trace_->AddCounter("scan_aborts", d.scan_aborts);
        trace_->SetAttr("cancelled", "true");
      }
      trace_->End();
    }

    TS_METRICS_ONLY({
      MetricsRegistry& reg = MetricsRegistry::Instance();
      reg.GetCounter(std::string("executor.") + span_name_).Increment();
      if (strategy_token_ != nullptr) {
        reg.GetCounter(std::string("executor.strategy.") + strategy_token_)
            .Increment();
      }
      TS_COUNTER_INC("executor.queries");
      TS_COUNTER_ADD("executor.elements_examined", d.elements_examined);
      TS_COUNTER_ADD("executor.elements_returned", d.results);
      TS_COUNTER_ADD("executor.index_probes", d.index_probes);
      TS_COUNTER_ADD("executor.morsels", d.morsels_executed);
      TS_COUNTER_ADD("executor.rows_scanned", d.rows_scanned);
      TS_COUNTER_ADD("executor.rows_matched", d.rows_matched);
      TS_COUNTER_ADD("executor.scan_aborts", d.scan_aborts);
      TS_HISTOGRAM_OBSERVE("executor.query_wall_micros", d.wall_micros);
    });
  }

 private:
  TraceContext* trace_;
  const char* span_name_;
  const char* strategy_token_ = nullptr;
  size_t range_rows_ = 0;
  std::optional<size_t> probe_work_;
  QueryStats* stats_ = nullptr;
  QueryStats local_;
  QueryStats baseline_;
  const BufferPool* pool_ = nullptr;
  uint64_t pages_before_ = 0;
};

}  // namespace

template <typename ScanRange>
std::vector<uint64_t> QueryExecutor::DriveMorsels(size_t count,
                                                  const ScanRange& scan,
                                                  QueryStats* stats) const {
  ThreadPool* pool = options_.pool;
  const size_t grain = options_.morsel_size == 0 ? 1 : options_.morsel_size;
  const bool parallel =
      pool != nullptr && pool->size() > 1 && count > grain &&
      optimizer_.ShouldParallelize(count, options_.parallel_cutoff);
  TraceContext* const trace = options_.trace;
  std::vector<uint64_t> out;
  if (!parallel) {
    std::chrono::steady_clock::time_point scan_start;
    if (stats) scan_start = std::chrono::steady_clock::now();
    size_t scanned = count;
    if (trace == nullptr) {
      scan(0, count, &out);
    } else {
      // With a trace attached, cancellation is polled once per grain-sized
      // chunk — the serial mirror of the per-morsel checks below, so a
      // deadline stops a long serial scan within one morsel too. Chunked
      // scans concatenate exactly like one scan over the whole range.
      size_t base = 0;
      for (; base < count; base += grain) {
        if (trace->CancellationRequested()) break;
        scan(base, std::min(count, base + grain), &out);
      }
      scanned = std::min(base, count);
      if (stats && base < count) {
        stats->scan_aborts += (count - base + grain - 1) / grain;
      }
    }
    if (stats && count > 0) {
      stats->morsels_executed += 1;
      stats->cpu_micros +=
          MicrosBetween(scan_start, std::chrono::steady_clock::now());
      stats->rows_scanned += scanned;
      stats->rows_matched += out.size();
    }
    return out;
  }

  // Morsel-parallel: workers claim contiguous candidate chunks and scan each
  // into a private buffer (for a kernel, its drained selection bitmap);
  // concatenating the buffers in morsel order makes the output identical to
  // the serial loop above. Per-morsel scan durations accumulate into
  // cpu_micros — the summed cross-worker time whose gap to wall_micros is
  // the parallel speedup.
  const size_t morsels = (count + grain - 1) / grain;
  std::vector<std::vector<uint64_t>> parts(morsels);
  std::atomic<uint64_t> cpu_micros{0};
  std::atomic<uint64_t> skipped_rows{0};
  std::atomic<uint64_t> aborts{0};
  pool->ParallelFor(count, grain,
                    [&](size_t morsel, size_t begin, size_t end) {
                      if (trace != nullptr && trace->CancellationRequested()) {
                        aborts.fetch_add(1, std::memory_order_relaxed);
                        skipped_rows.fetch_add(end - begin,
                                               std::memory_order_relaxed);
                        return;
                      }
                      std::chrono::steady_clock::time_point morsel_start;
                      if (stats) morsel_start = std::chrono::steady_clock::now();
                      scan(begin, end, &parts[morsel]);
                      if (stats) {
                        cpu_micros.fetch_add(
                            MicrosBetween(morsel_start,
                                          std::chrono::steady_clock::now()),
                            std::memory_order_relaxed);
                      }
                    });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  if (stats) {
    stats->morsels_executed += morsels;
    stats->cpu_micros += cpu_micros.load(std::memory_order_relaxed);
    stats->rows_scanned += count - skipped_rows.load(std::memory_order_relaxed);
    stats->rows_matched += total;
    stats->scan_aborts += aborts.load(std::memory_order_relaxed);
  }
  return out;
}

const char* TemporalQuery::SpanName() const {
  switch (kind) {
    case Kind::kCurrent:
      return "query.current";
    case Kind::kRollback:
      return "query.rollback";
    case Kind::kTimeslice:
      return as_of.has_value() ? "query.timeslice_as_of" : "query.timeslice";
    case Kind::kValidRange:
      return "query.valid_range";
  }
  return "query.unknown";
}

std::pair<size_t, size_t> QueryExecutor::CandidateRange(
    const TemporalQuery& query, const PlanChoice& plan) const {
  const StampColumns cols = relation_.stamps().columns();
  size_t first = 0;
  size_t last = cols.size;
  switch (plan.strategy) {
    case ExecutionStrategy::kFullScan:
    case ExecutionStrategy::kValidIndex:
      break;

    case ExecutionStrategy::kRollbackEquivalence:
    case ExecutionStrategy::kTransactionWindow:
      // The declared specialization guarantees every match was stored inside
      // the transaction-time window. Transaction time is monotone in
      // position order, so the tt_start column is the append-only
      // transaction index and the window is one binary-searched range.
      std::tie(first, last) =
          MonotoneBounds(cols.tt_start, cols.size,
                         plan.tt_window.begin().micros(),
                         plan.tt_window.end().micros());
      break;

    case ExecutionStrategy::kMonotoneBinarySearch:
      // Valid times are non-decreasing in insertion order: binary search the
      // vt_start column (for events it stores valid.at()) for the matching
      // sub-range.
      std::tie(first, last) =
          MonotoneBounds(cols.vt_start, cols.size, query.lo.micros(),
                         query.hi.micros());
      break;
  }
  if (query.as_of.has_value()) {
    // Transaction time is append-only, so nothing stored after `as_of` can
    // exist at it: intersect the range with the believed prefix.
    last = std::min(last, relation_.stamps().StoredBy(*query.as_of));
    first = std::min(first, last);
  }
  return {first, last};
}

size_t QueryExecutor::CandidateRows(const TemporalQuery& query,
                                    const PlanChoice& plan) const {
  const auto [first, last] = CandidateRange(query, plan);
  return last - first;
}

PlanChoice QueryExecutor::Plan(const TemporalQuery& query) const {
  TraceContext::StageScope plan_stage(options_.trace, "plan");
  switch (query.kind) {
    case TemporalQuery::Kind::kCurrent:
    case TemporalQuery::Kind::kRollback:
      break;
    case TemporalQuery::Kind::kTimeslice:
      // The optimizer's strategies bound where matches were *inserted*;
      // logical deletion never moves an insertion, so an as-of timeslice
      // takes the same plan with ExistsAt(as_of) as its belief filter.
      return optimizer_.PlanTimeslice(query.lo);
    case TemporalQuery::Kind::kValidRange:
      return optimizer_.PlanValidRange(query.lo, query.hi);
  }
  // Current and rollback queries share one shape: a scan whose predicate
  // reads only the existence columns (the existence_columnar kernel, which
  // ignores the valid range) over every row, or over the transaction-time
  // prefix stored by the rollback instant.
  PlanChoice plan;
  plan.kernel = ScanKernel::kExistence;
  return plan;
}

ResultSet QueryExecutor::Execute(const TemporalQuery& query, QueryStats* stats,
                                 const PlanChoice* plan_in) const {
  if (plan_in == nullptr) {
    const PlanChoice planned = Plan(query);
    return Execute(query, stats, &planned);
  }
  const PlanChoice& plan = *plan_in;
  const TimePoint lo = query.lo;
  const TimePoint hi = query.hi;
  const std::optional<TimePoint> as_of = query.as_of;
  QueryScope scope(relation_, options_.trace, query.SpanName(), stats);
  scope.SetPlan(plan);
  stats = scope.stats();
  StatsTimer timer(stats);
  TraceContext::StageScope scan_stage(options_.trace, "scan");
  const std::span<const Element> elements = relation_.elements();
  const StampColumns cols = relation_.stamps().columns();
  // Every mutation point updates both stores together, so position i of
  // every stamp column describes elements[i]; the bounds and kernels below
  // rely on it.
  if (cols.size != elements.size()) {
    Status::Internal("stamp store holds ", cols.size, " rows for ",
                     elements.size(), " elements")
        .Check();
  }
  const int64_t klo = lo.micros();
  const int64_t khi = hi.micros();
  const int64_t kasof = as_of.has_value() ? as_of->micros() : kCurrentAsOf;

  // Candidates: the strategy's contiguous position range [first, last), cut
  // to the as-of prefix, or the valid-index probe's position list.
  const auto [first, last] = CandidateRange(query, plan);
  const size_t range_rows = last - first;
  // A cost choice probes the index with the range's exact row count as its
  // budget and keeps the hits only if the probe stays within it; a
  // hand-built index plan probes unbounded. The value limit skips index
  // runs stored wholly after the as-of prefix; hits past it inside a
  // visited run still count, so the as-of cut never hides probe work.
  const bool forced_probe =
      !plan.choose_by_cost && plan.strategy == ExecutionStrategy::kValidIndex;
  IntervalIndex::Probe probe;
  std::optional<size_t> probe_work;
  if (plan.choose_by_cost || forced_probe) {
    const size_t stored = as_of.has_value()
                              ? relation_.stamps().StoredBy(*as_of)
                              : elements.size();
    probe = relation_.valid_index().OverlappingWithin(
        lo, hi, forced_probe ? std::numeric_limits<size_t>::max() : range_rows,
        stored);
    probe_work = probe.work;
  }
  const bool probe_won = probe_work.has_value() && probe.complete;
  const size_t count = probe_won ? probe.values.size() : range_rows;
  const bool range_searched =
      plan.strategy != ExecutionStrategy::kFullScan &&
      plan.strategy != ExecutionStrategy::kValidIndex;
  Count(stats, probe.work + (probe_won ? 0 : range_rows),
        (probe_work.has_value() ? 1 : 0) + (range_searched ? 1 : 0));

  ExecutionStrategy path = plan.strategy;
  ScanKernel kernel = plan.kernel;
  if (probe_won) {
    path = ExecutionStrategy::kValidIndex;
    // Overlapping positions come back ascending (IntervalIndex's contract)
    // but non-contiguous, so the probe path is row-at-a-time.
    kernel = ScanKernel::kRowAtATime;
  } else if (path == ExecutionStrategy::kValidIndex) {
    path = ExecutionStrategy::kFullScan;  // the probe lost: scan the store
  } else if (path == ExecutionStrategy::kMonotoneBinarySearch &&
             kernel != ScanKernel::kRowAtATime) {
    kernel = ScanKernel::kMonotone;  // the range already applied the vt test
  }
  // kMonotone assumes its valid-range tests were pre-applied by
  // MonotoneBounds; on an unbounded scan only the generic predicate is
  // complete.
  if (path == ExecutionStrategy::kFullScan && kernel == ScanKernel::kMonotone) {
    kernel = ScanKernel::kGeneric;
  }
  scope.SetPath(path == ExecutionStrategy::kFullScan && as_of.has_value()
                    ? "transaction_prefix"
                    : ExecutionStrategyToToken(path),
                range_rows, probe_work);

  std::vector<uint64_t> positions;
  if (kernel != ScanKernel::kRowAtATime) {
    positions = DriveMorsels(
        count,
        [&](size_t begin, size_t end, std::vector<uint64_t>* out) {
          KernelScan(kernel, cols, first + begin, first + end, klo, khi, kasof,
                     out);
        },
        stats);
  } else {
    // Belief filter: current queries require an open existence interval;
    // as-of queries require existence at the given transaction time.
    const auto matches = [lo, hi, as_of](const Element& e) {
      if (as_of.has_value() ? !e.ExistsAt(*as_of) : !e.IsCurrent()) {
        return false;
      }
      if (e.valid.is_event()) {
        const TimePoint vt = e.valid.at();
        return lo <= vt && vt < hi;
      }
      return e.valid.begin() < hi && lo < e.valid.end();
    };
    const auto row_walk = [&](const auto& pos_at) {
      return DriveMorsels(
          count,
          [&](size_t begin, size_t end, std::vector<uint64_t>* out) {
            for (size_t i = begin; i < end; ++i) {
              const uint64_t pos = pos_at(i);
              if (matches(elements[pos])) out->push_back(pos);
            }
          },
          stats);
    };
    positions = probe_won ? row_walk([&](size_t i) { return probe.values[i]; })
                          : row_walk([first](size_t i) {
                              return static_cast<uint64_t>(first + i);
                            });
  }

  RecordKernel(options_.trace, kernel);
  if (stats) stats->results += positions.size();
  return ResultSet(elements, std::move(positions));
}

}  // namespace tempspec
