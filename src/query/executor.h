// Execution of the three temporal query classes over a TemporalRelation.
//
// Section 1 distinguishes (1) current queries, (2) historical queries (facts
// about the modeled reality — timeslice / valid-time range), and (3)
// rollback queries (the database as stored at a past transaction time). A
// TemporalQuery names one of them; Plan() chooses its strategy and Execute()
// runs it. All timeslice strategies are interchangeable: they return the
// same result set; only the number of elements examined differs
// (QueryStats).
//
// Execution engine: one scan path. Every strategy reduces its query to a
// contiguous candidate range — the whole store, a transaction-time window
// binary-searched on the tt_start column, or a monotone vt_start sub-range —
// whose row count W is exact. As-of queries (rollback, timeslice AS OF) cut
// that range to the transaction-time prefix stored by their instant:
// transaction time is append-only, so a row stored later cannot exist at it.
// A planned read (PlanChoice::choose_by_cost) then pays the cheaper of its
// two exact candidate sources: it probes the valid-time index with budget W
// and keeps the probe's hits if the probe finishes within it, else scans the
// range. The monotone range is already the overlap set and skips the probe;
// hand-built plans run exactly the strategy they name. elements_examined is
// what the read paid: the probe's work (run hits plus tail entries, counted
// before the as-of cut) plus W when the range was scanned, so it never
// exceeds 2 * min(W, probe work). Ranges run the plan's branch-free columnar
// kernel over the relation's StampStore (query/kernels.h); probe hits and
// row_at_a_time plans run the row predicate over Elements instead. The
// driver runs morsel-parallel on a ThreadPool when the optimizer judges the
// candidate count worth the dispatch cost; matches are collected per-morsel
// and concatenated in morsel order, so parallel and serial execution return
// byte-identical, position-ordered results. Results are zero-copy
// ResultSets (positions into relation.elements()); callers that need rows
// call ResultSet::Materialize().
#ifndef TEMPSPEC_QUERY_EXECUTOR_H_
#define TEMPSPEC_QUERY_EXECUTOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "query/optimizer.h"
#include "query/plan.h"
#include "query/result_set.h"
#include "relation/temporal_relation.h"
#include "util/thread_pool.h"

namespace tempspec {

/// \brief One query of Section 1's three classes: a current query, a
/// rollback to transaction time `as_of`, or a historical query over the
/// valid range [lo, hi) — a timeslice is the one-microsecond range at its
/// instant — read as currently believed or, with `as_of`, as believed at
/// that transaction time. Results are elements as finally stored: a row
/// logically deleted after `as_of` keeps its closed tt_end.
struct TemporalQuery {
  enum class Kind : uint8_t { kCurrent, kRollback, kTimeslice, kValidRange };

  static TemporalQuery Current() { return {}; }
  static TemporalQuery Rollback(TimePoint tt) {
    return {Kind::kRollback, TimePoint::Min(), TimePoint::Max(), tt};
  }
  static TemporalQuery Timeslice(
      TimePoint vt, std::optional<TimePoint> as_of = std::nullopt) {
    return {Kind::kTimeslice, vt, TimePoint::FromMicros(vt.micros() + 1),
            as_of};
  }
  static TemporalQuery ValidRange(TimePoint lo, TimePoint hi) {
    return {Kind::kValidRange, lo, hi, std::nullopt};
  }

  /// \brief The span (and executor.<span> counter) this query runs as:
  /// query.current, query.rollback, query.timeslice, query.timeslice_as_of
  /// or query.valid_range.
  const char* SpanName() const;

  Kind kind = Kind::kCurrent;
  TimePoint lo = TimePoint::Min();
  TimePoint hi = TimePoint::Max();
  std::optional<TimePoint> as_of;
};

/// \brief Execution knobs for one executor.
struct ExecutorOptions {
  /// Pool for morsel-parallel scans; nullptr forces serial execution.
  /// The default shares the lazily-started process-wide pool.
  ThreadPool* pool = &ThreadPool::Global();
  /// Elements per morsel. Contiguous ranges of this size are the unit of
  /// work distribution; ~64KiB of Elements keeps a morsel cache-resident.
  size_t morsel_size = 4096;
  /// Candidate-count floor for going parallel (the optimizer's cost cutoff;
  /// lowered by tests to force parallel execution at small sizes).
  size_t parallel_cutoff = Optimizer::kParallelCutoff;
  /// Per-query trace span (EXPLAIN ANALYZE). When set, each query records
  /// its plan choice, counters, pages touched, and stage timings into this
  /// context. One context per query: reuse across queries accumulates.
  TraceContext* trace = nullptr;
};

/// \brief Executes temporal queries against one relation.
///
/// Read-only: holds a const reference and only calls const methods of the
/// relation, so any number of executors (and their worker threads) may run
/// concurrently — provided no thread mutates the relation meanwhile (see the
/// concurrent-access contract in relation/temporal_relation.h).
class QueryExecutor {
 public:
  explicit QueryExecutor(const TemporalRelation& relation,
                         ExecutorOptions options = {})
      : relation_(relation),
        optimizer_(relation.specializations(), relation.schema()),
        options_(options) {}

  const Optimizer& optimizer() const { return optimizer_; }
  const ExecutorOptions& options() const { return options_; }

  /// \brief Chooses how `query` runs, timed as the trace's `plan` stage:
  /// the optimizer's plan for a timeslice or valid range, the
  /// existence-only scan for a current or rollback query.
  PlanChoice Plan(const TemporalQuery& query) const;

  /// \brief Runs `query` as span query.SpanName() and adds its counters to
  /// `*stats`. Runs `*plan` when given (a plan from Plan(query), or a
  /// hand-built one that runs exactly its strategy, for baselines and
  /// differential tests); otherwise plans the query first. The ResultSet
  /// views relation.elements() and is invalidated by any mutation of the
  /// relation; Materialize() copies the rows out.
  ResultSet Execute(const TemporalQuery& query, QueryStats* stats = nullptr,
                    const PlanChoice* plan = nullptr) const;

  /// \brief Exact row count W of `plan`'s candidate range for `query`, cut
  /// to the prefix stored by its as-of instant when it has one: what a range
  /// scan examines, and a cost choice's probe budget.
  size_t CandidateRows(const TemporalQuery& query,
                       const PlanChoice& plan) const;

  // -- Used only by the in-process replay of `tsbench --trace 1`
  // (perfbench/bench.cc), which ROADMAP.md item 3 deletes together with
  // these forwarders. Nothing else may call them.
  ResultSet CurrentSet(QueryStats* stats = nullptr) const {
    return Execute(TemporalQuery::Current(), stats);
  }
  ResultSet RollbackSet(TimePoint tt, QueryStats* stats = nullptr) const {
    return Execute(TemporalQuery::Rollback(tt), stats);
  }
  ResultSet TimesliceSet(TimePoint vt, QueryStats* stats = nullptr) const {
    return Execute(TemporalQuery::Timeslice(vt), stats);
  }
  ResultSet TimesliceAsOfSet(TimePoint vt, TimePoint tt,
                             QueryStats* stats = nullptr) const {
    return Execute(TemporalQuery::Timeslice(vt, tt), stats);
  }
  ResultSet ValidRangeSet(TimePoint lo, TimePoint hi,
                          QueryStats* stats = nullptr) const {
    return Execute(TemporalQuery::ValidRange(lo, hi), stats);
  }

 private:
  /// \brief The candidate position range [first, last) of `plan` (see
  /// CandidateRows).
  std::pair<size_t, size_t> CandidateRange(const TemporalQuery& query,
                                           const PlanChoice& plan) const;

  /// \brief The one scan driver: runs `scan(begin, end, out)` over the
  /// candidate indexes [0, count), where `scan` appends the matching
  /// positions of candidates [begin, end) to `*out` in candidate order (a
  /// columnar kernel over a contiguous range, or the row predicate over
  /// Elements). Serial below the optimizer's parallel cutoff, otherwise
  /// morsel-parallel with per-morsel buffers concatenated in morsel order,
  /// so the output is byte-identical either way. Polls cancellation once
  /// per morsel when a trace is attached.
  template <typename ScanRange>
  std::vector<uint64_t> DriveMorsels(size_t count, const ScanRange& scan,
                                     QueryStats* stats) const;

  const TemporalRelation& relation_;
  Optimizer optimizer_;
  ExecutorOptions options_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_EXECUTOR_H_
