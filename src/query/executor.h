// Execution of the three temporal query classes over a TemporalRelation.
//
// Section 1 distinguishes (1) current queries, (2) historical queries (facts
// about the modeled reality — timeslice / valid-time range), and (3)
// rollback queries (the database as stored at a past transaction time). All
// timeslice strategies are interchangeable: they return the same result set;
// only the number of elements examined differs (QueryStats).
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
// ResultSets (positions into relation.elements()); the std::vector<Element>
// signatures below are thin materializing adapters kept for existing
// callers.
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

  // -- Zero-copy interface ---------------------------------------------------
  // ResultSets view relation.elements(); they are invalidated by any
  // mutation of the relation.

  /// \brief Current query: the present state of the relation.
  ResultSet CurrentSet(QueryStats* stats = nullptr) const;

  /// \brief Rollback query as a position view: elements whose existence
  /// interval contains `tt`, as finally stored (a logically deleted element
  /// appears with its closed tt_end — positions cannot re-open stamps).
  /// Scans only the transaction-time prefix stored by `tt`.
  ResultSet RollbackSet(TimePoint tt, QueryStats* stats = nullptr) const;

  /// \brief Historical (timeslice) query: current-belief facts valid at
  /// `vt`. Strategy chosen by the optimizer.
  ResultSet TimesliceSet(TimePoint vt, QueryStats* stats = nullptr) const;

  /// \brief Timeslice with an explicit plan (for baseline measurements).
  ResultSet TimesliceSetWith(const PlanChoice& plan, TimePoint vt,
                             QueryStats* stats = nullptr) const;

  /// \brief Facts whose valid time intersects [lo, hi), current belief.
  ResultSet ValidRangeSet(TimePoint lo, TimePoint hi,
                          QueryStats* stats = nullptr) const;
  ResultSet ValidRangeSetWith(const PlanChoice& plan, TimePoint lo, TimePoint hi,
                              QueryStats* stats = nullptr) const;

  /// \brief Bitemporal query: facts valid at `vt` as believed at transaction
  /// time `tt`. Planned like a timeslice (the optimizer's strategies bound
  /// *insertion* times, which deletion never moves), with the existence
  /// filter ExistsAt(tt) applied on top of the chosen strategy, whose
  /// candidates are cut to the prefix stored by `tt`.
  ResultSet TimesliceAsOfSet(TimePoint vt, TimePoint tt,
                             QueryStats* stats = nullptr) const;
  ResultSet TimesliceAsOfSetWith(const PlanChoice& plan, TimePoint vt,
                                 TimePoint tt,
                                 QueryStats* stats = nullptr) const;

  /// \brief Exact row count W of `plan`'s candidate range over the valid
  /// range [lo, hi), cut to the prefix stored by `*as_of` when set: what a
  /// range scan examines, and a cost choice's probe budget.
  size_t CandidateRows(const PlanChoice& plan, TimePoint lo, TimePoint hi,
                       std::optional<TimePoint> as_of) const;

  // -- Materializing adapters (pre-ResultSet signatures) ---------------------

  std::vector<Element> Current(QueryStats* stats = nullptr) const;

  /// \brief Rollback query: the state as stored at transaction time `tt`,
  /// materialized from RollbackSet (the transaction-time prefix scan), so
  /// elements come in position order with their final tt_end.
  std::vector<Element> Rollback(TimePoint tt, QueryStats* stats = nullptr) const;

  std::vector<Element> Timeslice(TimePoint vt, QueryStats* stats = nullptr) const;
  std::vector<Element> TimesliceWith(const PlanChoice& plan, TimePoint vt,
                                     QueryStats* stats = nullptr) const;
  std::vector<Element> ValidRange(TimePoint lo, TimePoint hi,
                                  QueryStats* stats = nullptr) const;
  std::vector<Element> ValidRangeWith(const PlanChoice& plan, TimePoint lo,
                                      TimePoint hi,
                                      QueryStats* stats = nullptr) const;
  std::vector<Element> TimesliceAsOf(TimePoint vt, TimePoint tt,
                                     QueryStats* stats = nullptr) const;
  std::vector<Element> TimesliceAsOfWith(const PlanChoice& plan, TimePoint vt,
                                         TimePoint tt,
                                         QueryStats* stats = nullptr) const;

 private:
  /// \brief The candidate position range [first, last) of `plan` (see
  /// CandidateRows).
  std::pair<size_t, size_t> CandidateRange(const PlanChoice& plan,
                                           TimePoint lo, TimePoint hi,
                                           std::optional<TimePoint> as_of) const;

  /// \brief Shared core: executes `plan` over the valid range [lo, hi) as
  /// span `span_name`, filtering by current belief (as_of empty) or by
  /// existence at `*as_of`. Chooses the candidate source (see the file
  /// comment), records the path that ran as the span's and the registry's
  /// strategy, and drives the scan.
  ResultSet ExecutePlan(const char* span_name, const PlanChoice& plan,
                        TimePoint lo, TimePoint hi,
                        std::optional<TimePoint> as_of,
                        QueryStats* stats) const;

  /// \brief Shared core of CurrentSet/RollbackSet: ExecutePlan's full scan
  /// with the existence-only predicate (the existence_columnar kernel); an
  /// empty `as_of` selects current belief, a set one bounds the scan to the
  /// transaction-time prefix (strategy token "transaction_prefix").
  ResultSet ExistenceScan(const char* span_name, std::optional<TimePoint> as_of,
                          QueryStats* stats) const;

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
