// TemporalRelation: the bitemporal relation engine of Section 2, with
// intensional enforcement of declared temporal specializations (Section 3).
//
// A relation is a sequence of historical states indexed by transaction time.
// Updates are:
//   Insert        — a new element enters the current state at a fresh,
//                   system-generated transaction time.
//   LogicalDelete — the element's existence interval [tt_b, tt_d) closes;
//                   nothing is physically removed.
//   Modify        — per Section 2, a logical deletion plus an insertion with
//                   a *fresh element surrogate*, both indexed by the single
//                   transaction time of the modifying transaction.
//
// Queries over transaction time (rollback) and valid time (timeslice) are in
// src/query (QueryExecutor); this class holds the elements, indexes and stamp
// columns they scan.
//
// Concurrent-access contract (for the morsel-parallel execution layer): the
// relation is single-writer. All const member functions — elements(),
// stamps(), the index accessors, GetElement(), PartitionOf(), GetStats() —
// are safe to call from any number of threads simultaneously, PROVIDED no
// thread is concurrently executing a non-const member (Insert*, Modify,
// LogicalDelete, VacuumBefore, Checkpoint). The span returned by elements()
// and any ResultSet built over it are invalidated by every mutation, exactly
// like an iterator. The engine does no internal locking; interleaving
// readers with a writer is the caller's responsibility.
#ifndef TEMPSPEC_RELATION_TEMPORAL_RELATION_H_
#define TEMPSPEC_RELATION_TEMPORAL_RELATION_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/interval_index.h"
#include "model/element.h"
#include "model/schema.h"
#include "relation/stamp_store.h"
#include "spec/drift.h"
#include "spec/specialization.h"
#include "storage/backlog.h"
#include "timex/clock.h"
#include "util/result.h"

namespace tempspec {

/// \brief How the relation treats valid stamps that are finer than the
/// schema's valid-time granularity (Section 2 gives each relation its own
/// granularity; whether the system snaps or rejects finer stamps is an
/// engine policy).
enum class GranularityPolicy : uint8_t {
  kIgnore,    // store stamps as supplied (granularity used semantically only)
  kTruncate,  // snap stamps to the granule start before storing
  kReject,    // refuse misaligned stamps
};

/// \brief Construction options for a relation.
struct RelationOptions {
  SchemaPtr schema;
  SpecializationSet specializations;
  /// Transaction-time stamp source; when null the relation owns a
  /// LogicalClock starting at the epoch with a 1s step.
  std::shared_ptr<TransactionClock> clock;
  /// Storage for the backlog; empty directory = in-memory only.
  BacklogStore::Options storage;
  GranularityPolicy granularity_policy = GranularityPolicy::kIgnore;
};

/// \brief A bitemporal relation with declared specializations.
class TemporalRelation {
 public:
  /// \brief Opens (and, when the storage directory holds a backlog,
  /// recovers) a relation. The declared specializations are validated
  /// against the schema and against any recovered extension.
  static Result<std::unique_ptr<TemporalRelation>> Open(RelationOptions options);

  const Schema& schema() const { return *schema_; }
  const SpecializationSet& specializations() const { return specs_; }
  TransactionClock& clock() { return *clock_; }
  const BacklogStore& backlog() const { return *backlog_; }

  // -- Updates ---------------------------------------------------------------

  /// \brief Inserts an event-stamped fact; returns the element surrogate.
  Result<ElementSurrogate> InsertEvent(ObjectSurrogate object, TimePoint vt,
                                       Tuple attributes);

  /// \brief Inserts an interval-stamped fact.
  Result<ElementSurrogate> InsertInterval(ObjectSurrogate object, TimePoint vt_begin,
                                          TimePoint vt_end, Tuple attributes);

  /// \brief Inserts with an explicit ValidTime (kind must match the schema).
  Result<ElementSurrogate> Insert(ObjectSurrogate object, ValidTime valid,
                                  Tuple attributes);

  /// \brief Logically deletes a current element.
  Status LogicalDelete(ElementSurrogate surrogate);

  /// \brief Modification per Section 2: logical delete + insert with a fresh
  /// surrogate, sharing one transaction time. Returns the new surrogate.
  Result<ElementSurrogate> Modify(ElementSurrogate surrogate, ValidTime new_valid,
                                  Tuple new_attributes);

  // -- State access ----------------------------------------------------------

  /// \brief Every element ever stored, in insertion order.
  std::span<const Element> elements() const { return elements_; }
  size_t size() const { return elements_.size(); }

  Result<Element> GetElement(ElementSurrogate surrogate) const;

  /// \brief The life-line of one object: its elements in insertion order
  /// (the per-surrogate partition of Section 2).
  std::vector<const Element*> PartitionOf(ObjectSurrogate object) const;

  /// \brief Distinct object surrogates, in first-appearance order.
  std::vector<ObjectSurrogate> Objects() const;

  /// \brief Transaction time of the last applied operation.
  TimePoint LastTransactionTime() const { return clock_->Last(); }

  // -- Indexes ---------------------------------------------------------------

  /// \brief Interval index over valid time (events indexed as unit-chronon
  /// intervals).
  const IntervalIndex& valid_index() const { return valid_index_; }

  /// \brief Columnar copy of every element's stamps, position-aligned with
  /// elements(): the input of the vectorized scan kernels (query/kernels.h).
  /// Maintained through every mutation and rebuilt on recovery and vacuum
  /// like the other derived structures. Transaction time is monotone, so the
  /// tt_start column is non-decreasing: it doubles as the append-only
  /// transaction-time index (binary-searched, Section 3.1).
  const StampStore& stamps() const { return stamps_; }

  // -- Integrity ------------------------------------------------------------

  /// \brief Re-validates the full extension against the declared
  /// specializations (batch semantics, including deletion anchors).
  Status CheckExtension() const;

  /// \brief Moves the backlog's WAL tail into its page file (durable
  /// relations).
  Status Checkpoint() { return backlog_->Checkpoint(); }

  /// \brief Physical deletion: discards every element whose existence
  /// interval ended at or before `horizon` (it is invisible to any rollback
  /// at or after the horizon). Rollback queries older than the horizon are
  /// no longer answerable — this deliberately trades the paper's
  /// keep-everything semantics for space, as production systems must.
  /// Indexes, partitions and the backlog (compacted, durably when
  /// applicable) are rebuilt; if compacting the backlog fails, the in-memory
  /// elements and indexes are left untouched. Returns the number of elements
  /// removed. Constraint-checker state is preserved: future updates must
  /// still be consistent with the full (pre-vacuum) history.
  Result<size_t> VacuumBefore(TimePoint horizon);

  /// \brief Point-in-time specialization-drift state: declared vs observed
  /// kind, Figure-1 pane occupancy, violation count (see spec/drift.h). In
  /// a TEMPSPEC_METRICS=OFF tree the monitor never observes anything, so
  /// the report shows zero stamps.
  DriftReport DriftState() const { return drift_.Report(); }

  /// \brief Storage and population statistics.
  struct Stats {
    size_t elements = 0;          // every element ever stored
    size_t current_elements = 0;  // not logically deleted
    size_t objects = 0;           // distinct object surrogates
    size_t backlog_operations = 0;
    size_t backlog_bytes = 0;     // encoded size of all operations
    TimePoint first_transaction = TimePoint::Max();
    TimePoint last_transaction = TimePoint::Min();
  };
  Stats GetStats() const;

 private:
  explicit TemporalRelation(RelationOptions options);

  Result<ElementSurrogate> InsertAt(TimePoint tt, ObjectSurrogate object,
                                    ValidTime valid, Tuple attributes);
  Status LogicalDeleteAt(TimePoint tt, ElementSurrogate surrogate);
  Status ApplyRecovered(BacklogEntry&& entry);
  void IndexElement(const Element& e, size_t position);

  SchemaPtr schema_;
  SpecializationSet specs_;
  std::shared_ptr<TransactionClock> clock_;
  std::unique_ptr<BacklogStore> backlog_;
  ConstraintChecker checker_;
  RelationDriftMonitor drift_;
  GranularityPolicy granularity_policy_ = GranularityPolicy::kIgnore;
  SurrogateGenerator surrogates_;

  std::vector<Element> elements_;  // authoritative bitemporal store
  std::unordered_map<ElementSurrogate, size_t> by_surrogate_;
  std::unordered_map<ObjectSurrogate, std::vector<size_t>> partitions_;
  std::vector<ObjectSurrogate> object_order_;
  IntervalIndex valid_index_;
  StampStore stamps_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_RELATION_TEMPORAL_RELATION_H_
