// Online specialization-drift monitoring.
//
// A declared specialization is only a sound basis for "selecting appropriate
// storage structures, indexing techniques, and query processing strategies"
// while the data actually stays inside its declared Figure-1 region. The
// ConstraintChecker *enforces* the declaration — it rejects escaping
// updates, which also means enforcement masks drift: a relation whose
// workload has shifted looks clean in its extension while inserts bounce.
// The drift monitor is the observational counterpart. It watches every
// *attempted* insert (it runs before the checker) and maintains, per
// relation:
//
//   * occupancy counts over the twelve Figure-1 panes
//     (EnumerateEventRegions: which enumerated regions each (tt, vt) stamp
//     falls in — panes overlap, so one stamp counts in several);
//   * the tightest EventSpecKind consistent with everything observed
//     (IncrementalEventProfile — the streaming form of the inference
//     engine);
//   * the declared kind (the intersection of the declared insertion-anchored
//     event bands, classified), the Figure-2 lattice distance between
//     declared and observed, and a count of outright violations (stamps
//     outside the declared band — exactly the inserts enforcement rejects).
//
// The state machine per relation: UNDECLARED (no event specs) ->
// CONFORMING (observed kind is the declared kind or a descendant, distance
// measured on the lattice) -> DRIFTED (observed escaped to a kind that is
// not a descendant; violations > 0). Drift never un-happens: the observed
// band only widens. The catalog Advisor folds the report into its notes,
// and `SHOW SPECIALIZATION <relation>` renders it.
//
// Compile-out contract: the class always compiles; the relation's ingest
// call site is wrapped in TS_METRICS_ONLY, and the monitor's own registry
// updates are compiled under TEMPSPEC_METRICS — an OFF tree observes
// nothing and registers nothing.
#ifndef TEMPSPEC_SPEC_DRIFT_H_
#define TEMPSPEC_SPEC_DRIFT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "spec/enumeration.h"
#include "spec/event_spec.h"
#include "spec/inference.h"
#include "spec/specialization.h"
#include "timex/granularity.h"

namespace tempspec {

/// \brief Occupancy of one Figure-1 pane.
struct DriftRegionCount {
  std::string construction;  // the pane's derivation, from the enumeration
  EventSpecKind kind;        // the taxonomy type the pane classifies to
  uint64_t count = 0;        // stamps observed inside the pane's band
};

/// \brief Point-in-time drift state of one relation.
struct DriftReport {
  std::string relation;
  /// True when the relation declared at least one insertion-anchored
  /// isolated-event specialization.
  bool has_declaration = false;
  EventSpecKind declared = EventSpecKind::kGeneral;
  /// Tightest kind consistent with the observed stamps (kGeneral with
  /// observed_count == 0 means "no data yet", not "observed general").
  EventSpecKind observed = EventSpecKind::kGeneral;
  uint64_t observed_count = 0;
  /// Attempted inserts whose stamp fell outside the declared band. These are
  /// exactly the inserts the ConstraintChecker rejects, so they are NOT in
  /// the extension — drift shows what enforcement masks.
  uint64_t violations = 0;
  /// Undirected Figure-2 lattice distance declared -> observed (0 when they
  /// coincide or no data has arrived).
  size_t lattice_distance = 0;
  /// True while every attempted stamp satisfied the declared bands
  /// (violations == 0). Exact, unlike a kind-level lattice comparison:
  /// an observed strongly-bounded band can exceed the declared
  /// strongly-bounded deltas while the kinds still coincide.
  bool conforming = true;
  /// The twelve panes, in enumeration order.
  std::vector<DriftRegionCount> regions;
  /// The full streaming profile (offsets, band, degenerate flag).
  EventProfile profile;

  /// \brief Multi-line human-readable rendering (SHOW SPECIALIZATION).
  std::string ToString() const;
};

/// \brief Per-relation drift monitor. Observe() is called from the
/// relation's ingest path (single writer); Report() may race with it from
/// SHOW / the advisor, so both take one mutex — the monitor is per *query*,
/// not per element batch, on the read side, and one lock per insert is
/// noise next to the WAL append the insert just paid for.
class RelationDriftMonitor {
 public:
  /// \brief `declared` supplies the insertion-anchored event bands;
  /// `granularity` drives the degenerate test; the deltas instantiate the
  /// twelve panes (defaults match the Figure-1 property-test oracle).
  RelationDriftMonitor(std::string relation_name,
                       const SpecializationSet& declared,
                       Granularity granularity,
                       Duration delta_small = Duration::Seconds(30),
                       Duration delta_large = Duration::Seconds(90));

  /// \brief Folds one attempted insert stamp into the monitor and publishes
  /// the per-relation gauges/counters to the metrics registry.
  void Observe(TimePoint tt, TimePoint vt);

  DriftReport Report() const;

  const std::string& relation_name() const { return relation_name_; }

 private:
  /// Granularity-aware membership test (the degenerate pane and the
  /// degenerate declaration use chronon-equality at the relation's
  /// granularity, like ConstraintChecker; every other band is the raw
  /// Figure-1 region test).
  bool SatisfiesDeclared(TimePoint tt, TimePoint vt) const;

  const std::string relation_name_;
  const Granularity granularity_;
  std::vector<EnumeratedRegion> panes_;
  std::vector<EventSpecialization> declared_specs_;  // insertion-anchored
  bool has_declaration_ = false;
  EventSpecKind declared_kind_ = EventSpecKind::kGeneral;

  mutable std::mutex mu_;
  IncrementalEventProfile profile_;
  std::vector<uint64_t> pane_counts_;
  uint64_t violations_ = 0;
};

/// \brief Lattice distance between two event kinds on the Figure-2 taxonomy
/// (0 when equal; every kind is connected, so this cannot fail).
size_t EventKindLatticeDistance(EventSpecKind a, EventSpecKind b);

/// \brief True when `observed` is `declared` or one of its descendants in
/// the Figure-2 taxonomy (i.e. data of the observed kind still satisfies
/// the declared kind).
bool EventKindConforms(EventSpecKind declared, EventSpecKind observed);

}  // namespace tempspec

#endif  // TEMPSPEC_SPEC_DRIFT_H_
