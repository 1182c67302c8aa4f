// Specialization-aware planning.
#ifndef TEMPSPEC_QUERY_OPTIMIZER_H_
#define TEMPSPEC_QUERY_OPTIMIZER_H_

#include <optional>

#include "model/schema.h"
#include "query/plan.h"
#include "spec/specialization.h"

namespace tempspec {

/// \brief Chooses execution strategies from the declared specializations.
class Optimizer {
 public:
  Optimizer(const SpecializationSet& specs, const Schema& schema);

  /// \brief Plans a timeslice (historical) query at valid time `vt`.
  ///
  /// Candidate range ladder (first applicable wins):
  ///  1. degenerate           -> rollback equivalence on the append-only store
  ///  2. any fixed band       -> transaction-time window [vt - hi, vt - lo]
  ///  3. non-decr/sequential  -> binary search on the insertion order
  ///  4. otherwise            -> the whole store
  /// Every plan but (3) is a cost choice (PlanChoice::choose_by_cost): the
  /// executor probes the valid-time index with the range's exact row count
  /// as budget and scans the range only if the probe would cost more. The
  /// monotone range is already the overlap set, so no probe can beat it.
  /// Plans (1)-(2) rest on the declaration alone: enforcement keeps every
  /// stored stamp inside the declared band, so a DRIFTED verdict (which
  /// only counts rejected writes) never changes a plan.
  PlanChoice PlanTimeslice(TimePoint vt) const;

  /// \brief Plans a valid-time range query over [lo, hi).
  PlanChoice PlanValidRange(TimePoint lo, TimePoint hi) const;

  /// \brief The combined insertion-anchored band over the queried valid
  /// endpoint(s), when one is declared with fixed offsets.
  std::optional<Band> CombinedFixedBand() const;

  /// \brief True if valid times are guaranteed non-decreasing in insertion
  /// order (globally non-decreasing or sequential is declared).
  bool ValidTimesMonotone() const;

  /// \brief True if the relation is declared degenerate.
  bool IsDegenerate() const;

  /// \brief Candidate-count floor below which a parallel scan is not worth
  /// its dispatch cost: morsel hand-off and buffer merging run in the low
  /// microseconds, which a serial scan of this many elements undercuts.
  static constexpr size_t kParallelCutoff = 16384;

  /// \brief Cost cutoff for the executor: parallelize only when the chosen
  /// strategy leaves at least `cutoff` candidate elements to examine
  /// (kParallelCutoff unless the executor overrides it, as tests do).
  bool ShouldParallelize(size_t candidate_elements,
                         size_t cutoff = kParallelCutoff) const {
    return candidate_elements >= cutoff;
  }

 private:
  const SpecializationSet& specs_;
  const Schema& schema_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_OPTIMIZER_H_
