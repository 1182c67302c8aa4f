// Specialization-aware planning.
#ifndef TEMPSPEC_QUERY_OPTIMIZER_H_
#define TEMPSPEC_QUERY_OPTIMIZER_H_

#include <functional>
#include <optional>
#include <utility>

#include "model/schema.h"
#include "query/plan.h"
#include "spec/specialization.h"

namespace tempspec {

/// \brief Chooses execution strategies from the declared specializations.
class Optimizer {
 public:
  /// \brief `drifted`, when supplied, is consulted once per plan: a true
  /// return means the drift monitor reports DRIFTED (declared specialization
  /// with observed violations), and the planner ignores the declaration —
  /// the general relation's plan: valid-index probe, row_at_a_time walk —
  /// rather than trust a band the workload has escaped. The executor wires
  /// this to TemporalRelation::IsDrifted().
  Optimizer(const SpecializationSet& specs, const Schema& schema,
            std::function<bool()> drifted = nullptr);

  /// \brief Plans a timeslice (historical) query at valid time `vt`.
  ///
  /// Strategy ladder (first applicable wins):
  ///  1. degenerate           -> rollback equivalence on the append-only store
  ///  2. any fixed band       -> transaction-time window [vt - hi, vt - lo]
  ///  3. non-decr/sequential  -> binary search on the insertion order
  ///  4. otherwise            -> valid-time interval index
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
  std::function<bool()> drifted_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_OPTIMIZER_H_
