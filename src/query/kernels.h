// Branch-free columnar scan kernels over the relation's StampStore.
//
// Every Figure-1 pane is a pair of half-plane tests over (tt, vt); the paper
// argues a declared pane licenses cheaper "query processing strategies".
// This library is the data-parallel half of that claim: one kernel per pane
// family, each a loop over flat int64 stamp columns whose per-row predicate
// is a boolean product (no short-circuit branches), evaluated block-wise
// into a selection bitmap. The bitmap layout is what the morsel-driven
// ParallelFor consumes: each morsel runs KernelScan over its contiguous
// candidate block and appends matches in ascending position order, so the
// engine's serial/parallel byte-identity contract is preserved unchanged.
//
// What each specialized kernel skips, relative to the generic two-half-plane
// predicate (vt_start < hi && lo < vt_end && existence):
//   degenerate_columnar  — events inside a granule-aligned tt window: vt_end
//                          is derivable (at + 1), so one vt column decides.
//   banded_columnar      — fixed vt - tt band (bounded/determined panes):
//                          same single-column event test inside the banded
//                          tt window.
//   monotone_columnar    — sorted vt_start: both valid-time half-planes
//                          collapse into a binary-searched subrange
//                          (MonotoneBounds); the scan tests existence only.
//   existence_columnar   — current/rollback queries: no valid-time test at
//                          all, and for current belief only tt_end is read.
//
// Existence unification: an element exists at `as_of` iff
// tt_start <= as_of && as_of < tt_end, and is current iff tt_end ==
// INT64_MAX. Passing kCurrentAsOf (INT64_MAX - 1) makes the single as-of
// predicate cover both cases — tt_start <= INT64_MAX - 1 always holds for
// real stamps, and INT64_MAX - 1 < tt_end iff the element is current — so
// no kernel carries a current-vs-as-of branch in its inner loop.
#ifndef TEMPSPEC_QUERY_KERNELS_H_
#define TEMPSPEC_QUERY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "query/plan.h"
#include "relation/stamp_store.h"

namespace tempspec {

/// \brief As-of sentinel selecting current belief: real transaction stamps
/// are always < INT64_MAX - 1, so `tt_start <= kCurrentAsOf` is vacuous and
/// `kCurrentAsOf < tt_end` holds exactly for open existence intervals.
inline constexpr int64_t kCurrentAsOf = INT64_MAX - 1;

/// \brief Binary-searches a stamp column that is non-decreasing in position
/// order for the candidate subrange [first, last) of its `size` values that
/// fall in [lo, hi) (empty when hi <= lo). Two columns qualify: tt_start
/// always (transaction time is monotone, so the column is the relation's
/// append-only transaction-time index), and vt_start when the relation
/// declared a non-decreasing/sequential ordering.
std::pair<size_t, size_t> MonotoneBounds(const int64_t* column, size_t size,
                                         int64_t lo, int64_t hi);

/// \brief Runs `kernel` over the contiguous candidate positions
/// [begin, end) of `cols`, appending matching positions to `out` in
/// ascending order. [lo, hi) is the queried valid range (ignored by
/// kExistence; already applied by MonotoneBounds for kMonotone); `as_of` is
/// the existence instant, kCurrentAsOf for current belief.
///
/// kRowAtATime is not accepted here — it has no columnar form; callers keep
/// their Element-walk loop for it (and for non-contiguous candidates).
void KernelScan(ScanKernel kernel, const StampColumns& cols, size_t begin,
                size_t end, int64_t lo, int64_t hi, int64_t as_of,
                std::vector<uint64_t>* out);

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_KERNELS_H_
