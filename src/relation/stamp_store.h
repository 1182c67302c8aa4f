// Columnar stamp store: the structure-of-arrays twin of the element array.
//
// Every execution strategy ultimately evaluates a pair of half-plane tests
// over (tt, vt) per candidate element (Figure 1: each pane IS such a pair).
// Walking std::vector<Element> pays an ~88-byte stride and a Tuple pointer
// chase per row just to read four int64 stamps. The StampStore keeps those
// stamps — and only those — in parallel flat arrays, position-aligned with
// relation.elements(), so a scan kernel touches 8–32 contiguous bytes per
// row and the compiler can auto-vectorize the predicate (see
// query/kernels.h). The store is maintained by TemporalRelation at every
// mutation point (insert, logical delete, recovery replay, vacuum rebuild)
// exactly like the partitions and indexes; it is derived state, never
// persisted.
//
// Event stamps are stored as unit-chronon intervals [at, at+1), mirroring
// how the valid-time interval index stores them: the generic half-open
// interval predicate `vt_start < hi && lo < vt_end` then gives exactly the
// event test `lo <= at && at < hi` with no per-row kind branch.
#ifndef TEMPSPEC_RELATION_STAMP_STORE_H_
#define TEMPSPEC_RELATION_STAMP_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/element.h"
#include "timex/time_point.h"

namespace tempspec {

/// \brief Borrowed raw-pointer view of the stamp columns, for scan kernels.
///
/// Validity matches relation.elements(): any mutation of the relation
/// invalidates the pointers (vectors may reallocate).
struct StampColumns {
  const int64_t* tt_start = nullptr;  // insertion transaction time (micros)
  const int64_t* tt_end = nullptr;    // deletion tt; INT64_MAX while current
  const int64_t* vt_start = nullptr;  // valid begin (event: at)
  const int64_t* vt_end = nullptr;    // valid end (event: at + 1)
  const uint64_t* surrogate = nullptr;  // element surrogates, same order
  size_t size = 0;
};

/// \brief Position-aligned columnar copy of every element's four stamps.
class StampStore {
 public:
  /// \brief Appends the stamps of `e` at the next position. Must be called
  /// in element-position order (the relation appends exactly when it
  /// appends to elements_).
  void Append(const Element& e) {
    tt_start_.push_back(e.tt_begin.micros());
    tt_end_.push_back(e.tt_end.micros());
    vt_start_.push_back(e.valid.begin().micros());
    vt_end_.push_back(e.valid.is_event() ? e.valid.at().micros() + 1
                                         : e.valid.end().micros());
    surrogate_.push_back(e.element_surrogate);
  }

  /// \brief Mirrors a logical deletion: closes the existence interval of the
  /// element at `position`.
  void SetTtEnd(size_t position, TimePoint tt) {
    tt_end_[position] = tt.micros();
  }

  /// \brief Drops all columns (vacuum rebuild).
  void Clear() {
    tt_start_.clear();
    tt_end_.clear();
    vt_start_.clear();
    vt_end_.clear();
    surrogate_.clear();
  }

  size_t size() const { return tt_start_.size(); }

  /// \brief Length of the transaction-time prefix stored by `tt`: positions
  /// [0, n) are exactly the elements with tt_start <= tt. Transaction time
  /// is append-only (the relation aborts on an out-of-order stamp), so no
  /// element past the prefix can exist at `tt` — an as-of read never needs
  /// it. An upper bound rather than a lower bound of `tt + 1`, so
  /// TimePoint::Max() needs no overflow guard.
  size_t StoredBy(TimePoint tt) const {
    return static_cast<size_t>(
        std::upper_bound(tt_start_.begin(), tt_start_.end(), tt.micros()) -
        tt_start_.begin());
  }

  StampColumns columns() const {
    StampColumns c;
    c.tt_start = tt_start_.data();
    c.tt_end = tt_end_.data();
    c.vt_start = vt_start_.data();
    c.vt_end = vt_end_.data();
    c.surrogate = surrogate_.data();
    c.size = tt_start_.size();
    return c;
  }

 private:
  std::vector<int64_t> tt_start_;
  std::vector<int64_t> tt_end_;
  std::vector<int64_t> vt_start_;
  std::vector<int64_t> vt_end_;
  std::vector<uint64_t> surrogate_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_RELATION_STAMP_STORE_H_
