// Valid-time interval index: stabbing and overlap queries.
//
// A logarithmic (Bentley–Saxe) structure. Inserts land in an unsorted tail
// of at most kTailCapacity entries. A full tail is sorted into a run, and
// every run no larger than it is merged into it, so run sizes follow the
// binary digits of insert count / kTailCapacity: at most log2(n / 64) runs,
// each sorted by begin with an implicit max-end tree, giving O(log^2 n + k)
// overlap queries and O(log n) amortized inserts. The layout is a function
// of the insert count alone, so a relation rebuilt by recovery probes (and
// counts its probe work) exactly like one that never restarted.
#ifndef TEMPSPEC_INDEX_INTERVAL_INDEX_H_
#define TEMPSPEC_INDEX_INTERVAL_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "timex/interval.h"
#include "timex/time_point.h"

namespace tempspec {

/// \brief Index of [begin, end) intervals with payload values.
class IntervalIndex {
 public:
  struct Entry {
    int64_t begin;
    int64_t end;
    uint64_t value;
  };

  /// \brief Largest unsorted tail; also the smallest run.
  static constexpr size_t kTailCapacity = 64;

  /// \brief A budgeted overlap probe's outcome.
  struct Probe {
    /// Matching values below the probe's value limit, ascending. Empty when
    /// the probe gave up.
    std::vector<uint64_t> values;
    /// Entries the probe paid for: run entries it hit (whether or not their
    /// value passed the limit) plus tail entries it scanned linearly. On
    /// give-up, the work done before stopping (never more than the budget).
    size_t work = 0;
    /// False when the work would have passed the budget.
    bool complete = true;
  };

  void Insert(TimePoint begin, TimePoint end, uint64_t value);
  void Insert(const TimeInterval& iv, uint64_t value) {
    Insert(iv.begin(), iv.end(), value);
  }

  /// \brief Values of all intervals containing `tp` (begin <= tp < end),
  /// in ascending value order.
  std::vector<uint64_t> Stab(TimePoint tp) const;

  /// \brief Values of all intervals overlapping [lo, hi), in ascending value
  /// order. Values are element positions in every engine use, so sorted
  /// output lets query execution consume probe results in position order
  /// with no per-query sort.
  std::vector<uint64_t> Overlapping(TimePoint lo, TimePoint hi) const;

  /// \brief Overlapping(lo, hi) restricted to values below `value_limit`,
  /// giving up once its work would pass `budget`: the probe fails iff run
  /// hits plus tail size exceed the budget. Runs and a tail whose values
  /// all reach the limit are skipped unpaid (positions stored after an
  /// as-of instant); hits past the limit inside a visited run are paid for
  /// and dropped.
  Probe OverlappingWithin(
      TimePoint lo, TimePoint hi, size_t budget,
      uint64_t value_limit = std::numeric_limits<uint64_t>::max()) const;

  size_t size() const { return size_; }
  size_t tail_size() const { return tail_.size(); }
  size_t run_count() const { return runs_.size(); }

  /// \brief Merges every run and the tail into one run (a baseline for
  /// ablations; the engine never calls it).
  void Compact();

 private:
  struct Run {
    std::vector<Entry> entries;     // sorted by begin
    std::vector<int64_t> max_end;   // max end over the implicit subtree at mid
    uint64_t min_value = 0;
  };

  static void MergeFromBack(std::vector<Entry>* into,
                            const std::vector<Entry>& from);
  static void Seal(Run* run);
  static int64_t BuildMaxEnd(Run* run, size_t lo, size_t hi);
  void FlushTail(bool merge_all);

  std::vector<Run> runs_;     // oldest (largest) first
  std::vector<Entry> tail_;   // unsorted recent inserts
  uint64_t tail_min_value_ = std::numeric_limits<uint64_t>::max();
  size_t size_ = 0;
};

}  // namespace tempspec

#endif  // TEMPSPEC_INDEX_INTERVAL_INDEX_H_
