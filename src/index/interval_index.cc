#include "index/interval_index.h"

#include <algorithm>

namespace tempspec {

namespace {

/// \brief One overlap probe's running state across runs.
struct ProbeState {
  int64_t qlo;
  int64_t qhi;
  size_t budget;
  uint64_t value_limit;
  IntervalIndex::Probe* probe;
};

/// \brief In-order walk of one run's implicit max-end tree over [lo, hi),
/// collecting hits in begin order. Returns false once a hit would pass the
/// budget.
bool VisitRun(const std::vector<IntervalIndex::Entry>& entries,
              const std::vector<int64_t>& max_end, size_t lo, size_t hi,
              ProbeState* s) {
  if (lo >= hi) return true;
  const size_t mid = lo + (hi - lo) / 2;
  if (max_end[mid] <= s->qlo) return true;
  if (!VisitRun(entries, max_end, lo, mid, s)) return false;
  const IntervalIndex::Entry& e = entries[mid];
  if (e.begin >= s->qhi) return true;  // so does everything to its right
  if (s->qlo < e.end) {
    if (s->probe->work == s->budget) return false;
    ++s->probe->work;
    if (e.value < s->value_limit) s->probe->values.push_back(e.value);
  }
  return VisitRun(entries, max_end, mid + 1, hi, s);
}

}  // namespace

void IntervalIndex::Insert(TimePoint begin, TimePoint end, uint64_t value) {
  if (tail_.empty()) tail_.reserve(kTailCapacity);
  tail_.push_back(Entry{begin.micros(), end.micros(), value});
  tail_min_value_ = std::min(tail_min_value_, value);
  ++size_;
  if (tail_.size() == kTailCapacity) FlushTail(/*merge_all=*/false);
}

void IntervalIndex::Compact() {
  if (tail_.empty() && runs_.size() <= 1) return;
  FlushTail(/*merge_all=*/true);
}

void IntervalIndex::FlushTail(bool merge_all) {
  Run run;
  run.entries = std::move(tail_);
  tail_.clear();
  tail_min_value_ = std::numeric_limits<uint64_t>::max();
  std::sort(run.entries.begin(), run.entries.end(),
            [](const Entry& a, const Entry& b) { return a.begin < b.begin; });
  // Binary-counter carry: the new run absorbs every newer run no larger
  // than itself, so sizes stay distinct powers of two times the tail.
  while (!runs_.empty() &&
         (merge_all || runs_.back().entries.size() <= run.entries.size())) {
    Run& older = runs_.back();
    older.max_end = {};  // rebuilt once for the final run
    MergeFromBack(&older.entries, run.entries);
    run.entries = std::move(older.entries);
    runs_.pop_back();
  }
  Seal(&run);
  runs_.push_back(std::move(run));
}

void IntervalIndex::MergeFromBack(std::vector<Entry>* into,
                                  const std::vector<Entry>& from) {
  // Grow `into` by |from| and fill it from the back: the write cursor never
  // passes the unread part of `into`, so the merge needs no buffer beyond
  // the grown vector. On equal begins the older entry (`into`) stays first.
  std::vector<Entry>& a = *into;
  size_t i = a.size();
  size_t j = from.size();
  size_t k = i + j;
  a.resize(k);
  while (j > 0) {
    if (i > 0 && a[i - 1].begin > from[j - 1].begin) {
      a[--k] = a[--i];
    } else {
      a[--k] = from[--j];
    }
  }
}

void IntervalIndex::Seal(Run* run) {
  run->max_end.assign(run->entries.size(), 0);
  if (!run->entries.empty()) BuildMaxEnd(run, 0, run->entries.size());
  run->min_value = std::numeric_limits<uint64_t>::max();
  for (const Entry& e : run->entries) {
    run->min_value = std::min(run->min_value, e.value);
  }
}

int64_t IntervalIndex::BuildMaxEnd(Run* run, size_t lo, size_t hi) {
  const size_t mid = lo + (hi - lo) / 2;
  int64_t m = run->entries[mid].end;
  if (mid > lo) m = std::max(m, BuildMaxEnd(run, lo, mid));
  if (mid + 1 < hi) m = std::max(m, BuildMaxEnd(run, mid + 1, hi));
  run->max_end[mid] = m;
  return m;
}

IntervalIndex::Probe IntervalIndex::OverlappingWithin(
    TimePoint lo, TimePoint hi, size_t budget, uint64_t value_limit) const {
  Probe probe;
  ProbeState s{lo.micros(), hi.micros(), budget, value_limit, &probe};
  // The tail's cost is known up front: give up before scanning it.
  const bool scan_tail = !tail_.empty() && tail_min_value_ < value_limit;
  if (scan_tail) {
    if (tail_.size() > budget) {
      probe.complete = false;
      return probe;
    }
    probe.work = tail_.size();
  }
  std::vector<uint64_t>& out = probe.values;
  if (s.qlo < s.qhi) {
    for (const Run& run : runs_) {
      if (run.min_value >= value_limit) continue;
      const size_t first = out.size();
      if (!VisitRun(run.entries, run.max_end, 0, run.entries.size(), &s)) {
        out.clear();
        probe.complete = false;
        return probe;
      }
      // Hits come out in begin order; values are positions in engine use,
      // and each run holds one contiguous insertion range, so sorting each
      // run's hits usually leaves the whole list ascending.
      const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
      if (!std::is_sorted(begin, out.end())) std::sort(begin, out.end());
    }
  }
  if (scan_tail) {
    for (const Entry& e : tail_) {
      if (e.begin < s.qhi && s.qlo < e.end && e.value < value_limit) {
        out.push_back(e.value);
      }
    }
  }
  if (!std::is_sorted(out.begin(), out.end())) std::sort(out.begin(), out.end());
  return probe;
}

std::vector<uint64_t> IntervalIndex::Overlapping(TimePoint lo,
                                                 TimePoint hi) const {
  return OverlappingWithin(lo, hi, std::numeric_limits<size_t>::max()).values;
}

std::vector<uint64_t> IntervalIndex::Stab(TimePoint tp) const {
  if (tp.IsMax()) return {};  // no interval ends after the end of time
  return Overlapping(tp, TimePoint::FromMicros(tp.micros() + 1));
}

}  // namespace tempspec
