// Contract test for IntervalIndex::Overlapping / Stab / OverlappingWithin.
//
// The executor's probe path leans on three documented properties:
//  - probe results come back in ascending VALUE order, where values are
//    element positions — that ordering is what lets query execution emit
//    position-ordered results with no per-query sort, and what the
//    serial/parallel byte-identity contract inherits;
//  - the budgeted probe fails iff its work (run hits plus tail entries)
//    exceeds the budget, and on success reports exactly that work — the
//    executor's elements_examined and its cost choice rest on it;
//  - the layout (runs plus an unsorted tail of at most 64 entries) is a
//    function of the insert count alone.
// Each is checked against a brute-force walk, at insert counts on both
// sides of the tail size and of run-merge carries, with duplicates and
// long intervals in the mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "index/interval_index.h"
#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

struct NaiveEntry {
  int64_t begin;
  int64_t end;
  uint64_t value;
};

/// \brief Reference implementation: linear scan in insertion (= value)
/// order, so its output is ascending-by-value by construction.
std::vector<uint64_t> NaiveOverlapping(const std::vector<NaiveEntry>& entries,
                                       int64_t lo, int64_t hi) {
  std::vector<uint64_t> out;
  for (const NaiveEntry& e : entries) {
    if (e.begin < hi && lo < e.end) out.push_back(e.value);
  }
  return out;
}

std::vector<uint64_t> NaiveStab(const std::vector<NaiveEntry>& entries,
                                int64_t tp) {
  return NaiveOverlapping(entries, tp, tp + 1);
}

/// \brief Inserts `n` random intervals over [0, domain): ~1/3 unit-chronon
/// events (how event relations index instants), ~1/10 long intervals
/// spanning up to the whole domain, the rest short; the small domain makes
/// duplicates common. Values are positions 0..n-1 in insertion order.
void Load(int64_t n, int64_t domain, Random* rng, IntervalIndex* index,
          std::vector<NaiveEntry>* naive) {
  for (int64_t i = 0; i < n; ++i) {
    const int64_t begin = rng->Uniform(0, domain);
    const int64_t shape = rng->Uniform(0, 9);
    const int64_t len = shape < 3   ? 0
                        : shape < 4 ? rng->Uniform(0, domain)
                                    : rng->Uniform(0, domain / 50 + 1);
    const uint64_t value = static_cast<uint64_t>(naive->size());
    index->Insert(TimeInterval(T(begin), T(begin + 1 + len)), value);
    naive->push_back(NaiveEntry{T(begin).micros(), T(begin + 1 + len).micros(),
                                value});
  }
}

TEST(IntervalIndexContractTest, ParityAtTailAndCarryBoundaries) {
  Random rng(20261017);
  std::vector<int64_t> counts = {0,    1,    63,   64,   65,   127,
                                 128,  129,  4095, 4096, 4097};
  counts.push_back(rng.Uniform(1, 20000));
  for (const int64_t n : counts) {
    SCOPED_TRACE("inserts " + std::to_string(n));
    IntervalIndex index;
    std::vector<NaiveEntry> naive;
    const int64_t domain = 2000;
    Load(n, domain, &rng, &index, &naive);
    ASSERT_EQ(index.size(), static_cast<size_t>(n));
    // The layout is the binary counter of n / 64 plus a tail of n % 64.
    const size_t cap = IntervalIndex::kTailCapacity;
    EXPECT_EQ(index.tail_size(), static_cast<size_t>(n) % cap);
    EXPECT_EQ(index.run_count(),
              static_cast<size_t>(__builtin_popcountll(
                  static_cast<unsigned long long>(n) / cap)));

    for (int q = 0; q < 40; ++q) {
      const int64_t a = rng.Uniform(-10, domain + 10);
      const int64_t b = rng.Uniform(-10, domain + 10);
      const int64_t lo = std::min(a, b);
      const int64_t hi = std::max(a, b) + 1;
      const std::vector<uint64_t> got = index.Overlapping(T(lo), T(hi));
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
      ASSERT_EQ(got, NaiveOverlapping(naive, T(lo).micros(), T(hi).micros()));

      const int64_t stab = rng.Uniform(-10, domain + 10);
      const std::vector<uint64_t> stabbed = index.Stab(T(stab));
      ASSERT_TRUE(std::is_sorted(stabbed.begin(), stabbed.end()));
      ASSERT_EQ(stabbed, NaiveStab(naive, T(stab).micros()));
    }
  }
}

TEST(IntervalIndexContractTest, BudgetedProbeFailsIffWorkExceedsBudget) {
  Random rng(77);
  for (const int64_t n : {0, 1, 63, 64, 65, 129, 4097, 9000}) {
    SCOPED_TRACE("inserts " + std::to_string(n));
    IntervalIndex index;
    std::vector<NaiveEntry> naive;
    const int64_t domain = 1000;
    Load(n, domain, &rng, &index, &naive);
    // The tail holds the most recent inserts; everything older is in runs.
    const size_t tail = index.tail_size();
    const size_t run_entries = naive.size() - tail;

    for (int q = 0; q < 30; ++q) {
      const int64_t lo = rng.Uniform(-5, domain);
      const int64_t hi = lo + rng.Uniform(1, domain / 4);
      const std::vector<uint64_t> expected =
          NaiveOverlapping(naive, T(lo).micros(), T(hi).micros());
      size_t run_hits = 0;
      for (const uint64_t v : expected) run_hits += v < run_entries;
      const size_t work = run_hits + tail;

      for (const size_t budget :
           {size_t{0}, work / 2, work == 0 ? size_t{0} : work - 1, work,
            work + 1, std::numeric_limits<size_t>::max()}) {
        SCOPED_TRACE("budget " + std::to_string(budget) + " work " +
                     std::to_string(work));
        const IntervalIndex::Probe probe =
            index.OverlappingWithin(T(lo), T(hi), budget);
        ASSERT_EQ(probe.complete, work <= budget);
        ASSERT_LE(probe.work, budget);
        if (probe.complete) {
          ASSERT_EQ(probe.work, work);
          ASSERT_EQ(probe.values, expected);
        } else {
          ASSERT_TRUE(probe.values.empty());
        }
      }
    }
  }
}

TEST(IntervalIndexContractTest, ValueLimitDropsLaterPositionsAndSkipsTheirRuns) {
  Random rng(5);
  IntervalIndex index;
  std::vector<NaiveEntry> naive;
  const int64_t domain = 500;
  Load(3000, domain, &rng, &index, &naive);
  for (const uint64_t limit : {uint64_t{0}, uint64_t{1}, uint64_t{64},
                               uint64_t{1500}, uint64_t{2048}, uint64_t{2999},
                               uint64_t{3000}}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    for (int q = 0; q < 10; ++q) {
      const int64_t lo = rng.Uniform(0, domain);
      const int64_t hi = lo + rng.Uniform(1, 50);
      std::vector<uint64_t> expected;
      for (const uint64_t v :
           NaiveOverlapping(naive, T(lo).micros(), T(hi).micros())) {
        if (v < limit) expected.push_back(v);
      }
      const IntervalIndex::Probe probe = index.OverlappingWithin(
          T(lo), T(hi), std::numeric_limits<size_t>::max(), limit);
      ASSERT_TRUE(probe.complete);
      EXPECT_EQ(probe.values, expected);
      // Hits past the limit inside a visited run are paid for, but a limit
      // of 0 skips every run and the tail.
      EXPECT_GE(probe.work, expected.size());
      if (limit == 0) {
        EXPECT_EQ(probe.work, 0u);
      }
    }
  }
}

TEST(IntervalIndexContractTest, CompactKeepsAnswersInOneRun) {
  Random rng(20260807);
  IntervalIndex index;
  std::vector<NaiveEntry> naive;
  Load(1000, 800, &rng, &index, &naive);
  index.Compact();
  EXPECT_EQ(index.tail_size(), 0u);
  EXPECT_EQ(index.run_count(), 1u);
  for (int q = 0; q < 20; ++q) {
    const int64_t lo = rng.Uniform(0, 800);
    const int64_t hi = lo + rng.Uniform(1, 100);
    EXPECT_EQ(index.Overlapping(T(lo), T(hi)),
              NaiveOverlapping(naive, T(lo).micros(), T(hi).micros()));
  }
  // Inserts after a compaction still land in the tail.
  index.Insert(TimeInterval(T(5), T(6)), 1000);
  EXPECT_EQ(index.tail_size(), 1u);
  EXPECT_EQ(index.size(), 1001u);
}

TEST(IntervalIndexContractTest, EmptyAndDegenerateQueries) {
  IntervalIndex index;
  EXPECT_TRUE(index.Overlapping(T(0), T(100)).empty());
  EXPECT_TRUE(index.Stab(T(5)).empty());

  index.Insert(TimeInterval(T(10), T(11)), 0);  // unit-chronon event
  index.Compact();
  EXPECT_EQ(index.Stab(T(10)), (std::vector<uint64_t>{0}));
  EXPECT_TRUE(index.Stab(T(11)).empty()) << "end is exclusive";
  EXPECT_TRUE(index.Overlapping(T(11), T(20)).empty());
  EXPECT_EQ(index.Overlapping(T(0), T(11)), (std::vector<uint64_t>{0}));
  EXPECT_TRUE(index.Stab(TimePoint::Max()).empty());
  EXPECT_TRUE(index.Overlapping(T(20), T(10)).empty()) << "empty query range";
}

}  // namespace
}  // namespace tempspec
