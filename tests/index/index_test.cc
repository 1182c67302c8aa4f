#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "index/btree.h"
#include "index/interval_index.h"
#include "query/kernels.h"
#include "relation/stamp_store.h"
#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

TEST(BTreeTest, EmptyTree) {
  BTreeIndex tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Lookup(5).empty());
  EXPECT_TRUE(tree.Range(0, 100).empty());
}

TEST(BTreeTest, InsertAndLookup) {
  BTreeIndex tree;
  tree.Insert(5, 50);
  tree.Insert(3, 30);
  tree.Insert(7, 70);
  EXPECT_EQ(tree.Lookup(3), std::vector<uint64_t>{30});
  EXPECT_EQ(tree.Lookup(4), std::vector<uint64_t>{});
  EXPECT_EQ(tree.Range(3, 5), (std::vector<uint64_t>{30, 50}));
}

TEST(BTreeTest, DuplicateKeys) {
  BTreeIndex tree;
  for (uint64_t i = 0; i < 500; ++i) tree.Insert(42, i);
  for (uint64_t i = 0; i < 500; ++i) tree.Insert(43, 1000 + i);
  EXPECT_EQ(tree.Lookup(42).size(), 500u);
  EXPECT_EQ(tree.Lookup(43).size(), 500u);
  EXPECT_EQ(tree.Range(42, 43).size(), 1000u);
}

TEST(BTreeTest, SplitsKeepTreeBalanced) {
  BTreeIndex tree;
  const int n = 100000;
  for (int i = 0; i < n; ++i) tree.Insert(i, static_cast<uint64_t>(i) * 2);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  // Height of a 64-fanout tree over 1e5 keys stays small.
  EXPECT_LE(tree.height(), 4u);
  EXPECT_EQ(tree.Lookup(99999), std::vector<uint64_t>{199998});
  EXPECT_EQ(tree.Lookup(0), std::vector<uint64_t>{0});
}

TEST(BTreeTest, ScanEarlyStop) {
  BTreeIndex tree;
  for (int i = 0; i < 1000; ++i) tree.Insert(i, i);
  int visited = 0;
  tree.Scan(100, 900, [&](int64_t, uint64_t) {
    ++visited;
    return visited < 10;
  });
  EXPECT_EQ(visited, 10);
}

TEST(BTreePropertyTest, MatchesReferenceMultimap) {
  Random rng(3);
  BTreeIndex tree;
  std::multimap<int64_t, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const int64_t key = rng.Uniform(-500, 500);
    const uint64_t value = static_cast<uint64_t>(i);
    tree.Insert(key, value);
    reference.emplace(key, value);
  }
  for (int trial = 0; trial < 200; ++trial) {
    int64_t lo = rng.Uniform(-600, 600);
    int64_t hi = lo + rng.Uniform(0, 200);
    auto got = tree.Range(lo, hi);
    std::vector<uint64_t> expected;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      expected.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
  }
}

TEST(IntervalIndexTest, StabAndOverlap) {
  IntervalIndex index;
  index.Insert(T(0), T(10), 1);
  index.Insert(T(5), T(15), 2);
  index.Insert(T(20), T(30), 3);

  auto stab = index.Stab(T(7));
  std::sort(stab.begin(), stab.end());
  EXPECT_EQ(stab, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(index.Stab(T(10)).size() == 1);  // half-open: 10 not in [0,10)
  EXPECT_TRUE(index.Stab(T(30)).empty());

  auto overlap = index.Overlapping(T(8), T(21));
  std::sort(overlap.begin(), overlap.end());
  EXPECT_EQ(overlap, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(index.Overlapping(T(15), T(20)).empty());
}

TEST(IntervalIndexTest, CompactPreservesAnswers) {
  IntervalIndex index;
  for (int i = 0; i < 10; ++i) index.Insert(T(i * 10), T(i * 10 + 5), i);
  const auto before = index.Stab(T(42));
  index.Compact();
  EXPECT_EQ(index.tail_size(), 0u);
  EXPECT_EQ(index.Stab(T(42)), before);
}

TEST(IntervalIndexPropertyTest, MatchesLinearScan) {
  Random rng(9);
  IntervalIndex index;
  struct Iv {
    int64_t b, e;
    uint64_t v;
  };
  std::vector<Iv> reference;
  for (int i = 0; i < 5000; ++i) {
    const int64_t b = rng.Uniform(0, 10000);
    const int64_t e = b + rng.Uniform(1, 500);
    index.Insert(T(b), T(e), static_cast<uint64_t>(i));
    reference.push_back(Iv{b, e, static_cast<uint64_t>(i)});

    if (i % 500 == 0) {
      const int64_t q = rng.Uniform(0, 10000);
      auto got = index.Stab(T(q));
      std::vector<uint64_t> expected;
      for (const auto& iv : reference) {
        if (iv.b <= q && q < iv.e) expected.push_back(iv.v);
      }
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected) << "stab " << q << " after " << i;

      const int64_t lo = rng.Uniform(0, 10000);
      const int64_t hi = lo + rng.Uniform(1, 1000);
      auto got_ov = index.Overlapping(T(lo), T(hi));
      std::vector<uint64_t> expected_ov;
      for (const auto& iv : reference) {
        if (iv.b < hi && lo < iv.e) expected_ov.push_back(iv.v);
      }
      std::sort(got_ov.begin(), got_ov.end());
      std::sort(expected_ov.begin(), expected_ov.end());
      ASSERT_EQ(got_ov, expected_ov);
    }
  }
}

// The transaction-time index is the StampStore's tt_start column: sorted
// by construction, searched with MonotoneBounds (half-open [lo, hi) key
// ranges) and StoredBy (the as-of prefix).

TEST(MonotoneIndexTest, RangesOverDuplicateKeys) {
  const std::vector<int64_t> keys = {10, 20, 20, 30};
  auto bounds = [&](int64_t lo, int64_t hi) {
    return MonotoneBounds(keys.data(), keys.size(), lo, hi);
  };
  using Range = std::pair<size_t, size_t>;
  EXPECT_EQ(bounds(15, 26), Range(1, 3));  // both duplicates
  EXPECT_EQ(bounds(20, 21), Range(1, 3));  // exact-key lookup
  EXPECT_EQ(bounds(10, 31), Range(0, 4));
  EXPECT_EQ(bounds(20, 30), Range(1, 3));  // hi is exclusive
  // Empty results: past the end, before the start, inverted, and hi == lo.
  const auto empty = [](Range r) { return r.first >= r.second; };
  EXPECT_TRUE(empty(bounds(31, 40)));
  EXPECT_TRUE(empty(bounds(0, 10)));
  EXPECT_TRUE(empty(bounds(25, 15)));
  EXPECT_TRUE(empty(bounds(20, 20)));
  EXPECT_TRUE(empty(MonotoneBounds(keys.data(), 0, 0, 100)));
}

TEST(MonotoneIndexTest, LowerAndUpperBounds) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 100; ++i) keys.push_back(i * 2);
  // first: lower bound of lo; second: lower bound of hi, so [lo, hi + 1)
  // ends at the upper bound of hi.
  EXPECT_EQ(MonotoneBounds(keys.data(), keys.size(), 10, 11).first, 5u);
  EXPECT_EQ(MonotoneBounds(keys.data(), keys.size(), 11, 12).first, 6u);
  EXPECT_EQ(MonotoneBounds(keys.data(), keys.size(), 10, 11).second, 6u);
  EXPECT_EQ(MonotoneBounds(keys.data(), keys.size(), 0, 199).second, 100u);
  EXPECT_EQ(MonotoneBounds(keys.data(), keys.size(), 198, 199),
            std::make_pair(size_t{99}, size_t{100}));
}

TEST(MonotoneIndexTest, StoredByIsTheTransactionTimePrefix) {
  StampStore store;
  EXPECT_EQ(store.StoredBy(T(0)), 0u);
  EXPECT_EQ(store.StoredBy(TimePoint::Max()), 0u);
  // Transaction stamps arrive in non-decreasing order; 20 is stored twice.
  for (const int64_t tt : {10, 20, 20, 30}) {
    Element e;
    e.tt_begin = T(tt);
    e.valid = ValidTime::Event(T(tt));
    store.Append(e);
  }
  EXPECT_EQ(store.StoredBy(T(9)), 0u);  // before the first row
  EXPECT_EQ(store.StoredBy(T(10)), 1u);
  EXPECT_EQ(store.StoredBy(T(19)), 1u);
  EXPECT_EQ(store.StoredBy(T(20)), 3u);  // includes every duplicate
  EXPECT_EQ(store.StoredBy(T(30)), 4u);
  EXPECT_EQ(store.StoredBy(TimePoint::Max()), 4u);
  EXPECT_EQ(store.StoredBy(TimePoint::Min()), 0u);
}

}  // namespace
}  // namespace tempspec
