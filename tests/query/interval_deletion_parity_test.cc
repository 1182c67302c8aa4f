// Differential test: every executor path, serial and morsel-parallel, vs a
// brute-force reference, on an *interval* relation under logical deletions
// and modifications. The deletion-heavy history matters: every query path
// must apply the IsCurrent() belief filter identically, and interval overlap
// (begin <= vt < end) has edge cases an event relation never exercises.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "relation/temporal_relation.h"
#include "testing.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tempspec {
namespace {

using testing::T;

// An interval relation whose history is ~55% inserts, ~30% deletes, ~15%
// modifications, leaving plenty of logically-deleted elements interleaved
// with current ones.
std::unique_ptr<TemporalRelation> BuildDeletionHeavyIntervalRelation(
    uint64_t seed, size_t num_ops) {
  RelationOptions options;
  options.schema =
      Schema::Make("interval_del",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kInterval, Granularity::Second())
          .ValueOrDie();
  options.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();

  Random rng(seed);
  std::vector<ElementSurrogate> live;
  for (size_t i = 0; i < num_ops; ++i) {
    const double dice = rng.NextDouble();
    if (!live.empty() && dice < 0.30) {
      const size_t v = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      EXPECT_TRUE(rel->LogicalDelete(live[v]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(v));
      continue;
    }
    const TimePoint vb = T(rng.Uniform(0, 5000));
    const TimePoint ve = vb + Duration::Seconds(rng.Uniform(1, 400));
    if (!live.empty() && dice < 0.45) {
      const size_t v = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      auto modified = rel->Modify(live[v], ValidTime::IntervalUnchecked(vb, ve),
                                  Tuple{static_cast<int64_t>(i)});
      EXPECT_TRUE(modified.ok()) << modified.status().ToString();
      live[v] = modified.ValueOrDie();
    } else {
      auto inserted = rel->InsertInterval(static_cast<ObjectSurrogate>(i % 9 + 1),
                                          vb, ve, Tuple{static_cast<int64_t>(i)});
      EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
      live.push_back(inserted.ValueOrDie());
    }
  }
  return rel;
}

// Current facts valid at `vt` that were inserted inside `tt_window`.
std::vector<uint64_t> BruteTimeslice(const TemporalRelation& rel, TimePoint vt,
                                     TimeInterval tt_window = TimeInterval::All()) {
  std::vector<uint64_t> out;
  const auto elements = rel.elements();
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    if (!e.IsCurrent()) continue;
    if (e.tt_begin < tt_window.begin() || e.tt_begin >= tt_window.end()) continue;
    if (e.valid.begin() <= vt && vt < e.valid.end()) out.push_back(i);
  }
  return out;
}

std::vector<uint64_t> BruteValidRange(const TemporalRelation& rel, TimePoint lo,
                                      TimePoint hi) {
  std::vector<uint64_t> out;
  const auto elements = rel.elements();
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    if (!e.IsCurrent()) continue;
    if (e.valid.begin() < hi && lo < e.valid.end()) out.push_back(i);
  }
  return out;
}

TEST(IntervalDeletionParityTest, AllPathsAgreeUnderDeletions) {
  auto rel = BuildDeletionHeavyIntervalRelation(4242, 1400);
  size_t deleted = 0;
  for (const Element& e : rel->elements()) deleted += e.IsCurrent() ? 0 : 1;
  ASSERT_GT(deleted, 100u) << "workload produced too few deletions to test";

  // Modify stamps its delete and its insert with one transaction time: the
  // replaced element's tt_end equals its successor's tt_start. Windows that
  // start or end exactly at a still-current successor's tt, queried at its
  // valid time, pin the inclusive/exclusive transaction-window bounds.
  std::set<int64_t> closed_tts;
  for (const Element& e : rel->elements()) {
    if (!e.IsCurrent()) closed_tts.insert(e.tt_end.micros());
  }
  std::vector<const Element*> successors;
  for (const Element& e : rel->elements()) {
    if (e.IsCurrent() && closed_tts.count(e.tt_begin.micros()) > 0) {
      successors.push_back(&e);
    }
  }
  ASSERT_GT(successors.size(), 32u) << "workload produced too few modifications";

  ThreadPool pool(4);
  const QueryExecutor serial(*rel, ExecutorOptions{.pool = nullptr});
  const QueryExecutor tiny(*rel, ExecutorOptions{.pool = &pool,
                                                 .morsel_size = 53,
                                                 .parallel_cutoff = 1});

  Random rng(99);
  const auto elements = rel->elements();
  for (int trial = 0; trial < 32; ++trial) {
    const Element& probe = elements[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(elements.size()) - 1))];
    const Element& successor =
        *successors[static_cast<size_t>(trial) * successors.size() / 32];
    const TimePoint shared_tt = successor.tt_begin;
    PlanChoice from_shared{ExecutionStrategy::kTransactionWindow,
                           TimeInterval(shared_tt, TimePoint::Max()), ""};
    PlanChoice until_shared{ExecutionStrategy::kTransactionWindow,
                            TimeInterval(TimePoint::Min(), shared_tt), ""};
    PlanChoice from_shared_generic = from_shared;
    from_shared_generic.kernel = ScanKernel::kGeneric;
    PlanChoice until_shared_generic = until_shared;
    until_shared_generic.kernel = ScanKernel::kGeneric;
    // Probe interval endpoints exactly: begin is inclusive, end exclusive.
    const TimePoint points[] = {
        probe.valid.begin(), probe.valid.end(),
        probe.valid.begin() + Duration::Seconds(rng.Uniform(0, 300)),
        successor.valid.begin()};
    for (const TimePoint vt : points) {
      SCOPED_TRACE("vt=" + vt.ToString());
      const TemporalQuery timeslice = TemporalQuery::Timeslice(vt);
      const std::vector<uint64_t> brute = BruteTimeslice(*rel, vt);
      const std::vector<uint64_t> brute_from =
          BruteTimeslice(*rel, vt, from_shared.tt_window);
      const std::vector<uint64_t> brute_until =
          BruteTimeslice(*rel, vt, until_shared.tt_window);
      const std::vector<std::pair<PlanChoice, const std::vector<uint64_t>*>>
          plans = {
              {PlanChoice{ExecutionStrategy::kFullScan, TimeInterval::All(), ""},
               &brute},
              {PlanChoice{ExecutionStrategy::kValidIndex, TimeInterval::All(),
                          ""},
               &brute},
              {serial.Plan(timeslice), &brute},
              {from_shared, &brute_from},
              {from_shared_generic, &brute_from},
              {until_shared, &brute_until},
              {until_shared_generic, &brute_until},
          };
      for (const auto& [plan, expected] : plans) {
        const std::string what =
            std::string(ExecutionStrategyToString(plan.strategy)) + " tt " +
            plan.tt_window.ToString() + " kernel " +
            ScanKernelToToken(plan.kernel);
        ASSERT_EQ(serial.Execute(timeslice, nullptr, &plan).positions(),
                  *expected)
            << what;
        ASSERT_EQ(tiny.Execute(timeslice, nullptr, &plan).positions(),
                  *expected)
            << what;
      }
      // Planner-chosen paths end to end.
      ASSERT_EQ(serial.Execute(timeslice).positions(), brute);
      ASSERT_EQ(tiny.Execute(timeslice).positions(), brute);
    }

    const TimePoint lo = probe.valid.begin();
    const TimePoint hi = probe.valid.end() + Duration::Seconds(rng.Uniform(0, 500));
    SCOPED_TRACE("range=[" + lo.ToString() + "," + hi.ToString() + ")");
    const std::vector<uint64_t> brute_range = BruteValidRange(*rel, lo, hi);
    const TemporalQuery range = TemporalQuery::ValidRange(lo, hi);
    ASSERT_EQ(serial.Execute(range).positions(), brute_range);
    ASSERT_EQ(tiny.Execute(range).positions(), brute_range);
  }

  // Current state: the belief filter alone, against a manual count.
  size_t current = 0;
  for (const Element& e : rel->elements()) current += e.IsCurrent() ? 1 : 0;
  ASSERT_EQ(serial.Execute(TemporalQuery::Current()).size(), current);
  ASSERT_EQ(tiny.Execute(TemporalQuery::Current()).size(), current);
}

}  // namespace
}  // namespace tempspec
