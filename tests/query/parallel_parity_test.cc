// Strategy-parity property test for the morsel-parallel execution layer.
//
// The engine's determinism guarantee: for every ExecutionStrategy, serial and
// parallel execution return identical, position-ordered results — the same
// positions, the same elements, byte for byte. This test drives randomized
// workloads (event and interval relations) through every strategy under a
// serial executor, a parallel executor with tiny morsels (forcing many
// morsels even at test sizes), and a parallel executor with default knobs,
// and asserts exact equality. Built with -DTEMPSPEC_SANITIZE=thread this is
// also the race-check for the ThreadPool and the per-morsel buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "query/executor.h"
#include "testing.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace tempspec {
namespace {

using testing::T;

bool SameElement(const Element& a, const Element& b) {
  return a.element_surrogate == b.element_surrogate &&
         a.object_surrogate == b.object_surrogate && a.tt_begin == b.tt_begin &&
         a.tt_end == b.tt_end && a.valid == b.valid &&
         a.attributes == b.attributes;
}

void ExpectIdentical(const ResultSet& serial, const ResultSet& parallel,
                     const char* what) {
  ASSERT_EQ(serial.positions(), parallel.positions()) << what;
  const std::vector<Element> a = serial.Materialize();
  ThreadPool pool(4);
  const std::vector<Element> b = parallel.Materialize(&pool);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameElement(a[i], b[i])) << what << " element " << i;
  }
}

/// \brief All executors over one relation: serial, parallel with morsels
/// small enough that every strategy fans out, and parallel with defaults.
struct ExecutorTriple {
  explicit ExecutorTriple(const TemporalRelation& rel)
      : pool(4),
        serial(rel, ExecutorOptions{.pool = nullptr}),
        tiny_morsels(rel, ExecutorOptions{.pool = &pool,
                                          .morsel_size = 61,
                                          .parallel_cutoff = 1}),
        defaults(rel, ExecutorOptions{.pool = &pool}) {}
  ThreadPool pool;
  QueryExecutor serial;
  QueryExecutor tiny_morsels;
  QueryExecutor defaults;
};

void CheckAllStrategiesAtPoint(ExecutorTriple& exec, TimePoint vt,
                               TimePoint range_hi, TimePoint as_of) {
  // Every strategy that is executable regardless of declared specialization,
  // plus whatever the optimizer actually picked.
  std::vector<PlanChoice> plans = {
      PlanChoice{ExecutionStrategy::kFullScan, TimeInterval::All(), ""},
      PlanChoice{ExecutionStrategy::kValidIndex, TimeInterval::All(), ""},
      exec.serial.Plan(TemporalQuery::Timeslice(vt)),
  };
  const TemporalQuery timeslice = TemporalQuery::Timeslice(vt);
  const TemporalQuery range = TemporalQuery::ValidRange(vt, range_hi);
  for (const PlanChoice& plan : plans) {
    const char* what = ExecutionStrategyToString(plan.strategy);
    ExpectIdentical(exec.serial.Execute(timeslice, nullptr, &plan),
                    exec.tiny_morsels.Execute(timeslice, nullptr, &plan), what);
    ExpectIdentical(exec.serial.Execute(timeslice, nullptr, &plan),
                    exec.defaults.Execute(timeslice, nullptr, &plan), what);
    ExpectIdentical(exec.serial.Execute(range, nullptr, &plan),
                    exec.tiny_morsels.Execute(range, nullptr, &plan), what);
  }
  // Planned queries of every class.
  const struct {
    TemporalQuery query;
    const char* what;
  } planned[] = {
      {timeslice, "planned timeslice"},
      {TemporalQuery::Current(), "current"},
      {TemporalQuery::Rollback(as_of), "rollback"},
      {TemporalQuery::Timeslice(vt, as_of), "as-of"},
  };
  for (const auto& [query, what] : planned) {
    ExpectIdentical(exec.serial.Execute(query),
                    exec.tiny_morsels.Execute(query), what);
  }
}

TEST(ParallelParityTest, EventRelationBandedStrategies) {
  WorkloadConfig config;
  config.num_objects = 16;
  config.ops_per_object = 200;  // 3200 elements
  ASSERT_OK_AND_ASSIGN(
      auto scenario, MakeProcessMonitoring(config, Duration::Seconds(30),
                                           Duration::Seconds(120),
                                           Duration::Minutes(1)));
  ASSERT_OK(GenerateProcessMonitoring(config, Duration::Seconds(30),
                                      Duration::Seconds(120),
                                      Duration::Minutes(1), &scenario));
  ExecutorTriple exec(*scenario.relation);
  ASSERT_TRUE(exec.serial.optimizer().CombinedFixedBand().has_value());

  Random rng(101);
  const auto elements = scenario->elements();
  for (int trial = 0; trial < 24; ++trial) {
    const Element& probe =
        elements[static_cast<size_t>(rng.Uniform(0, elements.size() - 1))];
    const TimePoint vt = probe.valid.at();
    const TimePoint hi = vt + Duration::Seconds(rng.Uniform(1, 900));
    const TimePoint as_of = probe.tt_begin + Duration::Seconds(rng.Uniform(0, 50));
    CheckAllStrategiesAtPoint(exec, vt, hi, as_of);
  }
}

TEST(ParallelParityTest, EventRelationMonotoneStrategy) {
  RelationOptions options;
  options.schema =
      Schema::Make("mono",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();
  options.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  Random rng(7);
  int64_t vt = 0;
  for (int i = 0; i < 2000; ++i) {
    vt += rng.Uniform(0, 3);
    ASSERT_OK(rel->InsertEvent(i % 5 + 1, T(vt), Tuple{int64_t{i}}).status());
  }
  ExecutorTriple exec(*rel);
  ASSERT_EQ(exec.serial.optimizer().PlanTimeslice(T(0)).strategy,
            ExecutionStrategy::kMonotoneBinarySearch);
  for (int trial = 0; trial < 16; ++trial) {
    const TimePoint q = T(rng.Uniform(0, vt + 10));
    CheckAllStrategiesAtPoint(exec, q, q + Duration::Seconds(rng.Uniform(1, 200)),
                              T(rng.Uniform(0, 2000)));
  }
}

TEST(ParallelParityTest, IntervalRelationStrategies) {
  WorkloadConfig config;
  config.num_objects = 8;
  config.ops_per_object = 256;  // 2048 interval elements
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeAssignments(config));
  ASSERT_OK(GenerateAssignments(config, &scenario));
  ExecutorTriple exec(*scenario.relation);

  Random rng(55);
  const auto elements = scenario->elements();
  for (int trial = 0; trial < 16; ++trial) {
    const Element& probe =
        elements[static_cast<size_t>(rng.Uniform(0, elements.size() - 1))];
    const TimePoint vt = probe.valid.begin();
    const TimePoint hi = probe.valid.end() + Duration::Days(rng.Uniform(0, 30));
    CheckAllStrategiesAtPoint(exec, vt, hi,
                              probe.tt_begin + Duration::Hours(1));
  }
}

TEST(ParallelParityTest, ColumnarBitmapMorselPathMatchesSerial) {
  // The columnar kernels emit per-morsel selection bitmaps that drain into
  // private buffers concatenated in morsel order; under TSan this is the
  // race-check for that path (each worker writes only its morsel's buffer
  // and StampStore columns are read-only during queries). Forces the
  // generic kernel onto full scans with tiny morsels, and runs the planned
  // degenerate path (degenerate_columnar inside a granule-aligned window)
  // the same way.
  RelationOptions options;
  options.schema =
      Schema::Make("bitmap",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();
  auto clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  options.clock = clock;
  options.specializations.AddEvent(EventSpecialization::Degenerate());
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  Random rng(77);
  for (int i = 0; i < 3000; ++i) {
    auto s = rel->InsertEvent(i % 7, clock->Peek(), Tuple{int64_t{i}});
    ASSERT_OK(s.status());
    // Close some stamps so the bitmaps exercise the existence half too.
    if (rng.Uniform(0, 9) == 0) ASSERT_OK(rel->LogicalDelete(s.ValueOrDie()));
  }
  ExecutorTriple exec(*rel);
  ASSERT_EQ(exec.serial.optimizer().PlanTimeslice(T(5)).kernel,
            ScanKernel::kDegenerate);

  PlanChoice generic{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  generic.kernel = ScanKernel::kGeneric;
  for (int trial = 0; trial < 16; ++trial) {
    const TimePoint lo = T(rng.Uniform(0, 3000));
    const TimePoint hi = lo + Duration::Seconds(rng.Uniform(1, 400));
    const TemporalQuery range = TemporalQuery::ValidRange(lo, hi);
    ExpectIdentical(exec.serial.Execute(range, nullptr, &generic),
                    exec.tiny_morsels.Execute(range, nullptr, &generic),
                    "generic_columnar bitmap morsels");
    ExpectIdentical(exec.serial.Execute(range, nullptr, &generic),
                    exec.defaults.Execute(range, nullptr, &generic),
                    "generic_columnar default morsels");
    ExpectIdentical(exec.serial.Execute(range),
                    exec.tiny_morsels.Execute(range),
                    "degenerate_columnar bitmap morsels");
    ExpectIdentical(exec.serial.Execute(TemporalQuery::Current()),
                    exec.tiny_morsels.Execute(TemporalQuery::Current()),
                    "existence_columnar bitmap morsels");
  }
}

TEST(ParallelParityTest, ParallelMaterializeMatchesSerial) {
  WorkloadConfig config;
  config.num_objects = 8;
  config.ops_per_object = 128;
  ASSERT_OK_AND_ASSIGN(auto scenario,
                       MakeGeneral(config));
  ASSERT_OK(GenerateGeneral(config, Duration::Hours(2), &scenario));
  ThreadPool pool(3);
  QueryExecutor exec(*scenario.relation,
                     ExecutorOptions{.pool = &pool,
                                     .morsel_size = 37,
                                     .parallel_cutoff = 1});
  const TimePoint vt = scenario->elements()[100].valid.begin();
  const ResultSet set = exec.Execute(TemporalQuery::Timeslice(vt));
  const auto with_pool = set.Materialize(&pool);
  const auto serial = set.Materialize();
  ASSERT_EQ(with_pool.size(), serial.size());
  for (size_t i = 0; i < with_pool.size(); ++i) {
    ASSERT_TRUE(SameElement(with_pool[i], serial[i]));
  }
  // Zero-copy views index the same elements Materialize copied.
  for (size_t i = 0; i < set.size(); ++i) {
    ASSERT_TRUE(SameElement(set[i], with_pool[i]));
  }
  // Rollback materialized with the executor's pool and serially.
  const TimePoint tt = scenario->elements()[scenario->size() / 2].tt_begin;
  const ResultSet rollback = exec.Execute(TemporalQuery::Rollback(tt));
  const auto rolled_back = rollback.Materialize(&pool);
  const auto rolled_back_set = rollback.Materialize();
  ASSERT_FALSE(rolled_back.empty());
  ASSERT_EQ(rolled_back.size(), rolled_back_set.size());
  for (size_t i = 0; i < rolled_back.size(); ++i) {
    ASSERT_TRUE(SameElement(rolled_back[i], rolled_back_set[i]));
  }
}

TEST(ParallelParityTest, StatsCountMorselsAndTime) {
  WorkloadConfig config;
  config.num_objects = 8;
  config.ops_per_object = 128;
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeGeneral(config));
  ASSERT_OK(GenerateGeneral(config, Duration::Hours(2), &scenario));
  ThreadPool pool(4);
  QueryExecutor parallel(*scenario.relation,
                         ExecutorOptions{.pool = &pool,
                                         .morsel_size = 64,
                                         .parallel_cutoff = 1});
  QueryExecutor serial(*scenario.relation, ExecutorOptions{.pool = nullptr});
  QueryStats ps, ss;
  const PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  const TimePoint vt = scenario->elements()[17].valid.begin();
  parallel.Execute(TemporalQuery::Timeslice(vt), &ps, &scan);
  serial.Execute(TemporalQuery::Timeslice(vt), &ss, &scan);
  EXPECT_EQ(ss.morsels_executed, 1u);
  EXPECT_EQ(ps.morsels_executed, (scenario->size() + 63) / 64);
  EXPECT_EQ(ps.elements_examined, ss.elements_examined);
  EXPECT_EQ(ps.results, ss.results);
  // Wall-clock and summed per-morsel CPU time are tracked separately. A
  // serial query times its (single) scan loop inside the wall interval, so
  // cpu can never exceed wall. (At this size both may round to 0us — the
  // positive-clock assertions live in the large-workload test below.)
  EXPECT_LE(ss.cpu_micros, ss.wall_micros);
  // Merge must keep the two clocks apart — summing them into one figure was
  // the historical bug this guards against.
  QueryStats merged;
  merged.Merge(ps);
  merged.Merge(ss);
  EXPECT_EQ(merged.results, ps.results + ss.results);
  EXPECT_EQ(merged.morsels_executed,
            ps.morsels_executed + ss.morsels_executed);
  EXPECT_EQ(merged.wall_micros, ps.wall_micros + ss.wall_micros);
  EXPECT_EQ(merged.cpu_micros, ps.cpu_micros + ss.cpu_micros);
}

TEST(ParallelParityTest, WallClockBoundedBySummedMorselTimeUnderParallelism) {
  // The point of splitting QueryStats::wall_micros from cpu_micros: when
  // morsels genuinely overlap, the per-morsel durations sum to more than the
  // elapsed wall time — that surplus IS the parallel speedup. Overlap needs
  // real cores; on a single-CPU host the scheduler serializes morsels and
  // the inequality can legitimately fail, so there the test only checks that
  // both clocks tick and stay separate.
  WorkloadConfig config;
  config.num_objects = 16;
  config.ops_per_object = 4096;  // 65536 elements: several ms of scan
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeGeneral(config));
  ASSERT_OK(GenerateGeneral(config, Duration::Hours(2), &scenario));
  ThreadPool pool(4);
  QueryExecutor parallel(*scenario.relation,
                         ExecutorOptions{.pool = &pool,
                                         .morsel_size = 2048,
                                         .parallel_cutoff = 1});
  const PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  const TimePoint vt = scenario->elements()[999].valid.begin();
  // Warm up the pool so thread spin-up does not land in the measured wall.
  {
    QueryStats warm;
    parallel.Execute(TemporalQuery::Timeslice(vt), &warm, &scan);
  }

  if (std::thread::hardware_concurrency() >= 2) {
    bool overlapped = false;
    for (int trial = 0; trial < 10 && !overlapped; ++trial) {
      QueryStats ps;
      parallel.Execute(TemporalQuery::Timeslice(vt), &ps, &scan);
      ASSERT_GT(ps.morsels_executed, 1u);
      overlapped = ps.wall_micros <= ps.cpu_micros;
    }
    EXPECT_TRUE(overlapped)
        << "no trial showed wall <= summed per-morsel time on a "
        << std::thread::hardware_concurrency() << "-core host";
  } else {
    QueryStats ps;
    parallel.Execute(TemporalQuery::Timeslice(vt), &ps, &scan);
    EXPECT_GT(ps.morsels_executed, 1u);
    EXPECT_GT(ps.wall_micros, 0u);
    EXPECT_GT(ps.cpu_micros, 0u);
  }
}

}  // namespace
}  // namespace tempspec
