#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/optimizer.h"
#include "testing.h"
#include "util/random.h"
#include "workload/workloads.h"

namespace tempspec {
namespace {

using testing::T;

// --- Optimizer plan selection ------------------------------------------------

SchemaPtr EventSchema() {
  return Schema::Make("r",
                      {AttributeDef{"id", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey}},
                      ValidTimeKind::kEvent, Granularity::Second())
      .ValueOrDie();
}

TEST(OptimizerTest, GeneralRelationUsesValidIndex) {
  SpecializationSet specs;
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  EXPECT_EQ(opt.PlanTimeslice(T(100)).strategy, ExecutionStrategy::kValidIndex);
}

TEST(OptimizerTest, DegenerateUsesRollbackEquivalence) {
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::Degenerate());
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  const PlanChoice plan = opt.PlanTimeslice(T(100));
  EXPECT_EQ(plan.strategy, ExecutionStrategy::kRollbackEquivalence);
  // The window is the granule containing the query point.
  EXPECT_EQ(plan.tt_window.begin(), T(100));
  EXPECT_EQ(plan.tt_window.end(), T(101));
  EXPECT_NE(plan.rationale.find("degenerate"), std::string::npos);
}

TEST(OptimizerTest, BandedRelationGetsTransactionWindow) {
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::DelayedRetroactive(Duration::Seconds(30))
                     .ValueOrDie());
  specs.AddEvent(EventSpecialization::RetroactivelyBounded(Duration::Seconds(120))
                     .ValueOrDie());
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  const PlanChoice plan = opt.PlanTimeslice(T(1000));
  EXPECT_EQ(plan.strategy, ExecutionStrategy::kTransactionWindow);
  // vt - tt in [-120s, -30s]  =>  tt in [vt + 30s, vt + 120s].
  EXPECT_EQ(plan.tt_window.begin(), T(1030));
  EXPECT_EQ(plan.tt_window.end(), TimePoint::FromMicros(T(1120).micros() + 1));
}

TEST(OptimizerTest, DelayedStronglyRetroactivelyBoundedGetsTransactionWindow) {
  // One declared delayed strongly retroactively bounded spec (a warehouse
  // copy loaded 60s to 5min after the fact) plans the banded window alone.
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::DelayedStronglyRetroactivelyBounded(
                     Duration::Seconds(60), Duration::Seconds(300))
                     .ValueOrDie());
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  const PlanChoice plan = opt.PlanTimeslice(T(1000));
  EXPECT_EQ(plan.strategy, ExecutionStrategy::kTransactionWindow);
  EXPECT_EQ(plan.tt_window.begin(), T(1060));
  EXPECT_EQ(plan.tt_window.end(), TimePoint::FromMicros(T(1300).micros() + 1));
}

TEST(OptimizerTest, CalendricBandsAreSkipped) {
  SpecializationSet specs;
  specs.AddEvent(
      EventSpecialization::RetroactivelyBounded(Duration::Months(1)).ValueOrDie());
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  // A calendric window would be anchor-dependent: fall back to the index.
  EXPECT_EQ(opt.PlanTimeslice(T(100)).strategy, ExecutionStrategy::kValidIndex);
  EXPECT_FALSE(opt.CombinedFixedBand().has_value());
}

TEST(OptimizerTest, MonotoneUsesBinarySearch) {
  SpecializationSet specs;
  specs.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  EXPECT_EQ(opt.PlanTimeslice(T(100)).strategy,
            ExecutionStrategy::kMonotoneBinarySearch);
  EXPECT_TRUE(opt.ValidTimesMonotone());
  // Per-surrogate ordering does not make the global array monotone.
  SpecializationSet per_obj;
  per_obj.AddOrdering(
      OrderingSpec(OrderingKind::kNonDecreasing, SpecScope::kPerObjectSurrogate));
  Optimizer opt2(per_obj, *schema);
  EXPECT_FALSE(opt2.ValidTimesMonotone());
}

TEST(OptimizerTest, BandBeatsMonotoneInLadder) {
  SpecializationSet specs;
  specs.AddOrdering(OrderingSpec(OrderingKind::kSequential));
  specs.AddEvent(
      EventSpecialization::StronglyRetroactivelyBounded(Duration::Seconds(60))
          .ValueOrDie());
  SchemaPtr schema = EventSchema();
  Optimizer opt(specs, *schema);
  EXPECT_EQ(opt.PlanTimeslice(T(100)).strategy,
            ExecutionStrategy::kTransactionWindow);
}

TEST(OptimizerTest, IntervalRelationAnchoredBandsDeriveWindow) {
  SchemaPtr schema =
      Schema::Make("spans",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kInterval, Granularity::Second())
          .ValueOrDie();
  // Intervals are recorded after they end (vt_e retroactive, within 60s) and
  // begin at most 1h before recording.
  SpecializationSet specs;
  specs.AddAnchoredEvent(AnchoredEventSpec(
      EventSpecialization::StronglyRetroactivelyBounded(Duration::Seconds(60))
          .ValueOrDie(),
      ValidAnchor::kEnd));
  specs.AddAnchoredEvent(AnchoredEventSpec(
      EventSpecialization::RetroactivelyBounded(Duration::Hours(1)).ValueOrDie(),
      ValidAnchor::kBegin));
  Optimizer opt(specs, *schema);
  const PlanChoice plan = opt.PlanTimeslice(T(10000));
  ASSERT_EQ(plan.strategy, ExecutionStrategy::kTransactionWindow);
  // vt_e - tt ∈ [-60s, 0] gives tt >= q - 0; vt_b - tt ∈ [-1h, inf) gives
  // tt <= q + 1h.
  EXPECT_EQ(plan.tt_window.begin(), T(10000));
  EXPECT_EQ(plan.tt_window.end(),
            TimePoint::FromMicros(T(10000 + 3600).micros() + 1));
}

TEST(OptimizerTest, IntervalWindowStrategyMatchesScan) {
  SchemaPtr schema =
      Schema::Make("sessions",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kInterval, Granularity::Second())
          .ValueOrDie();
  RelationOptions options;
  options.schema = schema;
  auto clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  options.clock = clock;
  // Sessions recorded when they end (vt_e within 10s of tt), lasting at most
  // ~2h (vt_b no more than 2h before tt).
  options.specializations.AddAnchoredEvent(AnchoredEventSpec(
      EventSpecialization::StronglyRetroactivelyBounded(Duration::Seconds(10))
          .ValueOrDie(),
      ValidAnchor::kEnd));
  options.specializations.AddAnchoredEvent(AnchoredEventSpec(
      EventSpecialization::RetroactivelyBounded(Duration::Hours(2)).ValueOrDie(),
      ValidAnchor::kBegin));
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  Random rng(19);
  for (int i = 0; i < 2000; ++i) {
    const int64_t end = 10000 + i * 30 + rng.Uniform(0, 5);
    const int64_t begin = end - rng.Uniform(60, 7000);
    clock->SetTo(T(end + rng.Uniform(0, 9)));
    ASSERT_OK(
        rel->InsertInterval(i % 8, T(begin), T(end), Tuple{int64_t{i % 8}})
            .status());
  }
  QueryExecutor exec(*rel);
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  for (int64_t q : {10000, 20000, 40000, 65000}) {
    const TemporalQuery timeslice = TemporalQuery::Timeslice(T(q));
    const PlanChoice plan = exec.Plan(timeslice);
    ASSERT_EQ(plan.strategy, ExecutionStrategy::kTransactionWindow) << q;
    QueryStats fast_stats, slow_stats;
    const ResultSet fast = exec.Execute(timeslice, &fast_stats, &plan);
    const ResultSet slow = exec.Execute(timeslice, &slow_stats, &scan);
    EXPECT_EQ(fast.size(), slow.size()) << q;
    EXPECT_LT(fast_stats.elements_examined, slow_stats.elements_examined) << q;
  }
}

// --- Executor: every strategy returns identical results ----------------------

class StrategyEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.num_objects = 8;
    config.ops_per_object = 60;
    ASSERT_OK_AND_ASSIGN(
        scenario_, MakeProcessMonitoring(config, Duration::Seconds(30),
                                         Duration::Seconds(120),
                                         Duration::Minutes(1)));
    ASSERT_OK(GenerateProcessMonitoring(config, Duration::Seconds(30),
                                        Duration::Seconds(120),
                                        Duration::Minutes(1), &scenario_));
  }
  ScenarioRelation scenario_;
};

TEST_F(StrategyEquivalenceTest, AllTimesliceStrategiesAgree) {
  QueryExecutor exec(*scenario_.relation);
  // Deliberately run every strategy, not just the planned one.
  const Optimizer& opt = exec.optimizer();
  ASSERT_TRUE(opt.CombinedFixedBand().has_value());

  for (const Element& probe : scenario_.relation->elements()) {
    if (probe.element_surrogate % 17 != 0) continue;  // sample some points
    const TimePoint vt = probe.valid.at();

    PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
    PlanChoice index{ExecutionStrategy::kValidIndex, TimeInterval::All(), ""};
    const PlanChoice window = opt.PlanTimeslice(vt);
    ASSERT_EQ(window.strategy, ExecutionStrategy::kTransactionWindow);

    auto sorted_ids = [&](const PlanChoice& plan) {
      std::vector<ElementSurrogate> ids;
      for (const Element& e :
           exec.Execute(TemporalQuery::Timeslice(vt), nullptr, &plan)) {
        ids.push_back(e.element_surrogate);
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const auto a = sorted_ids(scan);
    const auto b = sorted_ids(index);
    const auto c = sorted_ids(window);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_FALSE(a.empty());
  }
}

TEST_F(StrategyEquivalenceTest, WindowExaminesFewerElements) {
  QueryExecutor exec(*scenario_.relation);
  const TimePoint vt = scenario_.relation->elements()[100].valid.at();
  QueryStats scan_stats, window_stats;
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  exec.Execute(TemporalQuery::Timeslice(vt), &scan_stats, &scan);
  exec.Execute(TemporalQuery::Timeslice(vt), &window_stats);
  EXPECT_EQ(scan_stats.elements_examined, scenario_.relation->size());
  EXPECT_LT(window_stats.elements_examined, scan_stats.elements_examined / 4);
  EXPECT_EQ(scan_stats.results, window_stats.results);
}

TEST(ExecutorTest, CurrentAndRollbackQueries) {
  RelationOptions options;
  options.schema = EventSchema();
  auto clock = std::make_shared<LogicalClock>(T(100), Duration::Seconds(10));
  options.clock = clock;
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(90), Tuple{int64_t{1}}));
  ASSERT_OK(rel->InsertEvent(2, T(95), Tuple{int64_t{2}}).status());
  ASSERT_OK(rel->LogicalDelete(a));

  QueryExecutor exec(*rel);
  EXPECT_EQ(exec.Execute(TemporalQuery::Current()).size(), 1u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(105))).size(), 1u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(115))).size(), 2u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(125))).size(), 1u);
}

TEST(ExecutorTest, TimesliceAsOfBitemporal) {
  RelationOptions options;
  options.schema = EventSchema();
  auto clock = std::make_shared<LogicalClock>(T(100), Duration::Seconds(10));
  options.clock = clock;
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  // Fact about vt=50 stored at tt=100, corrected (deleted) at tt=110.
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(50), Tuple{int64_t{1}}));
  ASSERT_OK(rel->LogicalDelete(a));

  QueryExecutor exec(*rel);
  // As believed at tt=105: the fact exists.
  EXPECT_EQ(exec.Execute(TemporalQuery::Timeslice(T(50), T(105))).size(), 1u);
  // As believed now: it does not.
  EXPECT_EQ(exec.Execute(TemporalQuery::Timeslice(T(50), T(200))).size(), 0u);
}

TEST(ExecutorTest, MonotoneBinarySearchCorrectness) {
  RelationOptions options;
  options.schema = EventSchema();
  auto clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  options.clock = clock;
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  Random rng(3);
  int64_t vt = 0;
  for (int i = 0; i < 500; ++i) {
    vt += rng.Uniform(0, 3);
    ASSERT_OK(rel->InsertEvent(1, T(vt), Tuple{int64_t{1}}).status());
  }
  QueryExecutor exec(*rel);
  ASSERT_EQ(exec.optimizer().PlanTimeslice(T(0)).strategy,
            ExecutionStrategy::kMonotoneBinarySearch);
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  for (int64_t q : {0, 5, 100, 250, 600, 10000}) {
    QueryStats fast_stats;
    const ResultSet fast =
        exec.Execute(TemporalQuery::Timeslice(T(q)), &fast_stats);
    const ResultSet slow =
        exec.Execute(TemporalQuery::Timeslice(T(q)), nullptr, &scan);
    EXPECT_EQ(fast.size(), slow.size()) << "q=" << q;
    EXPECT_LE(fast_stats.elements_examined, fast.size() + 1);
  }
  // Range queries too.
  const TemporalQuery range = TemporalQuery::ValidRange(T(100), T(200));
  const ResultSet fast = exec.Execute(range);
  const ResultSet slow = exec.Execute(range, nullptr, &scan);
  EXPECT_EQ(fast.size(), slow.size());
}

TEST(ExecutorTest, DegenerateRollbackEquivalence) {
  WorkloadConfig config;
  config.num_objects = 4;
  config.ops_per_object = 50;
  ASSERT_OK_AND_ASSIGN(auto scenario,
                       MakeDegenerateMonitoring(config, Duration::Seconds(10)));
  ASSERT_OK(GenerateDegenerateMonitoring(config, Duration::Seconds(10), &scenario));
  QueryExecutor exec(*scenario.relation);
  const TimePoint vt = scenario.relation->elements()[25].valid.at();
  QueryStats stats;
  const ResultSet result = exec.Execute(TemporalQuery::Timeslice(vt), &stats);
  EXPECT_EQ(result.size(), 1u);
  // Only the one granule's worth of elements examined.
  EXPECT_LE(stats.elements_examined, 2u);
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  EXPECT_EQ(exec.Execute(TemporalQuery::Timeslice(vt), nullptr, &scan).size(),
            result.size());
}

}  // namespace
}  // namespace tempspec
