// Larger-scale integration: every scenario workload at tens of thousands of
// elements, with full re-validation, strategy-equivalence sampling, and
// rollback-consistency checks. Keeps runtime in seconds while exercising
// volumes the unit tests do not.
#include <gtest/gtest.h>

#include "query/executor.h"
#include "spec/inference.h"
#include "testing.h"
#include "workload/workloads.h"

namespace tempspec {
namespace {

WorkloadConfig BigConfig() {
  WorkloadConfig config;
  config.num_objects = 32;
  config.ops_per_object = 512;  // 16 384 elements per scenario
  return config;
}

void CheckStrategyEquivalence(TemporalRelation* rel, size_t stride) {
  QueryExecutor exec(*rel);
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  for (size_t i = 3; i < rel->size(); i += stride) {
    const Element& probe = rel->elements()[i];
    const TimePoint vt = probe.valid.is_event() ? probe.valid.at()
                                                : probe.valid.begin();
    const TemporalQuery timeslice = TemporalQuery::Timeslice(vt);
    const ResultSet fast = exec.Execute(timeslice);
    const ResultSet slow = exec.Execute(timeslice, nullptr, &scan);
    ASSERT_EQ(fast.size(), slow.size()) << "probe " << i;
  }
}

TEST(StressTest, ProcessMonitoringAtScale) {
  const WorkloadConfig config = BigConfig();
  ASSERT_OK_AND_ASSIGN(
      auto scenario,
      MakeProcessMonitoring(config, Duration::Seconds(30), Duration::Seconds(120),
                            Duration::Minutes(1)));
  ASSERT_OK(GenerateProcessMonitoring(config, Duration::Seconds(30),
                                      Duration::Seconds(120), Duration::Minutes(1),
                                      &scenario));
  ASSERT_EQ(scenario->size(), 16384u);
  ASSERT_OK(scenario->CheckExtension());
  CheckStrategyEquivalence(scenario.relation.get(), 997);
}

TEST(StressTest, DegenerateAtScaleRollback) {
  const WorkloadConfig config = BigConfig();
  ASSERT_OK_AND_ASSIGN(auto scenario,
                       MakeDegenerateMonitoring(config, Duration::Seconds(10)));
  ASSERT_OK(GenerateDegenerateMonitoring(config, Duration::Seconds(10), &scenario));
  ASSERT_OK(scenario->CheckExtension());
  CheckStrategyEquivalence(scenario.relation.get(), 1499);
  // Rollback equals a manual scan at sampled stamps.
  QueryExecutor exec(*scenario);
  for (size_t i = 100; i < scenario->size(); i += 3001) {
    const TimePoint tt = scenario->elements()[i].tt_begin;
    size_t expected = 0;
    for (const Element& e : scenario->elements()) {
      if (e.ExistsAt(tt)) ++expected;
    }
    EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(tt)).size(), expected);
  }
}

TEST(StressTest, AssignmentsIntervalChainsAtScale) {
  WorkloadConfig config = BigConfig();
  config.num_objects = 16;
  config.ops_per_object = 1024;
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeAssignments(config));
  ASSERT_OK(GenerateAssignments(config, &scenario));
  ASSERT_EQ(scenario->size(), 16384u);
  ASSERT_OK(scenario->CheckExtension());
  // Every life-line is a gap-free weekly chain.
  for (ObjectSurrogate object : scenario->Objects()) {
    const auto lifeline = scenario->PartitionOf(object);
    ASSERT_EQ(lifeline.size(), 1024u);
    for (size_t i = 1; i < lifeline.size(); ++i) {
      ASSERT_EQ(lifeline[i - 1]->valid.end(), lifeline[i]->valid.begin());
    }
  }
}

TEST(StressTest, InferenceScalesAndStaysExact) {
  const WorkloadConfig config = BigConfig();
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeAccounting(config));
  ASSERT_OK(GenerateAccounting(config, &scenario));
  const RelationProfile profile =
      InferProfile(scenario->elements(), ValidTimeKind::kEvent,
                   scenario->schema().valid_granularity());
  EXPECT_EQ(profile.element_count, 16384u);
  EXPECT_EQ(profile.event.classified, EventSpecKind::kStronglyBounded);
  // The inferred declaration re-admits the whole extension.
  ASSERT_OK_AND_ASSIGN(EventSpecialization inferred,
                       SpecFromProfile(profile.event));
  SpecializationSet specs;
  specs.AddEvent(inferred);
  ConstraintChecker checker(specs, scenario->schema().valid_granularity());
  EXPECT_OK(checker.CheckExtension(scenario->elements()));
}

}  // namespace
}  // namespace tempspec
