// Trace-span conformance: every query path of the executor — current,
// rollback, timeslice, bitemporal as-of, and valid-range over both event and
// interval relations — must populate an attached TraceContext with its span
// name, plan strategy, work counters, and stage timings; and query_lang's
// EXPLAIN ANALYZE must surface exactly that span as single-line JSON.
#include <gtest/gtest.h>

#include <string>

#include "catalog/catalog.h"
#include "catalog/query_lang.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "testing.h"
#include "timex/calendar.h"
#include "workload/workloads.h"

namespace tempspec {
namespace {

using testing::Civil;
using testing::T;

/// \brief Common populated-span assertions: the executor filled in the span
/// name, chose and recorded a strategy, counted its work, and timed at least
/// one stage.
void ExpectPopulatedSpan(const TraceContext& trace, const std::string& span,
                         uint64_t min_results) {
  EXPECT_TRUE(trace.started());
  EXPECT_EQ(trace.name(), span);
  EXPECT_FALSE(trace.attr("strategy").empty()) << span;
  EXPECT_GT(trace.counter("elements_examined"), 0u) << span;
  EXPECT_GE(trace.counter("results"), min_results) << span;
  EXPECT_GE(trace.counter("morsels_executed"), 1u) << span;
  EXPECT_FALSE(trace.stages().empty()) << span;
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"span\":\"" + span + "\""), std::string::npos) << json;
}

class QueryTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.num_objects = 8;
    config.ops_per_object = 128;
    ASSERT_OK_AND_ASSIGN(scenario_, MakeGeneral(config));
    ASSERT_OK(GenerateGeneral(config, Duration::Hours(2), &scenario_));
  }

  ScenarioRelation scenario_;
};

TEST_F(QueryTraceTest, EveryEventQueryPathPopulatesItsSpan) {
  const Element& probe = scenario_->elements()[100];
  const TimePoint vt = probe.valid.at();
  const TimePoint tt = probe.tt_begin;

  {
    TraceContext trace;
    QueryExecutor exec(*scenario_.relation,
                       ExecutorOptions{.pool = nullptr, .trace = &trace});
    exec.Execute(TemporalQuery::Current());
    ExpectPopulatedSpan(trace, "query.current", 1);
    EXPECT_EQ(trace.attr("strategy"), "full_scan");
  }
  {
    TraceContext trace;
    QueryExecutor exec(*scenario_.relation,
                       ExecutorOptions{.pool = nullptr, .trace = &trace});
    exec.Execute(TemporalQuery::Rollback(tt));
    ExpectPopulatedSpan(trace, "query.rollback", 1);
    // A rollback scans only the rows stored by tt.
    uint64_t stored = 0;
    for (const Element& e : scenario_->elements()) stored += e.tt_begin <= tt;
    EXPECT_EQ(trace.attr("strategy"), "transaction_prefix");
    EXPECT_LE(trace.counter("elements_examined"), stored);
  }
  {
    TraceContext trace;
    QueryExecutor exec(*scenario_.relation,
                       ExecutorOptions{.pool = nullptr, .trace = &trace});
    exec.Execute(TemporalQuery::Timeslice(vt));
    ExpectPopulatedSpan(trace, "query.timeslice", 0);
    // The planned timeslice records its plan stage and rationale.
    EXPECT_FALSE(trace.attr("plan").empty());
    EXPECT_EQ(trace.stages()[0].name, "plan");
    // A general relation's candidate range is the whole store; the probe
    // stays within that budget, so the path that ran is the probe, and what
    // it paid is exactly what the read examined.
    EXPECT_EQ(trace.attr("strategy"), "valid_index");
    EXPECT_EQ(trace.counter("range_rows"), scenario_->elements().size());
    EXPECT_EQ(trace.counter("probe_work"),
              trace.counter("elements_examined"));
  }
  {
    TraceContext trace;
    QueryExecutor exec(*scenario_.relation,
                       ExecutorOptions{.pool = nullptr, .trace = &trace});
    exec.Execute(TemporalQuery::ValidRange(vt, vt + Duration::Minutes(10)));
    ExpectPopulatedSpan(trace, "query.valid_range", 0);
  }
  {
    TraceContext trace;
    QueryExecutor exec(*scenario_.relation,
                       ExecutorOptions{.pool = nullptr, .trace = &trace});
    exec.Execute(TemporalQuery::Timeslice(vt, tt));
    ExpectPopulatedSpan(trace, "query.timeslice_as_of", 1);
  }
}

TEST_F(QueryTraceTest, ParallelExecutionRecordsMorselsAndCpuTime) {
  const TimePoint vt = scenario_->elements()[57].valid.at();
  TraceContext trace;
  ThreadPool pool(4);
  QueryExecutor exec(*scenario_.relation,
                     ExecutorOptions{.pool = &pool,
                                     .morsel_size = 64,
                                     .parallel_cutoff = 1,
                                     .trace = &trace});
  QueryStats stats;
  // Full scan: the planner's index probe would leave too few candidates to
  // fan out, and this test is about the per-morsel accounting.
  const PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  exec.Execute(TemporalQuery::Timeslice(vt), &stats, &scan);
  ExpectPopulatedSpan(trace, "query.timeslice", 0);
  EXPECT_GT(trace.counter("morsels_executed"), 1u);
  EXPECT_EQ(trace.counter("morsels_executed"), stats.morsels_executed);
  EXPECT_EQ(trace.counter("cpu_micros"), stats.cpu_micros);
  EXPECT_EQ(trace.counter("elements_examined"), stats.elements_examined);
}

TEST_F(QueryTraceTest, IntervalRelationValidRangePopulatesSpan) {
  WorkloadConfig config;
  config.num_objects = 4;
  config.ops_per_object = 64;
  ASSERT_OK_AND_ASSIGN(auto scenario, MakeAssignments(config));
  ASSERT_OK(GenerateAssignments(config, &scenario));
  const Element& probe = scenario->elements()[10];
  TraceContext trace;
  QueryExecutor exec(*scenario.relation,
                     ExecutorOptions{.pool = nullptr, .trace = &trace});
  exec.Execute(
      TemporalQuery::ValidRange(probe.valid.begin(), probe.valid.end()));
  ExpectPopulatedSpan(trace, "query.valid_range", 0);
}

TEST_F(QueryTraceTest, RegistryCountsQueriesWhenCompiledIn) {
  QueryExecutor exec(*scenario_.relation, ExecutorOptions{.pool = nullptr});
  const uint64_t before =
      MetricsRegistry::Instance().Scrape().counter("executor.queries");
  exec.Execute(TemporalQuery::Current());
  exec.Execute(TemporalQuery::Timeslice(scenario_->elements()[5].valid.at()));
  const uint64_t after =
      MetricsRegistry::Instance().Scrape().counter("executor.queries");
  if (MetricsCompiledIn()) {
    EXPECT_EQ(after, before + 2);
  } else {
    EXPECT_EQ(after, 0u);
    EXPECT_EQ(before, 0u);
  }
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<LogicalClock>(Civil(1992, 2, 3, 10, 0),
                                            Duration::Minutes(10));
    RelationOptions base;
    base.clock = clock_;
    TemporalRelation* rel =
        catalog_
            .CreateRelationFromDdl(
                "CREATE EVENT RELATION samples (sensor INT64 KEY, v DOUBLE) "
                "GRANULARITY 1s WITH DEGENERATE",
                base)
            .ValueOrDie();
    for (int i = 0; i < 8; ++i) {
      const TimePoint now = clock_->Peek();
      rel->InsertEvent(1, now, Tuple{int64_t{1}, 1.0 * i}).status().Check();
    }
  }

  Catalog catalog_;
  std::shared_ptr<LogicalClock> clock_;
};

TEST_F(ExplainAnalyzeTest, ReturnsTraceJsonAndExecutes) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN ANALYZE TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_TRUE(out.analyze);
  EXPECT_FALSE(out.explain_only);
  EXPECT_EQ(out.elements.size(), 1u);  // it executed, not just planned
  ASSERT_FALSE(out.trace_json.empty());
  EXPECT_NE(out.trace_json.find("\"span\":\"query.timeslice\""),
            std::string::npos)
      << out.trace_json;
  EXPECT_NE(out.trace_json.find("\"strategy\":"), std::string::npos);
  EXPECT_NE(out.trace_json.find("\"elements_examined\":"), std::string::npos);
  EXPECT_NE(out.trace_json.find("\"stages\":"), std::string::npos);
  EXPECT_EQ(out.trace_json.find('\n'), std::string::npos) << "single line";
  // EXPLAIN ANALYZE names the scan kernel the executor actually ran (this
  // relation is DEGENERATE, so the degenerate columnar kernel) and the
  // measured scan selectivity pair.
  EXPECT_NE(out.trace_json.find("\"kernel\":\"degenerate_columnar\""),
            std::string::npos)
      << out.trace_json;
  EXPECT_NE(out.trace_json.find("\"rows_scanned\":"), std::string::npos);
  EXPECT_NE(out.trace_json.find("\"rows_matched\":"), std::string::npos);
  // The one-row window beats a probe that would scan the eight-entry index
  // tail, so the path that ran is the window: EXPLAIN ANALYZE names it with
  // the range's row count and the probe's (zero) work before it gave up.
  EXPECT_NE(out.trace_json.find("\"strategy\":\"rollback_equivalence\""),
            std::string::npos)
      << out.trace_json;
  EXPECT_NE(out.trace_json.find("\"range_rows\":1"), std::string::npos)
      << out.trace_json;
  EXPECT_NE(out.trace_json.find("\"probe_work\":0"), std::string::npos)
      << out.trace_json;
  // The plan description names the kernel too (also on plain EXPLAIN).
  EXPECT_NE(out.plan_description.find("[kernel degenerate_columnar]"),
            std::string::npos)
      << out.plan_description;
  // The rendered output leads with the span.
  EXPECT_NE(out.ToString().find("trace: {"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, CoversEveryVerb) {
  const struct {
    const char* statement;
    const char* span;
  } cases[] = {
      {"EXPLAIN ANALYZE CURRENT samples", "query.current"},
      {"EXPLAIN ANALYZE ROLLBACK samples TO '1992-02-03 10:20:00'",
       "query.rollback"},
      {"EXPLAIN ANALYZE TIMESLICE samples AT '1992-02-03 10:20:00' "
       "AS OF '1992-02-03 10:30:00'",
       "query.timeslice_as_of"},
      {"EXPLAIN ANALYZE RANGE samples FROM '1992-02-03 10:00:00' "
       "TO '1992-02-03 11:00:00'",
       "query.valid_range"},
  };
  for (const auto& c : cases) {
    ASSERT_OK_AND_ASSIGN(QueryOutput out, ExecuteQuery(catalog_, c.statement));
    EXPECT_TRUE(out.analyze) << c.statement;
    EXPECT_NE(out.trace_json.find(std::string("\"span\":\"") + c.span + "\""),
              std::string::npos)
        << c.statement << " -> " << out.trace_json;
  }
}

TEST_F(ExplainAnalyzeTest, PlainExplainDoesNotExecuteOrTraceWork) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_TRUE(out.explain_only);
  EXPECT_FALSE(out.analyze);
  EXPECT_TRUE(out.elements.empty());
  EXPECT_TRUE(out.trace_json.empty());
  EXPECT_FALSE(out.plan_description.empty());
}

}  // namespace
}  // namespace tempspec
