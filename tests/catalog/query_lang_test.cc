#include "catalog/query_lang.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "testing.h"
#include "timex/calendar.h"

namespace tempspec {
namespace {

using testing::Civil;

class QueryLangTest : public ::testing::Test {
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
    for (int i = 0; i < 12; ++i) {
      const TimePoint now = clock_->Peek();
      ids_.push_back(
          rel->InsertEvent(1, now, Tuple{int64_t{1}, 1.0 * i}).ValueOrDie());
    }
    rel->LogicalDelete(ids_[0]).Check();
  }

  Catalog catalog_;
  std::shared_ptr<LogicalClock> clock_;
  std::vector<ElementSurrogate> ids_;
};

TEST_F(QueryLangTest, CurrentQuery) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(out.elements.size(), 11u);
  EXPECT_NE(out.ToString().find("11 element(s)"), std::string::npos);
}

TEST_F(QueryLangTest, TimesliceUsesDegenerateStrategy) {
  // Third sample: valid (and stored) at 10:20.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_EQ(out.elements.size(), 1u);
  EXPECT_NE(out.plan_description.find("rollback equivalence"), std::string::npos);
  EXPECT_LE(out.stats.elements_examined, 2u);
}

TEST_F(QueryLangTest, RollbackQuery) {
  // As stored at 10:20 (three inserts, no deletes yet — the delete happens
  // at the 13th stamp).
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "ROLLBACK samples TO '1992-02-03 10:20:00'"));
  EXPECT_EQ(out.elements.size(), 3u);
  EXPECT_NE(out.plan_description.find("tt_start <= 1992-02-03 10:20:00"),
            std::string::npos)
      << out.plan_description;
}

TEST_F(QueryLangTest, RollbackExaminesOnlyRowsStoredByItsInstant) {
  // 12 rows are stored, three of them by 10:20: the reply's "k examined"
  // (the figure a client sees) counts the stored prefix, not the relation.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "ROLLBACK samples TO '1992-02-03 10:20:00'"));
  const std::string text = out.ToString();
  const size_t end = text.rfind(" examined");
  ASSERT_NE(end, std::string::npos) << text;
  const size_t begin = text.rfind(' ', end - 1) + 1;
  const uint64_t examined = std::stoull(text.substr(begin, end - begin));
  EXPECT_EQ(examined, out.stats.elements_examined);
  EXPECT_LE(examined, 3u) << text;

  // Before the first row was stored nothing can exist, and nothing is read.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput early,
      ExecuteQuery(catalog_, "ROLLBACK samples TO '1992-02-03 09:00:00'"));
  EXPECT_TRUE(early.elements.empty());
  EXPECT_EQ(early.stats.elements_examined, 0u);
}

TEST_F(QueryLangTest, RangeQuery) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_,
                                    "RANGE samples FROM '1992-02-03 10:00:00' "
                                    "TO '1992-02-03 10:30:00'"));
  // Samples at 10:00 (deleted), 10:10, 10:20 — current ones only.
  EXPECT_EQ(out.elements.size(), 2u);
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "RANGE samples FROM '1992-02-03 11:00:00' TO "
                            "'1992-02-03 10:00:00'")
                   .ok());
}

TEST_F(QueryLangTest, BitemporalAsOf) {
  // The 10:00 sample was believed until its deletion (13th stamp, 12:00).
  ASSERT_OK_AND_ASSIGN(
      QueryOutput then,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:00:00' AS OF "
                             "'1992-02-03 10:05:00'"));
  EXPECT_EQ(then.elements.size(), 1u);
  // The plan line names the optimizer's choice and the as-of bound.
  EXPECT_NE(then.plan_description.find("rollback equivalence"),
            std::string::npos)
      << then.plan_description;
  EXPECT_NE(then.plan_description.find("[kernel degenerate_columnar]"),
            std::string::npos)
      << then.plan_description;
  EXPECT_NE(then.plan_description.find("tt_start <= 1992-02-03 10:05:00"),
            std::string::npos)
      << then.plan_description;
  ASSERT_OK_AND_ASSIGN(
      QueryOutput now,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:00:00' AS OF "
                             "'1992-02-03 23:00:00'"));
  EXPECT_EQ(now.elements.size(), 0u);
}

TEST_F(QueryLangTest, ExplainOnly) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_TRUE(out.explain_only);
  EXPECT_TRUE(out.elements.empty());
  EXPECT_NE(out.plan_description.find("degenerate"), std::string::npos);
}

TEST_F(QueryLangTest, PlanLineStatesTheCandidateRangeAndProbeBudget) {
  // The window [10:20, 10:20:01) holds one of the twelve stored rows: that
  // exact count is both what a window scan examines and the index probe's
  // budget, and the plan line says so (deterministically: it depends only
  // on the stored rows).
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_NE(out.plan_description.find(
                "candidate range 1 row(s), valid-index probe budget 1"),
            std::string::npos)
      << out.plan_description;
  // An as-of read's range is cut to the rows stored by its instant.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput early,
      ExecuteQuery(catalog_, "EXPLAIN TIMESLICE samples AT '1992-02-03 "
                             "10:20:00' AS OF '1992-02-03 10:10:00'"));
  EXPECT_NE(early.plan_description.find("candidate range 0 row(s)"),
            std::string::npos)
      << early.plan_description;
}

TEST_F(QueryLangTest, ExplainWindowSaturatesAtTheEndOfTime) {
  // vt + 5d passes TimePoint::Max() (294247-01-10, int64 microseconds after
  // 1970): the window end must saturate to +inf rather than overflow int64
  // into a bogus instant.
  RelationOptions base;
  base.clock = clock_;
  ASSERT_OK(catalog_
                .CreateRelationFromDdl(
                    "CREATE EVENT RELATION ledger (account INT64 KEY, "
                    "amount DOUBLE) GRANULARITY 1s WITH STRONGLY BOUNDED 5d 2d",
                    base)
                .status());
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN TIMESLICE ledger AT '294247-01-08 00:00:00'"));
  EXPECT_NE(out.plan_description.find("tt window [294247-01-06 00:00:00.000000, "
                                      "+inf)"),
            std::string::npos)
      << out.plan_description;
  // Executing it is just as safe, and finds nothing.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput run,
      ExecuteQuery(catalog_, "RANGE ledger FROM '294246-12-01 00:00:00' TO "
                             "'294247-01-08 00:00:00'"));
  EXPECT_TRUE(run.elements.empty());
}

TEST_F(QueryLangTest, ExplainAnalyzeRecordsThePlanStageBeforeTheScan) {
  // Statements plan inside the executor's `plan` stage, like direct
  // executor calls: EXPLAIN ANALYZE (and the server's traces) show planning
  // time for every historical query.
  for (const char* statement :
       {"EXPLAIN ANALYZE TIMESLICE samples AT '1992-02-03 10:20:00'",
        "EXPLAIN ANALYZE TIMESLICE samples AT '1992-02-03 10:20:00' "
        "AS OF '1992-02-03 10:30:00'",
        "EXPLAIN ANALYZE RANGE samples FROM '1992-02-03 10:00:00' "
        "TO '1992-02-03 11:00:00'"}) {
    ASSERT_OK_AND_ASSIGN(QueryOutput out, ExecuteQuery(catalog_, statement));
    const size_t plan = out.trace_json.find("{\"name\":\"plan\"");
    const size_t scan = out.trace_json.find("{\"name\":\"scan\"");
    ASSERT_NE(plan, std::string::npos) << statement << " -> " << out.trace_json;
    ASSERT_NE(scan, std::string::npos) << statement << " -> " << out.trace_json;
    EXPECT_LT(plan, scan) << out.trace_json;
  }
}

TEST_F(QueryLangTest, ShowSlowQueries) {
  SlowQueryLog& log = SlowQueryLog::Instance();
  log.Clear();
  log.SetThresholdMicros(0);  // record every executed statement
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW SLOW QUERIES"));
  EXPECT_NE(out.report.find("threshold 0us"), std::string::npos);
  EXPECT_EQ(out.ToString(), out.report);  // SHOW renders the report verbatim
  if (MetricsCompiledIn()) {
    // Executed statements carry trace spans, so both CURRENTs were retained
    // (the SHOW itself executes no query and is never logged).
    EXPECT_NE(out.report.find("2 slow queries shown"), std::string::npos);
    EXPECT_NE(out.report.find("\"statement\":\"CURRENT samples\""),
              std::string::npos);
    ASSERT_OK_AND_ASSIGN(QueryOutput limited,
                         ExecuteQuery(catalog_, "SHOW SLOW QUERIES LIMIT 1"));
    EXPECT_NE(limited.report.find("1 slow query shown (2 recorded"),
              std::string::npos);
  } else {
    // OFF tree: no spans are attached, so nothing reaches the log.
    EXPECT_NE(out.report.find("0 slow queries shown"), std::string::npos);
  }
  log.Clear();
  log.SetThresholdMicros(10000);
}

TEST_F(QueryLangTest, ShowSpecialization) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW SPECIALIZATION samples"));
  EXPECT_NE(out.report.find("relation samples"), std::string::npos);
  EXPECT_NE(out.report.find("declared: degenerate"), std::string::npos);
  EXPECT_NE(out.report.find("figure-1 occupancy"), std::string::npos);
  if (MetricsCompiledIn()) {
    // Every fixture insert was degenerate (vt = clock now), so the monitor
    // saw them all and the relation conforms.
    EXPECT_NE(out.report.find("conforming"), std::string::npos);
  } else {
    EXPECT_NE(out.report.find("observed: (no data)"), std::string::npos);
  }
}

TEST_F(QueryLangTest, ShowFlightRecorder) {
  // A planned query records a plan-choice flight event in an ON tree.
  ASSERT_OK(
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:20:00'")
          .status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW FLIGHT RECORDER"));
  EXPECT_EQ(out.ToString(), out.report);
  if (FlightRecorderCompiledIn()) {
    EXPECT_NE(out.report.find("event(s) shown ("), std::string::npos);
    EXPECT_NE(out.report.find("ring capacity"), std::string::npos);
    EXPECT_NE(out.report.find("\"code\":\"plan.choice\""), std::string::npos);
    ASSERT_OK_AND_ASSIGN(
        QueryOutput limited,
        ExecuteQuery(catalog_, "SHOW FLIGHT RECORDER LIMIT 1"));
    EXPECT_NE(limited.report.find("1 event(s) shown ("), std::string::npos);
  } else {
    EXPECT_NE(out.report.find("flight recorder compiled out"),
              std::string::npos);
  }
}

TEST_F(QueryLangTest, ShowTraces) {
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out, ExecuteQuery(catalog_, "SHOW TRACES"));
  EXPECT_EQ(out.ToString(), out.report);
  EXPECT_NE(out.report.find("trace(s) shown ("), std::string::npos);
  EXPECT_NE(out.report.find("sampling 1/"), std::string::npos);
  if (MetricsCompiledIn()) {
    // Metrics trees attach a span to every executed statement, so the
    // CURRENT above was offered to the retained ring (default sampling 1).
    EXPECT_NE(out.report.find("\"span\":\"query."), std::string::npos);
    ASSERT_OK_AND_ASSIGN(QueryOutput limited,
                         ExecuteQuery(catalog_, "SHOW TRACES LIMIT 1"));
    EXPECT_NE(limited.report.find("1 trace(s) shown ("), std::string::npos);
  }
}

TEST_F(QueryLangTest, ShowErrors) {
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW NOTHING").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SLOW").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SLOW QUERIES LIMIT x").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SPECIALIZATION nope").ok());
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "SHOW SPECIALIZATION samples extra").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW FLIGHT").ok());
  const Status unknown = ExecuteQuery(catalog_, "SHOW NOTHING").status();
  EXPECT_NE(unknown.message().find("TRACES, HEALTH, or HISTORY"),
            std::string::npos)
      << unknown.message();
}

TEST_F(QueryLangTest, Errors) {
  EXPECT_FALSE(ExecuteQuery(catalog_, "CURRENT nope").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "FROBNICATE samples").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "TIMESLICE samples AT bare").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-13-99'").ok());
  EXPECT_TRUE(ExecuteQuery(catalog_, "TIMESLICE samples AT '300000-01-01'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "CURRENT samples trailing garbage").ok());
}

TEST_F(QueryLangTest, InsertEventStatement) {
  // `samples` is degenerate: valid time must match the stamping time, which
  // after SetUp's 13 stamps (12 inserts + 1 delete) is deterministically
  // 12:10.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "INSERT INTO samples OBJECT 9 VALUES (9, 42.5) "
                   "VALID AT '1992-02-03 12:10:00'"));
  EXPECT_NE(out.report.find("inserted element"), std::string::npos)
      << out.report;
  EXPECT_NE(out.report.find("(object 9) into samples"), std::string::npos);
  // The insert is immediately visible to reads.
  ASSERT_OK_AND_ASSIGN(QueryOutput current,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(current.elements.size(), 12u);  // 11 from SetUp + this one
}

TEST_F(QueryLangTest, MalformedTimeLiteralFailsAnInsertBeforeItIsApplied) {
  // Time literals arrive from the network: a signed or non-numeric fraction,
  // or trailing text, must fail the write, not be read as some other
  // instant (such as '.-5' as 0.05 s before midnight).
  RelationOptions base;
  base.clock = clock_;
  ASSERT_OK(catalog_
                .CreateRelationFromDdl(
                    "CREATE EVENT RELATION readings (id INT64 KEY, v DOUBLE)",
                    base)
                .status());
  for (const char* literal :
       {"'2020-01-01 00:00:00.-5'", "'2020-01-01 00:00:00.xyz'",
        "'2020-01-01 garbage'"}) {
    const Result<QueryOutput> written = ExecuteQuery(
        catalog_, std::string("INSERT INTO readings OBJECT 1 VALUES (1, 1.0) "
                              "VALID AT ") +
                      literal);
    EXPECT_TRUE(written.status().IsInvalidArgument())
        << literal << ": " << written.status().ToString();
  }
  ASSERT_OK_AND_ASSIGN(QueryOutput current,
                       ExecuteQuery(catalog_, "CURRENT readings"));
  EXPECT_TRUE(current.elements.empty());
  ASSERT_OK_AND_ASSIGN(TemporalRelation * readings, catalog_.Get("readings"));
  EXPECT_EQ(readings->size(), 0u);
}

TEST_F(QueryLangTest, InsertValueTypesRoundTrip) {
  RelationOptions base;
  base.clock = clock_;
  ASSERT_OK(catalog_
                .CreateRelationFromDdl(
                    "CREATE EVENT RELATION typed (id INT64 KEY, label STRING, "
                    "ok BOOL, score DOUBLE) GRANULARITY 1s",
                    base)
                .status());
  ASSERT_OK(ExecuteQuery(catalog_,
                         "INSERT INTO typed OBJECT 1 VALUES "
                         "(7, 'seven', TRUE, -1.5e2) "
                         "VALID AT '1992-02-03 13:00:00'")
                .status());
  ASSERT_OK(ExecuteQuery(catalog_,
                         "INSERT INTO typed OBJECT 2 VALUES "
                         "(8, NULL, FALSE, 0.25) "
                         "VALID AT '1992-02-03 13:00:00'")
                .status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "CURRENT typed"));
  EXPECT_EQ(out.elements.size(), 2u);
}

TEST_F(QueryLangTest, DeleteStatement) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "DELETE FROM samples WHERE ID " + std::to_string(ids_[1])));
  EXPECT_NE(out.report.find("deleted element"), std::string::npos)
      << out.report;
  ASSERT_OK_AND_ASSIGN(QueryOutput current,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(current.elements.size(), 10u);  // SetUp left 11
  // Deleting an unknown element fails cleanly.
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "DELETE FROM samples WHERE ID 999999").ok());
}

TEST_F(QueryLangTest, WriteStatementErrors) {
  // Wrong arity, type mismatches, bad time literals, unknown relations.
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO nope OBJECT 1 VALUES (1, 1.0) "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1) "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 'x') "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 1.0) "
                            "VALID AT 'not a time'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 1.0)")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "DELETE FROM samples WHERE ID x").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "DELETE FROM samples").ok());
  // EXPLAIN applies to queries, not writes.
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "EXPLAIN INSERT INTO samples OBJECT 1 VALUES "
                            "(1, 1.0) VALID AT '1992-02-03 13:00:00'")
                   .ok());
}

TEST_F(QueryLangTest, TrailingTokensFailAWriteBeforeItIsApplied) {
  // A write reported as failed must not have been applied or logged: the
  // end of the statement is checked before the relation is touched.
  char pattern[] = "/tmp/tempspec_qlang_XXXXXX";
  ASSERT_NE(::mkdtemp(pattern), nullptr);
  const std::string dir = pattern;
  RelationOptions base;
  base.clock = clock_;
  base.storage.directory = dir;
  ASSERT_OK(catalog_
                .CreateRelationFromDdl(
                    "CREATE EVENT RELATION g (id INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1s",
                    base)
                .status());
  ASSERT_OK(ExecuteQuery(catalog_,
                         "INSERT INTO g OBJECT 1 VALUES (1, 2.5) "
                         "VALID AT '1970-01-01 00:00:05'")
                .status());
  ASSERT_OK_AND_ASSIGN(TemporalRelation * g, catalog_.Get("g"));
  const ElementSurrogate row = g->elements()[0].element_surrogate;
  const auto current_rows = [&] {
    return ExecuteQuery(catalog_, "CURRENT g").ValueOrDie().elements.size();
  };
  MetricCounter& appends =
      MetricsRegistry::Instance().GetCounter("storage.wal.appends");
  const uint64_t appends_before = appends.Value();

  auto inserted = ExecuteQuery(catalog_,
                               "INSERT INTO g OBJECT 1 VALUES (1, 2.5) "
                               "VALID AT '1970-01-01 00:00:05' garbage");
  EXPECT_TRUE(inserted.status().IsInvalidArgument());
  EXPECT_NE(inserted.status().ToString().find("trailing tokens"),
            std::string::npos);
  EXPECT_EQ(current_rows(), 1u);

  auto deleted = ExecuteQuery(
      catalog_, "DELETE FROM g WHERE ID " + std::to_string(row) + " junk");
  EXPECT_TRUE(deleted.status().IsInvalidArgument());
  EXPECT_NE(deleted.status().ToString().find("trailing tokens"),
            std::string::npos);
  EXPECT_EQ(current_rows(), 1u);

  EXPECT_EQ(appends.Value(), appends_before);
  EXPECT_EQ(g->size(), 1u);
  EXPECT_EQ(g->backlog().size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(QueryLangTest, IsWriteStatementClassification) {
  EXPECT_TRUE(IsWriteStatement("INSERT INTO r OBJECT 1 VALUES (1)"));
  EXPECT_TRUE(IsWriteStatement("  insert into r ..."));
  EXPECT_TRUE(IsWriteStatement("DELETE FROM r WHERE ID 4"));
  EXPECT_TRUE(IsWriteStatement("CREATE EVENT RELATION r (x INT64 KEY)"));
  EXPECT_TRUE(IsWriteStatement("DROP RELATION r"));
  EXPECT_FALSE(IsWriteStatement("CURRENT r"));
  EXPECT_FALSE(IsWriteStatement("TIMESLICE r AT '1992-01-01'"));
  EXPECT_FALSE(IsWriteStatement("SHOW SPECIALIZATION r"));
  EXPECT_FALSE(IsWriteStatement("EXPLAIN CURRENT r"));
  EXPECT_FALSE(IsWriteStatement(""));
  EXPECT_FALSE(IsWriteStatement("   "));
}

}  // namespace
}  // namespace tempspec
