// Integration tests that walk, one by one, the application examples the
// paper uses to motivate each specialization — each test cites the prose it
// reproduces and exercises the full engine path (declaration, enforcement,
// query planning).
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "query/executor.h"
#include "testing.h"
#include "timex/calendar.h"

namespace tempspec {
namespace {

using testing::Civil;
using testing::T;

RelationOptions Base(SchemaPtr schema, std::shared_ptr<LogicalClock>* clock,
                     TimePoint start = Civil(1992, 1, 1)) {
  RelationOptions options;
  options.schema = std::move(schema);
  *clock = std::make_shared<LogicalClock>(start, Duration::Seconds(1));
  options.clock = *clock;
  return options;
}

SchemaPtr EventSchema(const std::string& name,
                      Granularity gran = Granularity::Second()) {
  return Schema::Make(name,
                      {AttributeDef{"id", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey},
                       AttributeDef{"v", ValueType::kDouble,
                                    AttributeRole::kTimeVarying}},
                      ValidTimeKind::kEvent, gran)
      .ValueOrDie();
}

// §1: "in the monitoring of temperatures during a chemical experiment,
// temperature measurements are recorded in the temporal relation after they
// are valid, due to transmission delays. The resulting relation is termed
// retroactive."
TEST(PaperExamples, Section1ChemicalMonitoringIsRetroactive) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("temperatures"), &clock);
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();

  const TimePoint measured = clock->Peek() - Duration::Seconds(45);
  EXPECT_OK(rel->InsertEvent(1, measured, Tuple{int64_t{1}, 21.5}).status());
  // A measurement "from the future" cannot be a transmission delay.
  EXPECT_FALSE(rel->InsertEvent(1, clock->Peek() + Duration::Minutes(5),
                                Tuple{int64_t{1}, 22.0})
                   .ok());
}

// §3.1: "a particular set-up for the sampling of temperatures may result in
// delays that always exceed 30 seconds. This gives rise to a delayed
// retroactive relation."
TEST(PaperExamples, Section31ThirtySecondSamplingDelay) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("sampled"), &clock);
  options.specializations.AddEvent(
      EventSpecialization::DelayedRetroactive(Duration::Seconds(30)).ValueOrDie());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertEvent(1, clock->Peek() - Duration::Seconds(31),
                             Tuple{int64_t{1}, 0.0})
                .status());
  EXPECT_FALSE(rel->InsertEvent(1, clock->Peek() - Duration::Seconds(29),
                                Tuple{int64_t{1}, 0.0})
                   .ok());
}

// §3.1: the project-assignment relation — "While assignments may be recorded
// arbitrarily into the future, an assignment is required to be recorded in
// the database no later than one month after it is effective."
TEST(PaperExamples, Section31AssignmentsRetroactivelyBoundedOneMonth) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("assignment_events"), &clock,
                                 Civil(1992, 3, 29));
  options.specializations.AddEvent(
      EventSpecialization::RetroactivelyBounded(Duration::Months(1)).ValueOrDie());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  // Effective Feb 29, recorded Mar 29 00:00:00: exactly one (calendric)
  // month late — admitted on the boundary.
  EXPECT_OK(rel->InsertEvent(1, Civil(1992, 2, 29), Tuple{int64_t{1}, 0.0})
                .status());
  // Arbitrarily far in the future: fine.
  EXPECT_OK(rel->InsertEvent(1, Civil(1999, 1, 1), Tuple{int64_t{1}, 0.0})
                .status());
  // Effective Feb 28, recorded Mar 29+: more than one month late.
  EXPECT_FALSE(
      rel->InsertEvent(1, Civil(1992, 2, 28), Tuple{int64_t{1}, 0.0}).ok());
}

// §3.1: "transactions concerning future months are made to a separate
// relation" — the accounting relation is strongly bounded.
TEST(PaperExamples, Section31AccountingStronglyBounded) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("ledger"), &clock);
  options.specializations.AddEvent(
      EventSpecialization::StronglyBounded(Duration::Days(5), Duration::Days(2))
          .ValueOrDie());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertEvent(1, clock->Peek() - Duration::Days(3),
                             Tuple{int64_t{1}, -42.0})
                .status());
  EXPECT_FALSE(rel->InsertEvent(1, clock->Peek() - Duration::Days(6),
                                Tuple{int64_t{1}, -42.0})
                   .ok());
  EXPECT_FALSE(rel->InsertEvent(1, clock->Peek() + Duration::Days(3),
                                Tuple{int64_t{1}, -42.0})
                   .ok());
}

// §3.1: "an order database in which pending orders, constrained by company
// policy to be no more than 30 days in the future, are stored along with
// previously filled orders."
TEST(PaperExamples, Section31OrdersPredictivelyBounded) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("orders"), &clock);
  options.specializations.AddEvent(
      EventSpecialization::PredictivelyBounded(Duration::Days(30)).ValueOrDie());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertEvent(1, clock->Peek() - Duration::Days(400),
                             Tuple{int64_t{1}, 0.0})
                .status());  // ancient filled order
  EXPECT_OK(rel->InsertEvent(1, clock->Peek() + Duration::Days(29),
                             Tuple{int64_t{1}, 0.0})
                .status());  // pending, within policy
  EXPECT_FALSE(rel->InsertEvent(1, clock->Peek() + Duration::Days(31),
                                Tuple{int64_t{1}, 0.0})
                   .ok());
}

// §3.1: "a relation is predictively determined if it is valid from the next
// closest 8:00 a.m. Such a relation might be relevant in banking
// applications for deposits that are not effective until the start of the
// next business day."
TEST(PaperExamples, Section31BankDepositsPredictivelyDetermined) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options =
      Base(EventSchema("deposits"), &clock, Civil(1992, 2, 3, 14, 30));
  options.specializations.AddEvent(EventSpecialization::Predictive().Determined(
      MappingFunction::NextPhase(Granularity::Day(), Duration::Hours(8))));
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertEvent(1, Civil(1992, 2, 4, 8, 0), Tuple{int64_t{1}, 100.0})
                .status());
  EXPECT_FALSE(
      rel->InsertEvent(1, Civil(1992, 2, 4, 12, 0), Tuple{int64_t{1}, 100.0})
          .ok());
}

// §3.2: "an archeological relation that records information about
// progressively earlier periods uncovered as excavation proceeds" is
// globally non-increasing.
TEST(PaperExamples, Section32ArchaeologyNonIncreasing) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("findings"), &clock);
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kNonIncreasing));
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertEvent(1, Civil(1400, 1, 1), Tuple{int64_t{1}, 0.0})
                .status());
  EXPECT_OK(rel->InsertEvent(1, Civil(900, 1, 1), Tuple{int64_t{1}, 0.0})
                .status());
  EXPECT_FALSE(
      rel->InsertEvent(1, Civil(1200, 1, 1), Tuple{int64_t{1}, 0.0}).ok());
}

// §3.3: "a relation recording new hires and terminations that observes a
// company policy that all such hires and terminations be effective on
// either the first or the fifteenth of each month" — the 1st/15th grid is
// calendric, so the declaration here uses the 1-day unit that the policy's
// span lengths are multiples of.
TEST(PaperExamples, Section33EmploymentSpansDayRegular) {
  RelationOptions options;
  options.schema =
      Schema::Make("employment",
                   {AttributeDef{"employee", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kInterval, Granularity::Day())
          .ValueOrDie();
  std::shared_ptr<LogicalClock> clock =
      std::make_shared<LogicalClock>(Civil(1992, 6, 1), Duration::Hours(1));
  options.clock = clock;
  options.specializations.AddIntervalRegularity(
      IntervalRegularitySpec::Make(IntervalRegularityDimension::kValidTime,
                                   Duration::Days(1))
          .ValueOrDie());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  EXPECT_OK(rel->InsertInterval(1, Civil(1992, 1, 1), Civil(1992, 1, 15),
                                Tuple{int64_t{1}})
                .status());
  EXPECT_FALSE(rel->InsertInterval(2, Civil(1992, 1, 1),
                                   Civil(1992, 1, 15, 12, 0), Tuple{int64_t{2}})
                   .ok());
}

// §3.4: weekly assignments, recorded over the weekend — per surrogate
// sequential; recorded each Thursday — per surrogate non-decreasing but NOT
// sequential.
TEST(PaperExamples, Section34WeekendVsThursdayRecording) {
  auto make = [](auto add_specs) {
    RelationOptions options;
    options.schema =
        Schema::Make("weekly",
                     {AttributeDef{"employee", ValueType::kInt64,
                                   AttributeRole::kTimeInvariantKey}},
                     ValidTimeKind::kInterval, Granularity::Hour())
            .ValueOrDie();
    auto clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
    options.clock = clock;
    add_specs(&options.specializations);
    return std::make_pair(
        TemporalRelation::Open(std::move(options)).ValueOrDie(), clock);
  };

  {
    // Weekend recording: tt between the previous week's end and the next
    // week's start — sequential holds.
    auto [rel, clock] = make([](SpecializationSet* s) {
      s->AddIntervalOrdering(IntervalOrderingSpec(
          IntervalOrderingKind::kSequential, SpecScope::kPerObjectSurrogate));
    });
    clock->SetTo(T(90));
    ASSERT_OK(rel->InsertInterval(1, T(100), T(200), Tuple{int64_t{1}}).status());
    clock->SetTo(T(205));
    EXPECT_OK(rel->InsertInterval(1, T(210), T(310), Tuple{int64_t{1}}).status());
  }
  {
    // Thursday recording: tt inside the current week — sequential fails,
    // non-decreasing holds.
    auto [rel, clock] = make([](SpecializationSet* s) {
      s->AddIntervalOrdering(IntervalOrderingSpec(
          IntervalOrderingKind::kSequential, SpecScope::kPerObjectSurrogate));
    });
    clock->SetTo(T(90));
    ASSERT_OK(rel->InsertInterval(1, T(100), T(200), Tuple{int64_t{1}}).status());
    clock->SetTo(T(150));  // mid-week
    EXPECT_FALSE(
        rel->InsertInterval(1, T(200), T(300), Tuple{int64_t{1}}).ok());
  }
  {
    auto [rel, clock] = make([](SpecializationSet* s) {
      s->AddIntervalOrdering(IntervalOrderingSpec(
          IntervalOrderingKind::kNonDecreasing, SpecScope::kPerObjectSurrogate));
    });
    clock->SetTo(T(90));
    ASSERT_OK(rel->InsertInterval(1, T(100), T(200), Tuple{int64_t{1}}).status());
    clock->SetTo(T(150));
    EXPECT_OK(rel->InsertInterval(1, T(200), T(300), Tuple{int64_t{1}}).status());
  }
}

// §3.1 (implementation level): "a degenerate temporal relation can be
// advantageously treated as a rollback relation" — and §4's Postgres note:
// rollback relations with valid-time examples ARE temporal relations. A
// degenerate relation answers both query classes identically.
TEST(PaperExamples, Section4DegenerateRollbackEqualsTimeslice) {
  std::shared_ptr<LogicalClock> clock;
  RelationOptions options = Base(EventSchema("postgres_style"), &clock);
  options.specializations.AddEvent(EventSpecialization::Degenerate());
  auto rel = TemporalRelation::Open(std::move(options)).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    const TimePoint now = clock->Peek();
    ASSERT_OK(rel->InsertEvent(1, now, Tuple{int64_t{1}, 1.0 * i}).status());
  }
  QueryExecutor exec(*rel);
  for (size_t i = 5; i < 50; i += 7) {
    const Element& probe = rel->elements()[i];
    // The facts valid at vt are exactly the facts stored at vt... visible in
    // the rollback state at that stamp.
    const ResultSet slice =
        exec.Execute(TemporalQuery::Timeslice(probe.valid.at()));
    ASSERT_EQ(slice.size(), 1u);
    const ResultSet state =
        exec.Execute(TemporalQuery::Rollback(probe.tt_begin));
    EXPECT_EQ(state.size(), i + 1);  // append-only growth
    EXPECT_EQ(slice[0].element_surrogate, probe.element_surrogate);
  }
}

}  // namespace
}  // namespace tempspec
