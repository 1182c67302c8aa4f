#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "testing.h"

namespace tempspec {
namespace {

using testing::T;

SchemaPtr EventSchema(const std::string& name) {
  return Schema::Make(name,
                      {AttributeDef{"id", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey}},
                      ValidTimeKind::kEvent, Granularity::Second())
      .ValueOrDie();
}

RelationOptions Options(const std::string& name, SpecializationSet specs = {}) {
  RelationOptions options;
  options.schema = EventSchema(name);
  options.specializations = std::move(specs);
  options.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  return options;
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(TemporalRelation * rel, catalog.CreateRelation(Options("a")));
  ASSERT_NE(rel, nullptr);
  EXPECT_TRUE(catalog.CreateRelation(Options("a")).status().IsAlreadyExists());
  ASSERT_OK_AND_ASSIGN(TemporalRelation * got, catalog.Get("a"));
  EXPECT_EQ(got, rel);
  EXPECT_TRUE(catalog.Get("b").status().IsNotFound());
  EXPECT_EQ(catalog.RelationNames(), std::vector<std::string>{"a"});
  ASSERT_OK(catalog.Drop("a"));
  EXPECT_TRUE(catalog.Get("a").status().IsNotFound());
  EXPECT_TRUE(catalog.Drop("a").IsNotFound());
}

TEST(CatalogTest, CreateFromDdl) {
  Catalog catalog;
  RelationOptions base;
  base.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  ASSERT_OK_AND_ASSIGN(
      TemporalRelation * rel,
      catalog.CreateRelationFromDdl(
          "CREATE EVENT RELATION feed (id INT64 KEY, v DOUBLE) "
          "GRANULARITY 1s WITH DEGENERATE",
          base));
  EXPECT_EQ(rel->schema().relation_name(), "feed");
  EXPECT_EQ(rel->specializations().event_specs()[0].kind(),
            EventSpecKind::kDegenerate);
  // The registered relation is live: the declaration is enforced.
  EXPECT_FALSE(rel->InsertEvent(1, T(5000), Tuple{int64_t{1}, 0.0}).ok());
  // Bad DDL surfaces as a parse error, nothing registered.
  EXPECT_FALSE(catalog.CreateRelationFromDdl("CREATE NONSENSE", base).ok());
  EXPECT_EQ(catalog.RelationNames().size(), 1u);
}

TEST(CatalogTest, CreateFromDdlDegenerateRegularFeed) {
  // A plant feed declared in DDL: degenerate and strictly regular every 10s.
  // Samples stamped on the 10s clock satisfy both; the advice and plan
  // follow the degenerate declaration.
  Catalog catalog;
  auto clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(10));
  RelationOptions base;
  base.clock = clock;
  ASSERT_OK_AND_ASSIGN(
      TemporalRelation * feed,
      catalog.CreateRelationFromDdl(
          "CREATE EVENT RELATION feed (sensor INT64 KEY, kelvin DOUBLE) "
          "GRANULARITY 1s WITH DEGENERATE, STRICT TEMPORAL REGULAR 10s",
          base));
  ASSERT_EQ(feed->specializations().regularities().size(), 1u);
  EXPECT_TRUE(feed->specializations().regularities()[0].strict());
  for (int i = 0; i < 120; ++i) {
    ASSERT_OK(feed->InsertEvent(i % 3 + 1, clock->Peek(),
                                Tuple{int64_t{i % 3 + 1}, 300.0 + i % 7})
                  .status());
  }
  EXPECT_EQ(feed->size(), 120u);
  EXPECT_OK(feed->CheckExtension());
  ASSERT_OK_AND_ASSIGN(AdvisorReport advice, catalog.AdviseFor("feed"));
  EXPECT_EQ(advice.timeslice_strategy, ExecutionStrategy::kRollbackEquivalence);
}

TEST(CatalogTest, CreateValidatesDeclaration) {
  Catalog catalog;
  SpecializationSet bad;
  bad.AddEvent(EventSpecialization::Retroactive());
  bad.AddEvent(EventSpecialization::EarlyPredictive(Duration::Days(1)).ValueOrDie());
  EXPECT_FALSE(catalog.CreateRelation(Options("bad", std::move(bad))).ok());
}

TEST(AdvisorTest, GeneralRelationGetsGeneralAdvice) {
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, SpecializationSet());
  EXPECT_EQ(report.storage, StorageLayout::kBitemporalBacklog);
  EXPECT_EQ(report.stamps, StampMaterialization::kStore);
  EXPECT_EQ(report.index, IndexAdvice::kIntervalIndex);
  EXPECT_EQ(report.encoding, EncodingAdvice::kRaw);
  EXPECT_EQ(report.timeslice_strategy, ExecutionStrategy::kValidIndex);
}

TEST(AdvisorTest, DegenerateGetsAppendOnlyAndNoStamps) {
  // Section 3.1: degenerate relations are advantageously treated as
  // (append-only) rollback relations.
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::Degenerate());
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  EXPECT_EQ(report.storage, StorageLayout::kAppendOnlyRollback);
  EXPECT_EQ(report.stamps, StampMaterialization::kComputeOnRead);
  EXPECT_EQ(report.index, IndexAdvice::kNone);
  EXPECT_EQ(report.timeslice_strategy, ExecutionStrategy::kRollbackEquivalence);
}

TEST(AdvisorTest, SequentialGetsAppendOnly) {
  SpecializationSet specs;
  specs.AddOrdering(OrderingSpec(OrderingKind::kSequential));
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  EXPECT_EQ(report.storage, StorageLayout::kAppendOnlyRollback);
  EXPECT_EQ(report.timeslice_strategy, ExecutionStrategy::kMonotoneBinarySearch);
}

TEST(AdvisorTest, DeterminedDropsStoredStamps) {
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::Retroactive().Determined(
      MappingFunction::TruncateThenOffset(Granularity::Hour())));
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  EXPECT_EQ(report.stamps, StampMaterialization::kComputeOnRead);
}

TEST(AdvisorTest, RegularGetsDeltaEncoding) {
  SpecializationSet specs;
  specs.AddRegularity(RegularitySpec::Make(RegularityDimension::kTransactionTime,
                                           Duration::Minutes(1))
                          .ValueOrDie());
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  EXPECT_EQ(report.encoding, EncodingAdvice::kDeltaUnit);
}

TEST(AdvisorTest, InheritedPropertiesFollowFigure2) {
  SpecializationSet specs;
  specs.AddEvent(
      EventSpecialization::DelayedRetroactive(Duration::Seconds(30)).ValueOrDie());
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  // delayed retroactive inherits retroactive, predictively bounded,
  // undetermined, general (Figure 2 ancestors).
  auto has = [&](const std::string& name) {
    return std::find(report.inherited_properties.begin(),
                     report.inherited_properties.end(),
                     name) != report.inherited_properties.end();
  };
  EXPECT_TRUE(has("retroactive"));
  EXPECT_TRUE(has("predictively bounded"));
  EXPECT_TRUE(has("general"));
  EXPECT_FALSE(has("predictive"));
}

TEST(AdvisorTest, RedundantDeclarationsFlagged) {
  SpecializationSet specs;
  specs.AddEvent(
      EventSpecialization::DelayedRetroactive(Duration::Seconds(30)).ValueOrDie());
  specs.AddEvent(EventSpecialization::Retroactive());  // implied by the above
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  ASSERT_EQ(report.redundant_declarations.size(), 1u);
  EXPECT_NE(report.redundant_declarations[0].find("retroactive"),
            std::string::npos);
}

TEST(AdvisorTest, BandedRelationSkipsExtraIndex) {
  SpecializationSet specs;
  specs.AddEvent(
      EventSpecialization::StronglyBounded(Duration::Days(5), Duration::Days(2))
          .ValueOrDie());
  SchemaPtr schema = EventSchema("r");
  AdvisorReport report = Advise(*schema, specs);
  EXPECT_EQ(report.index, IndexAdvice::kNone);
  EXPECT_EQ(report.timeslice_strategy, ExecutionStrategy::kTransactionWindow);
}

TEST(CatalogTest, DescribeIncludesAdvice) {
  Catalog catalog;
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::Degenerate());
  ASSERT_OK(catalog.CreateRelation(Options("samples", std::move(specs))).status());
  const std::string description = catalog.Describe();
  EXPECT_NE(description.find("samples"), std::string::npos);
  EXPECT_NE(description.find("degenerate"), std::string::npos);
  EXPECT_NE(description.find("append-only"), std::string::npos);
}

TEST(CatalogTest, AdviseForRegisteredRelation) {
  Catalog catalog;
  SpecializationSet specs;
  specs.AddOrdering(OrderingSpec(OrderingKind::kSequential));
  ASSERT_OK(catalog.CreateRelation(Options("log", std::move(specs))).status());
  ASSERT_OK_AND_ASSIGN(AdvisorReport report, catalog.AdviseFor("log"));
  EXPECT_EQ(report.storage, StorageLayout::kAppendOnlyRollback);
  EXPECT_FALSE(catalog.AdviseFor("nope").ok());
}

}  // namespace
}  // namespace tempspec
