#include "relation/temporal_relation.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "query/executor.h"
#include "testing.h"
#include "util/failpoint.h"

namespace tempspec {
namespace {

using testing::T;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tempspec_rel_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

SchemaPtr EventSchema(const std::string& name = "measurements") {
  return Schema::Make(name,
                      {AttributeDef{"sensor", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey},
                       AttributeDef{"value", ValueType::kDouble,
                                    AttributeRole::kTimeVarying}},
                      ValidTimeKind::kEvent, Granularity::Second())
      .ValueOrDie();
}

RelationOptions BaseOptions(std::shared_ptr<LogicalClock>* clock_out = nullptr) {
  RelationOptions options;
  options.schema = EventSchema();
  auto clock = std::make_shared<LogicalClock>(T(1000), Duration::Seconds(10));
  if (clock_out) *clock_out = clock;
  options.clock = clock;
  return options;
}

TEST(RelationTest, InsertAssignsStampsAndSurrogates) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 20.5}));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate b,
                       rel->InsertEvent(1, T(950), Tuple{int64_t{1}, 21.0}));
  EXPECT_NE(a, b);
  ASSERT_OK_AND_ASSIGN(Element ea, rel->GetElement(a));
  EXPECT_EQ(ea.tt_begin, T(1000));
  EXPECT_TRUE(ea.IsCurrent());
  ASSERT_OK_AND_ASSIGN(Element eb, rel->GetElement(b));
  EXPECT_EQ(eb.tt_begin, T(1010));
  EXPECT_EQ(rel->size(), 2u);
}

TEST(RelationTest, SchemaValidation) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  // Wrong arity.
  EXPECT_FALSE(rel->InsertEvent(1, T(1), Tuple{int64_t{1}}).ok());
  // Wrong type.
  EXPECT_FALSE(rel->InsertEvent(1, T(1), Tuple{int64_t{1}, "nope"}).ok());
  // Interval stamp into an event relation.
  EXPECT_FALSE(rel->InsertInterval(1, T(1), T(2), Tuple{int64_t{1}, 1.0}).ok());
  EXPECT_EQ(rel->size(), 0u);
}

TEST(RelationTest, LogicalDeleteClosesExistenceInterval) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate id,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK(rel->LogicalDelete(id));
  ASSERT_OK_AND_ASSIGN(Element e, rel->GetElement(id));
  EXPECT_FALSE(e.IsCurrent());
  EXPECT_EQ(e.tt_end, T(1010));
  // Double delete rejected; missing element rejected.
  EXPECT_TRUE(rel->LogicalDelete(id).IsInvalidArgument());
  EXPECT_TRUE(rel->LogicalDelete(9999).IsNotFound());
}

TEST(RelationTest, ModifySharesOneTransactionTime) {
  // Section 2: a modification is a logical delete plus an insert with a
  // fresh surrogate, both indexed by the SAME transaction time.
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate old_id,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK_AND_ASSIGN(
      ElementSurrogate new_id,
      rel->Modify(old_id, ValidTime::Event(T(905)), Tuple{int64_t{1}, 2.0}));
  EXPECT_NE(new_id, old_id);
  ASSERT_OK_AND_ASSIGN(Element old_e, rel->GetElement(old_id));
  ASSERT_OK_AND_ASSIGN(Element new_e, rel->GetElement(new_id));
  EXPECT_EQ(old_e.tt_end, new_e.tt_begin);
  // Exactly one historical state boundary: before it the old element, after
  // it the new one.
  const TimePoint boundary = new_e.tt_begin;
  QueryExecutor exec(*rel);
  const ResultSet before = exec.Execute(
      TemporalQuery::Rollback(TimePoint::FromMicros(boundary.micros() - 1)));
  const ResultSet after = exec.Execute(TemporalQuery::Rollback(boundary));
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(before[0].element_surrogate, old_id);
  EXPECT_EQ(after[0].element_surrogate, new_id);
}

TEST(RelationTest, RollbackStatesFollowHistory) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK(rel->InsertEvent(2, T(910), Tuple{int64_t{2}, 2.0}).status());
  ASSERT_OK(rel->LogicalDelete(a));
  // tts: 1000, 1010, 1020.
  QueryExecutor exec(*rel);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(999))).size(), 0u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(1000))).size(), 1u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(1010))).size(), 2u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(1020))).size(), 1u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Current()).size(), 1u);
}

TEST(RelationTest, PerSurrogatePartitions) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK(rel->InsertEvent(7, T(900), Tuple{int64_t{7}, 1.0}).status());
  ASSERT_OK(rel->InsertEvent(8, T(901), Tuple{int64_t{8}, 2.0}).status());
  ASSERT_OK(rel->InsertEvent(7, T(902), Tuple{int64_t{7}, 3.0}).status());
  EXPECT_EQ(rel->Objects(), (std::vector<ObjectSurrogate>{7, 8}));
  const auto lifeline = rel->PartitionOf(7);
  ASSERT_EQ(lifeline.size(), 2u);
  EXPECT_EQ(lifeline[0]->valid.at(), T(900));
  EXPECT_EQ(lifeline[1]->valid.at(), T(902));
  EXPECT_TRUE(rel->PartitionOf(99).empty());
}

TEST(RelationTest, ConstraintRejectionLeavesNoTrace) {
  RelationOptions options = BaseOptions();
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  ASSERT_OK(rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}).status());
  // Future valid time violates retroactivity.
  auto result = rel->InsertEvent(1, T(5000), Tuple{int64_t{1}, 2.0});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsConstraintViolation());
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->backlog().size(), 1u);
  // Relation remains usable.
  EXPECT_OK(rel->InsertEvent(1, T(950), Tuple{int64_t{1}, 3.0}).status());
  EXPECT_OK(rel->CheckExtension());
}

TEST(RelationTest, DeclaredSpecsValidatedAtOpen) {
  RelationOptions options = BaseOptions();
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  options.specializations.AddEvent(
      EventSpecialization::EarlyPredictive(Duration::Days(1)).ValueOrDie());
  EXPECT_FALSE(TemporalRelation::Open(std::move(options)).ok());
}

TEST(RelationTest, TransactionIndexIsAppendOnly) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(rel->InsertEvent(1, T(i), Tuple{int64_t{1}, 0.0}).status());
  }
  // The tt_start column is the transaction-time index: one non-decreasing
  // key per element.
  const StampColumns cols = rel->stamps().columns();
  ASSERT_EQ(cols.size, 50u);
  EXPECT_TRUE(std::is_sorted(cols.tt_start, cols.tt_start + cols.size));
  // tt range [1000, 1090] covers the first 10 inserts.
  const int64_t* first =
      std::lower_bound(cols.tt_start, cols.tt_start + cols.size, T(1000).micros());
  const int64_t* last =
      std::upper_bound(cols.tt_start, cols.tt_start + cols.size, T(1090).micros());
  EXPECT_EQ(last - first, 10);
}

TEST(RelationTest, ValidIndexAnswersStabs) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(rel->InsertEvent(1, T(500 + i), Tuple{int64_t{1}, 0.0}).status());
  }
  EXPECT_EQ(rel->valid_index().Stab(T(507)).size(), 1u);
  EXPECT_EQ(rel->valid_index().Stab(T(499)).size(), 0u);
}

TEST(RelationTest, DurableRecoveryRestoresEverything) {
  TempDir dir;
  std::shared_ptr<LogicalClock> clock;
  ElementSurrogate deleted_id = 0;
  {
    RelationOptions options = BaseOptions(&clock);
    options.storage.directory = dir.path();
    options.specializations.AddEvent(EventSpecialization::Retroactive());
    ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
    ASSERT_OK_AND_ASSIGN(deleted_id,
                         rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
    ASSERT_OK(rel->InsertEvent(2, T(950), Tuple{int64_t{2}, 2.0}).status());
    ASSERT_OK(rel->LogicalDelete(deleted_id));
    ASSERT_OK(rel->Checkpoint());
    ASSERT_OK(rel->InsertEvent(3, T(1015), Tuple{int64_t{3}, 3.0}).status());
    // No checkpoint for the last insert: it must recover from the WAL.
  }
  RelationOptions options = BaseOptions();
  options.storage.directory = dir.path();
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  EXPECT_EQ(rel->size(), 3u);
  ASSERT_OK_AND_ASSIGN(Element e, rel->GetElement(deleted_id));
  EXPECT_FALSE(e.IsCurrent());
  EXPECT_EQ(QueryExecutor(*rel).Execute(TemporalQuery::Current()).size(), 2u);
  EXPECT_OK(rel->CheckExtension());
  // New inserts continue beyond recovered stamps and surrogates.
  ASSERT_OK_AND_ASSIGN(ElementSurrogate next,
                       rel->InsertEvent(4, T(1020), Tuple{int64_t{4}, 4.0}));
  EXPECT_GT(next, 3u);
  ASSERT_OK_AND_ASSIGN(Element ne, rel->GetElement(next));
  EXPECT_GT(ne.tt_begin, T(1030));
}

TEST(RelationTest, RecoveryEnforcesConstraintsOnNewInserts) {
  TempDir dir;
  {
    RelationOptions options = BaseOptions();
    options.storage.directory = dir.path();
    options.specializations.AddOrdering(
        OrderingSpec(OrderingKind::kNonDecreasing));
    ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
    ASSERT_OK(rel->InsertEvent(1, T(500), Tuple{int64_t{1}, 1.0}).status());
  }
  RelationOptions options = BaseOptions();
  options.storage.directory = dir.path();
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  // The online checker state was rebuilt from the recovered extension:
  // a valid time before 500 is rejected.
  EXPECT_FALSE(rel->InsertEvent(1, T(400), Tuple{int64_t{1}, 2.0}).ok());
  EXPECT_OK(rel->InsertEvent(1, T(600), Tuple{int64_t{1}, 3.0}).status());
}

TEST(RelationTest, StatsReflectPopulation) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK(rel->InsertEvent(2, T(910), Tuple{int64_t{2}, 2.0}).status());
  ASSERT_OK(rel->LogicalDelete(a));
  const auto stats = rel->GetStats();
  EXPECT_EQ(stats.elements, 2u);
  EXPECT_EQ(stats.current_elements, 1u);
  EXPECT_EQ(stats.objects, 2u);
  EXPECT_EQ(stats.backlog_operations, 3u);
  EXPECT_GT(stats.backlog_bytes, 0u);
  EXPECT_EQ(stats.first_transaction, T(1000));
  EXPECT_EQ(stats.last_transaction, T(1020));
}

TEST(RelationTest, BacklogStatsSurviveReopenAndCheckpoint) {
  // The backlog figures come from the store's counters, not from a walk
  // over operations: a reopen rebuilds them from the recovered stream, and
  // a checkpoint only moves operations from the WAL into pages.
  TempDir dir;
  const auto durable = [&] {
    RelationOptions options = BaseOptions();
    options.storage.directory = dir.path();
    return options;
  };
  const auto expect_same = [](const TemporalRelation::Stats& a,
                              const TemporalRelation::Stats& b) {
    EXPECT_EQ(a.backlog_operations, b.backlog_operations);
    EXPECT_EQ(a.backlog_bytes, b.backlog_bytes);
    EXPECT_EQ(a.last_transaction, b.last_transaction);
    EXPECT_EQ(a.elements, b.elements);
    EXPECT_EQ(a.current_elements, b.current_elements);
    EXPECT_EQ(a.first_transaction, b.first_transaction);
  };
  TemporalRelation::Stats written;
  {
    ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(durable()));
    ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                         rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
    ASSERT_OK_AND_ASSIGN(ElementSurrogate b,
                         rel->InsertEvent(2, T(910), Tuple{int64_t{2}, 2.0}));
    ASSERT_OK(rel->Checkpoint());
    ASSERT_OK(rel->LogicalDelete(a));
    ASSERT_OK(rel->Modify(b, ValidTime::Event(T(920)), Tuple{int64_t{2}, 3.0})
                  .status());
    written = rel->GetStats();
    EXPECT_EQ(written.backlog_operations, 5u);  // 2 inserts, delete, modify
    EXPECT_EQ(written.last_transaction, T(1030));
    size_t bytes = 0;
    for (const BacklogEntry& op : OperationsOf(rel->elements())) {
      bytes += op.Encode().size();
    }
    EXPECT_EQ(written.backlog_bytes, bytes);
  }
  {
    ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(durable()));
    expect_same(rel->GetStats(), written);
    ASSERT_OK(rel->Checkpoint());
    expect_same(rel->GetStats(), written);
  }
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(durable()));
  expect_same(rel->GetStats(), written);
  EXPECT_EQ(rel->backlog().persisted_entries(), 5u);
}

TEST(RelationTest, VacuumRemovesDeadHistory) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  // tts: inserts at 1000,1010,1020; deletes at 1030 (a), 1040 (b).
  ASSERT_OK_AND_ASSIGN(ElementSurrogate a,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate b,
                       rel->InsertEvent(2, T(905), Tuple{int64_t{2}, 2.0}));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate c,
                       rel->InsertEvent(3, T(910), Tuple{int64_t{3}, 3.0}));
  ASSERT_OK(rel->LogicalDelete(a));
  ASSERT_OK(rel->LogicalDelete(b));

  // Horizon between the two deletions: only `a` is fully dead before it.
  ASSERT_OK_AND_ASSIGN(size_t removed, rel->VacuumBefore(T(1035)));
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->GetElement(a).status().IsNotFound());
  EXPECT_OK(rel->GetElement(b).status());
  EXPECT_OK(rel->GetElement(c).status());

  // Rollback at/after the horizon is unchanged: at 1035 only b and c lived.
  QueryExecutor exec(*rel);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(1035))).size(), 2u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(T(1045))).size(), 1u);
  EXPECT_EQ(exec.Execute(TemporalQuery::Current()).size(), 1u);
  // Indexes were rebuilt consistently.
  const StampColumns cols = rel->stamps().columns();
  ASSERT_EQ(cols.size, 2u);
  EXPECT_EQ(cols.tt_start[0], T(1010).micros());  // b
  EXPECT_EQ(cols.tt_start[1], T(1020).micros());  // c
  EXPECT_EQ(rel->valid_index().Stab(T(905)).size(), 1u);
  EXPECT_EQ(rel->valid_index().Stab(T(900)).size(), 0u);
  // A second vacuum with nothing to do is a no-op.
  ASSERT_OK_AND_ASSIGN(size_t again, rel->VacuumBefore(T(1035)));
  EXPECT_EQ(again, 0u);
  // New updates still work after the rebuild.
  EXPECT_OK(rel->InsertEvent(4, T(950), Tuple{int64_t{4}, 4.0}).status());
}

TEST(RelationTest, RollbackAfterVacuumMatchesExistenceCount) {
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(BaseOptions()));
  std::vector<ElementSurrogate> ids;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK_AND_ASSIGN(ElementSurrogate id,
                         rel->InsertEvent(i % 4, T(i), Tuple{int64_t{i % 4}, 0.0}));
    ids.push_back(id);
  }
  for (int i = 0; i < 20; ++i) ASSERT_OK(rel->LogicalDelete(ids[i]));
  const TimePoint horizon = rel->LastTransactionTime();
  ASSERT_OK_AND_ASSIGN(size_t removed, rel->VacuumBefore(horizon));
  EXPECT_EQ(removed, 20u);
  // Rollback over the compacted store matches a manual scan at stamps
  // after the horizon.
  QueryExecutor exec(*rel);
  for (const TimePoint tt : {horizon, TimePoint::FromMicros(horizon.micros() + 1)}) {
    size_t expected = 0;
    for (const Element& e : rel->elements()) {
      if (e.ExistsAt(tt)) ++expected;
    }
    EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(tt)).size(), expected);
    EXPECT_EQ(expected, 40u);
  }
}

TEST(RelationTest, FailedVacuumLeavesRelationIntact) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs a TEMPSPEC_FAILPOINTS=ON build";
  }
  TempDir dir;
  RelationOptions options = BaseOptions();
  options.storage.directory = dir.path();
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  ASSERT_OK_AND_ASSIGN(ElementSurrogate dead,
                       rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
  ASSERT_OK(rel->InsertEvent(2, T(905), Tuple{int64_t{2}, 2.0}).status());
  ASSERT_OK(rel->InsertEvent(3, T(910), Tuple{int64_t{3}, 3.0}).status());
  ASSERT_OK(rel->LogicalDelete(dead));
  ASSERT_OK(rel->Checkpoint());

  const std::vector<Element> before(rel->elements().begin(),
                                    rel->elements().end());
  QueryExecutor exec(*rel);
  const TimePoint mid = T(1015);
  const size_t current_before = exec.Execute(TemporalQuery::Current()).size();
  const size_t rollback_before =
      exec.Execute(TemporalQuery::Rollback(mid)).size();

  // Compaction writes its side file page by page: fail the first write.
  FailpointRegistry::Instance().Arm("disk.write_page",
                                    FaultSpec{.kind = FaultKind::kCrash});
  const Result<size_t> vacuumed = rel->VacuumBefore(rel->LastTransactionTime());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_FALSE(vacuumed.ok());

  // Nothing was moved out of the store: every element, attributes included,
  // and every read answer as before the failed vacuum.
  ASSERT_EQ(rel->size(), before.size());
  for (const Element& e : before) {
    ASSERT_OK_AND_ASSIGN(Element got, rel->GetElement(e.element_surrogate));
    EXPECT_EQ(got.tt_begin, e.tt_begin);
    EXPECT_EQ(got.tt_end, e.tt_end);
    EXPECT_EQ(got.valid, e.valid);
    EXPECT_EQ(got.attributes, e.attributes);
  }
  EXPECT_EQ(exec.Execute(TemporalQuery::Current()).size(), current_before);
  EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(mid)).size(), rollback_before);
}

TEST(RelationTest, VacuumDurableSurvivesReopen) {
  TempDir dir;
  ElementSurrogate dead = 0, alive = 0;
  {
    RelationOptions options = BaseOptions();
    options.storage.directory = dir.path();
    ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
    ASSERT_OK_AND_ASSIGN(dead,
                         rel->InsertEvent(1, T(900), Tuple{int64_t{1}, 1.0}));
    ASSERT_OK_AND_ASSIGN(alive,
                         rel->InsertEvent(2, T(905), Tuple{int64_t{2}, 2.0}));
    ASSERT_OK(rel->LogicalDelete(dead));
    ASSERT_OK(rel->Checkpoint());
    ASSERT_OK_AND_ASSIGN(size_t removed,
                         rel->VacuumBefore(TimePoint::Max()));
    EXPECT_EQ(removed, 1u);
  }
  RelationOptions options = BaseOptions();
  options.storage.directory = dir.path();
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->GetElement(dead).status().IsNotFound());
  EXPECT_OK(rel->GetElement(alive).status());
}

TEST(RelationTest, IntervalRelationEndToEnd) {
  RelationOptions options;
  options.schema =
      Schema::Make("assignments",
                   {AttributeDef{"emp", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey}},
                   ValidTimeKind::kInterval, Granularity::Second())
          .ValueOrDie();
  options.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  options.specializations.AddSuccessive(
      SuccessiveSpec::Contiguous(SpecScope::kPerObjectSurrogate));
  ASSERT_OK_AND_ASSIGN(auto rel, TemporalRelation::Open(std::move(options)));
  ASSERT_OK(rel->InsertInterval(1, T(100), T(200), Tuple{int64_t{1}}).status());
  ASSERT_OK(rel->InsertInterval(1, T(200), T(300), Tuple{int64_t{1}}).status());
  // Gap: rejected by the contiguity constraint.
  EXPECT_FALSE(rel->InsertInterval(1, T(350), T(400), Tuple{int64_t{1}}).ok());
  // Event stamp into an interval relation: rejected.
  EXPECT_FALSE(rel->Insert(1, ValidTime::Event(T(300)), Tuple{int64_t{1}}).ok());
  EXPECT_EQ(rel->size(), 2u);
}

}  // namespace
}  // namespace tempspec
