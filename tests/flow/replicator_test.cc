#include "flow/replicator.h"

#include <gtest/gtest.h>

#include "query/executor.h"
#include "spec/inference.h"
#include "testing.h"

namespace tempspec {
namespace {

using testing::T;

SchemaPtr FeedSchema(const std::string& name) {
  return Schema::Make(name,
                      {AttributeDef{"sensor", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey},
                       AttributeDef{"v", ValueType::kDouble,
                                    AttributeRole::kTimeVarying}},
                      ValidTimeKind::kEvent, Granularity::Second())
      .ValueOrDie();
}

TEST(PropagatedBandTest, ShiftsBothSides) {
  // Source band [-120s, -30s], delay [10s, 20s] -> [-140s, -40s].
  const Band source =
      Band::Between(-Duration::Seconds(120), -Duration::Seconds(30));
  ASSERT_OK_AND_ASSIGN(
      Band target,
      PropagatedBand(source, Duration::Seconds(10), Duration::Seconds(20)));
  EXPECT_EQ(target.lower()->offset, -Duration::Seconds(140));
  EXPECT_EQ(target.upper()->offset, -Duration::Seconds(40));
}

TEST(PropagatedBandTest, HalfBoundedAndErrors) {
  ASSERT_OK_AND_ASSIGN(Band retro,
                       PropagatedBand(Band::AtMost(Duration::Zero()),
                                      Duration::Seconds(10), Duration::Seconds(20)));
  EXPECT_FALSE(retro.lower().has_value());
  EXPECT_EQ(retro.upper()->offset, -Duration::Seconds(10));
  EXPECT_FALSE(PropagatedBand(Band::All(), Duration::Seconds(-1),
                              Duration::Seconds(5))
                   .ok());
  EXPECT_FALSE(PropagatedBand(Band::All(), Duration::Seconds(9),
                              Duration::Seconds(5))
                   .ok());
}

TEST(PropagatedSpecTest, DegenerateBecomesDelayedStronglyBounded) {
  // The module-comment example: a degenerate feed replicated with a 10..20s
  // delay is delayed strongly retroactively bounded (10s, 20s) downstream.
  ASSERT_OK_AND_ASSIGN(
      EventSpecialization spec,
      PropagatedSpec(EventSpecialization::Degenerate(), Duration::Seconds(10),
                     Duration::Seconds(20)));
  EXPECT_EQ(spec.kind(), EventSpecKind::kDelayedStronglyRetroactivelyBounded);
  EXPECT_EQ(spec.band().lower()->offset, -Duration::Seconds(20));
  EXPECT_EQ(spec.band().upper()->offset, -Duration::Seconds(10));
}

class ReplicatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Source: a degenerate feed (vt == tt).
    RelationOptions src_options;
    src_options.schema = FeedSchema("feed");
    src_clock_ = std::make_shared<LogicalClock>(T(1000), Duration::Seconds(5));
    src_options.clock = src_clock_;
    src_options.specializations.AddEvent(EventSpecialization::Degenerate());
    source_ = TemporalRelation::Open(std::move(src_options)).ValueOrDie();

    // Target: declared with the *propagated* specialization.
    RelationOptions dst_options;
    dst_options.schema = FeedSchema("warehouse");
    dst_clock_ = std::make_shared<LogicalClock>(T(1000), Duration::Seconds(5));
    dst_options.clock = dst_clock_;
    dst_options.specializations.AddEvent(
        PropagatedSpec(EventSpecialization::Degenerate(), Duration::Seconds(10),
                       Duration::Seconds(30))
            .ValueOrDie());
    target_ = TemporalRelation::Open(std::move(dst_options)).ValueOrDie();
  }

  std::shared_ptr<LogicalClock> src_clock_, dst_clock_;
  std::unique_ptr<TemporalRelation> source_, target_;
};

TEST_F(ReplicatorTest, ReplicaSatisfiesPropagatedSpec) {
  for (int i = 0; i < 200; ++i) {
    const TimePoint now = src_clock_->Peek();
    ASSERT_OK(source_->InsertEvent(i % 4, now, Tuple{int64_t{i % 4}, 1.0 * i})
                  .status());
  }
  Replicator replicator(source_.get(), target_.get(), dst_clock_.get(),
                        Duration::Seconds(10), Duration::Seconds(30));
  ASSERT_OK(replicator.Sync());
  EXPECT_EQ(replicator.replicated(), 200u);
  EXPECT_EQ(target_->size(), 200u);
  // The target's own constraint engine accepted everything, and a batch
  // re-check passes: the propagated declaration is sound.
  EXPECT_OK(target_->CheckExtension());

  // Inference on the replica recovers the propagated band.
  const RelationProfile profile =
      InferProfile(target_->elements(), ValidTimeKind::kEvent,
                   target_->schema().valid_granularity());
  EXPECT_GE(profile.event.min_offset_us, -30 * kMicrosPerSecond);
  EXPECT_LE(profile.event.max_offset_us, -10 * kMicrosPerSecond);
}

TEST_F(ReplicatorTest, DeletesPropagateWithCausality) {
  std::vector<ElementSurrogate> ids;
  for (int i = 0; i < 20; ++i) {
    const TimePoint now = src_clock_->Peek();
    ASSERT_OK_AND_ASSIGN(
        ElementSurrogate id,
        source_->InsertEvent(1, now, Tuple{int64_t{1}, 1.0 * i}));
    ids.push_back(id);
  }
  // Delete a few shortly after insert — the 10..30s replication delays could
  // reorder insert/delete without the causality guard.
  ASSERT_OK(source_->LogicalDelete(ids[3]));
  ASSERT_OK(source_->LogicalDelete(ids[7]));

  Replicator replicator(source_.get(), target_.get(), dst_clock_.get(),
                        Duration::Seconds(10), Duration::Seconds(30));
  ASSERT_OK(replicator.Sync());
  EXPECT_EQ(QueryExecutor(*target_).CurrentSet().size(), 18u);
  ASSERT_OK_AND_ASSIGN(ElementSurrogate t3, replicator.TargetOf(ids[3]));
  ASSERT_OK_AND_ASSIGN(Element dead, target_->GetElement(t3));
  EXPECT_FALSE(dead.IsCurrent());
  EXPECT_GT(dead.tt_end, dead.tt_begin);
}

TEST_F(ReplicatorTest, IncrementalSync) {
  ASSERT_OK(source_->InsertEvent(1, src_clock_->Peek(), Tuple{int64_t{1}, 1.0})
                .status());
  Replicator replicator(source_.get(), target_.get(), dst_clock_.get(),
                        Duration::Seconds(10), Duration::Seconds(30));
  ASSERT_OK(replicator.Sync());
  EXPECT_EQ(target_->size(), 1u);
  ASSERT_OK(source_->InsertEvent(2, src_clock_->Peek(), Tuple{int64_t{2}, 2.0})
                .status());
  ASSERT_OK(replicator.Sync());
  EXPECT_EQ(target_->size(), 2u);
  EXPECT_TRUE(replicator.TargetOf(999).status().IsNotFound());
}

}  // namespace
}  // namespace tempspec
