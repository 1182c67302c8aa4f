// Model-based randomized testing: a TemporalRelation (in memory, and with
// durable storage across reopens) is driven with random insert/delete/modify/query
// sequences and compared, after every operation, against a trivially
// correct in-memory reference model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>

#include "query/executor.h"
#include "relation/temporal_relation.h"
#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

// The reference: a flat list of (element, lifetime) facts with scan-based
// queries. Obviously correct, obviously slow.
class ReferenceModel {
 public:
  struct Fact {
    ElementSurrogate id;
    ObjectSurrogate object;
    int64_t tt_begin;
    int64_t tt_end;  // INT64_MAX = current
    int64_t vt;
  };

  void Insert(ElementSurrogate id, ObjectSurrogate object, int64_t tt, int64_t vt) {
    facts_.push_back(Fact{id, object, tt, INT64_MAX, vt});
  }
  void Delete(ElementSurrogate id, int64_t tt) {
    for (auto& f : facts_) {
      if (f.id == id) f.tt_end = tt;
    }
  }
  std::set<ElementSurrogate> StateIdsAt(int64_t tt) const {
    std::set<ElementSurrogate> out;
    for (const auto& f : facts_) {
      if (f.tt_begin <= tt && tt < f.tt_end) out.insert(f.id);
    }
    return out;
  }
  size_t CurrentSize() const {
    size_t n = 0;
    for (const auto& f : facts_) {
      if (f.tt_end == INT64_MAX) ++n;
    }
    return n;
  }
  size_t TimesliceSize(int64_t vt) const {
    size_t n = 0;
    for (const auto& f : facts_) {
      if (f.tt_end == INT64_MAX && f.vt == vt) ++n;
    }
    return n;
  }
  size_t RangeSize(int64_t lo, int64_t hi) const {
    size_t n = 0;
    for (const auto& f : facts_) {
      if (f.tt_end == INT64_MAX && lo <= f.vt && f.vt < hi) ++n;
    }
    return n;
  }
  std::vector<ElementSurrogate> CurrentIds() const {
    std::vector<ElementSurrogate> out;
    for (const auto& f : facts_) {
      if (f.tt_end == INT64_MAX) out.push_back(f.id);
    }
    return out;
  }

 private:
  std::vector<Fact> facts_;
};

class FuzzFixture {
 public:
  explicit FuzzFixture(uint64_t seed, bool durable) : rng_(seed) {
    if (durable) {
      dir_ = std::filesystem::temp_directory_path() /
             ("tempspec_fuzz_" + std::to_string(::getpid()) + "_" +
              std::to_string(seed));
      std::filesystem::create_directories(dir_);
    }
    Open();
  }
  ~FuzzFixture() {
    relation_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  void Open() {
    RelationOptions options;
    options.schema =
        Schema::Make("fuzz",
                     {AttributeDef{"k", ValueType::kInt64,
                                   AttributeRole::kTimeInvariantKey}},
                     ValidTimeKind::kEvent, Granularity::Second())
            .ValueOrDie();
    clock_ = std::make_shared<LogicalClock>(T(next_tt_), Duration::Seconds(1));
    options.clock = clock_;
    if (!dir_.empty()) options.storage.directory = dir_.string();
    relation_ = TemporalRelation::Open(std::move(options)).ValueOrDie();
  }

  void Reopen() {
    relation_.reset();
    Open();
  }

  void Step() {
    const double dice = rng_.NextDouble();
    const auto current = reference_.CurrentIds();
    if (dice < 0.55 || current.empty()) {
      const int64_t tt = next_tt_++;
      const int64_t vt = rng_.Uniform(-100, 3000);
      clock_->SetTo(T(tt));
      const ObjectSurrogate object = rng_.Uniform(1, 8);
      auto id = relation_->InsertEvent(object, T(vt),
                                       Tuple{static_cast<int64_t>(object)});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      reference_.Insert(*id, object, tt, vt);
    } else if (dice < 0.75) {
      const ElementSurrogate victim =
          current[rng_.Uniform(0, current.size() - 1)];
      const int64_t tt = next_tt_++;
      clock_->SetTo(T(tt));
      ASSERT_OK(relation_->LogicalDelete(victim));
      reference_.Delete(victim, tt);
    } else if (dice < 0.85) {
      const ElementSurrogate victim =
          current[rng_.Uniform(0, current.size() - 1)];
      const int64_t tt = next_tt_++;
      const int64_t vt = rng_.Uniform(-100, 3000);
      clock_->SetTo(T(tt));
      const ObjectSurrogate object =
          relation_->GetElement(victim).ValueOrDie().object_surrogate;
      auto id = relation_->Modify(victim, ValidTime::Event(T(vt)),
                                  Tuple{static_cast<int64_t>(object)});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      reference_.Delete(victim, tt);
      reference_.Insert(*id, object, tt, vt);
    } else {
      CheckQueries();
    }
  }

  void CheckQueries() {
    QueryExecutor exec(*relation_);
    // Rollback at random past stamps: exactly the reference's elements.
    const int64_t tt = rng_.Uniform(0, next_tt_ + 10);
    const ResultSet rows = exec.Execute(TemporalQuery::Rollback(T(tt)));
    std::set<ElementSurrogate> rolled_back;
    for (const Element& e : rows) rolled_back.insert(e.element_surrogate);
    EXPECT_EQ(rolled_back, reference_.StateIdsAt(tt)) << "tt=" << tt;
    EXPECT_EQ(rows.size(), rolled_back.size()) << "duplicate rows at tt=" << tt;
    EXPECT_EQ(exec.Execute(TemporalQuery::Current()).size(),
              reference_.CurrentSize());
    // Timeslice and range queries (exercise the planner too).
    const int64_t vt = rng_.Uniform(-100, 3000);
    EXPECT_EQ(exec.Execute(TemporalQuery::Timeslice(T(vt))).size(),
              reference_.TimesliceSize(vt));
    const int64_t lo = rng_.Uniform(-100, 3000);
    const int64_t hi = lo + rng_.Uniform(1, 500);
    EXPECT_EQ(exec.Execute(TemporalQuery::ValidRange(T(lo), T(hi))).size(),
              reference_.RangeSize(lo, hi));
  }

  TemporalRelation* relation() { return relation_.get(); }
  ReferenceModel& reference() { return reference_; }
  Random& rng() { return rng_; }

 private:
  Random rng_;
  std::filesystem::path dir_;
  std::shared_ptr<LogicalClock> clock_;
  std::unique_ptr<TemporalRelation> relation_;
  ReferenceModel reference_;
  int64_t next_tt_ = 1000;
};

class RelationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelationFuzzTest, InMemoryAgainstReference) {
  FuzzFixture fixture(GetParam(), /*durable=*/false);
  for (int i = 0; i < 600; ++i) {
    fixture.Step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  fixture.CheckQueries();
}

TEST_P(RelationFuzzTest, DurableWithPeriodicReopen) {
  FuzzFixture fixture(GetParam() + 1000, /*durable=*/true);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 80; ++i) {
      fixture.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (round % 2 == 0) {
      ASSERT_OK(fixture.relation()->Checkpoint());
    }
    fixture.Reopen();  // crash-recover, then keep fuzzing
    fixture.CheckQueries();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tempspec
