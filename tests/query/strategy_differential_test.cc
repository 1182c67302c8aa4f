// Differential test: optimizer-chosen plans vs the naive full scan, once per
// enumerated specialization.
//
// For every pane of Figure 1 this builds a relation declaring exactly that
// specialization, loads it with a seeded event history confined to the
// pane's band, and answers timeslice and valid-range queries four ways —
// with the plan the optimizer picks (a cost choice between its candidate
// range and a budgeted valid-index probe), with that range forced, with the
// probe forced, and with the always-available full scan. All four must
// return byte-identical position sets (the engine's
// strategy-interchangeability contract). The planned read pays at most
// twice the cheaper forced source: examined <= 2 * min(range rows, probe
// work). For the doubly-bounded panes, whose transaction-time window is a
// fixed-width slice of the history, it must examine strictly fewer rows
// than the full scan. As-of reads (rollback and timeslice AS OF) are
// checked against a hand-written ExistsAt walk; a rollback examines only
// rows stored by its instant, and a timeslice at most twice that.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "spec/enumeration.h"
#include "testing.h"
#include "testing_spec.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::SpecForKind;
using testing::T;

constexpr int64_t kEvents = 1500;
constexpr int kTrialsPerRegion = 8;

const Duration kDeltaSmall = Duration::Seconds(30);
const Duration kDeltaLarge = Duration::Seconds(90);

/// \brief Offset range (whole seconds) guaranteed inside the region's band;
/// unbounded sides are clamped to ±120s.
std::pair<int64_t, int64_t> OffsetRangeSeconds(const Band& band) {
  int64_t lo = -120, hi = 120;
  if (band.lower().has_value()) lo = band.lower()->offset.micros() / 1'000'000;
  if (band.upper().has_value()) hi = band.upper()->offset.micros() / 1'000'000;
  return {lo, hi};
}

struct RegionRelation {
  EnumeratedRegion region;
  std::shared_ptr<LogicalClock> clock;
  std::unique_ptr<TemporalRelation> relation;
  /// Transaction times shared by a Modify's deletion and insertion, with
  /// the inserted event's valid time.
  std::vector<std::pair<TimePoint, TimePoint>> modifies;
};

/// \brief Loads kEvents band-confined events, closing ~1/8 of them; with
/// `with_modifies`, ~1/16 of the survivors are also replaced by a Modify
/// (deletion + insertion at one transaction time).
RegionRelation BuildRelationFor(const EnumeratedRegion& region, uint64_t seed,
                                bool with_modifies = false) {
  RegionRelation out;
  out.region = region;
  out.clock = std::make_shared<LogicalClock>(T(0), Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Schema::Make("diff",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"v", ValueType::kDouble,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();
  options.clock = out.clock;
  auto spec = SpecForKind(region.kind, kDeltaSmall, kDeltaLarge);
  spec.status().Check();
  options.specializations.AddEvent(std::move(spec).ValueOrDie());
  out.relation = TemporalRelation::Open(std::move(options)).ValueOrDie();

  Random rng(seed);
  const auto [lo, hi] = OffsetRangeSeconds(region.band);
  for (int64_t i = 0; i < kEvents; ++i) {
    const TimePoint tt = out.clock->Peek();
    const TimePoint vt = tt + Duration::Seconds(rng.Uniform(lo, hi));
    auto surrogate =
        out.relation->InsertEvent(i % 32, vt, Tuple{int64_t{i % 32}, 0.5});
    surrogate.status().Check();
    // Close ~1/8 of existence intervals so every differential below also
    // exercises the kernels' existence predicate (tt_end < MAX rows must
    // drop out of current-belief scans identically on both paths).
    if (rng.Uniform(0, 7) == 0) {
      out.relation->LogicalDelete(surrogate.ValueOrDie()).Check();
    } else if (with_modifies && rng.Uniform(0, 15) == 0) {
      const TimePoint shared = out.clock->Peek();
      const TimePoint new_vt = shared + Duration::Seconds(rng.Uniform(lo, hi));
      out.relation
          ->Modify(surrogate.ValueOrDie(), ValidTime::Event(new_vt),
                   Tuple{int64_t{i % 32}, 0.25})
          .status()
          .Check();
      out.modifies.emplace_back(shared, new_vt);
    }
  }
  return out;
}

void ExpectSameResults(const ResultSet& specialized, const ResultSet& naive,
                       const std::string& what) {
  ASSERT_EQ(specialized.positions(), naive.positions()) << what;
}

/// \brief The planned plan's candidate range, run as a hand-built plan: the
/// window (or monotone range) itself, or the full scan for the general pane
/// whose range is the whole store.
PlanChoice ForcedRange(PlanChoice plan) {
  plan.choose_by_cost = false;
  if (plan.strategy == ExecutionStrategy::kValidIndex) {
    plan.strategy = ExecutionStrategy::kFullScan;
  }
  return plan;
}

const PlanChoice kForcedProbe{ExecutionStrategy::kValidIndex,
                              TimeInterval::All(), ""};

TEST(StrategyDifferentialTest, PlannedReadPaysAtMostTwiceTheCheaperSource) {
  const PlanChoice naive_plan{ExecutionStrategy::kFullScan, TimeInterval::All(),
                              ""};
  uint64_t seed = 42;
  for (const EnumeratedRegion& region :
       EnumerateEventRegions(kDeltaSmall, kDeltaLarge)) {
    SCOPED_TRACE(std::string(EventSpecKindToString(region.kind)) + " " +
                 region.band.ToString());
    RegionRelation rr = BuildRelationFor(region, seed++);
    QueryExecutor exec(*rr.relation, ExecutorOptions{.pool = nullptr});
    const bool doubly_bounded =
        region.band.lower().has_value() && region.band.upper().has_value();

    Random rng(seed * 977);
    const auto& elements = rr.relation->elements();
    for (int trial = 0; trial < kTrialsPerRegion; ++trial) {
      // Probe at a stamp that has matches, and around it.
      const Element& probe =
          elements[static_cast<size_t>(rng.Uniform(0, kEvents - 1))];
      const TimePoint vt =
          probe.valid.at() + Duration::Seconds(rng.Uniform(-2, 2));

      const TemporalQuery timeslice = TemporalQuery::Timeslice(vt);
      const PlanChoice plan = exec.Plan(timeslice);
      const std::string what = std::string("timeslice under ") +
                               ExecutionStrategyToString(plan.strategy);
      QueryStats specialized_stats, naive_stats, range_only, probe_only;
      TraceContext trace;
      QueryExecutor traced(*rr.relation,
                           ExecutorOptions{.pool = nullptr, .trace = &trace});
      const ResultSet specialized =
          traced.Execute(timeslice, &specialized_stats, &plan);
      const ResultSet naive =
          exec.Execute(timeslice, &naive_stats, &naive_plan);
      ExpectSameResults(specialized, naive, what);
      const PlanChoice forced_range = ForcedRange(plan);
      ExpectSameResults(exec.Execute(timeslice, &range_only, &forced_range),
                        naive, what + ", range forced");
      ExpectSameResults(exec.Execute(timeslice, &probe_only, &kForcedProbe),
                        naive, what + ", probe forced");
      EXPECT_EQ(naive_stats.elements_examined, static_cast<uint64_t>(kEvents));
      EXPECT_LE(specialized_stats.elements_examined,
                2 * std::min(range_only.elements_examined,
                             probe_only.elements_examined))
          << what;
      // The path that ran is the cheaper source — the probe iff its work
      // fits in the range's rows — and the span names it.
      const bool probe_cheaper =
          plan.choose_by_cost &&
          probe_only.elements_examined <= range_only.elements_examined;
      EXPECT_EQ(trace.attr("strategy"),
                probe_cheaper
                    ? "valid_index"
                    : ExecutionStrategyToToken(ForcedRange(plan).strategy))
          << what;
      if (probe_cheaper) {
        EXPECT_EQ(specialized_stats.elements_examined,
                  probe_only.elements_examined)
            << what;
      }
      if (doubly_bounded) {
        // A fixed-width transaction window over a uniform 1 op/s history
        // touches a small fraction of kEvents.
        EXPECT_LT(specialized_stats.elements_examined,
                  naive_stats.elements_examined)
            << ExecutionStrategyToString(plan.strategy);
      }

      // Valid-range probes: the same contract for the range planner.
      const TimePoint hi = vt + Duration::Seconds(rng.Uniform(1, 300));
      const TemporalQuery range = TemporalQuery::ValidRange(vt, hi);
      const PlanChoice range_plan = exec.Plan(range);
      const std::string range_what =
          std::string("valid-range under ") +
          ExecutionStrategyToString(range_plan.strategy);
      QueryStats range_stats, range_naive_stats, window_only, index_only;
      const ResultSet range_naive =
          exec.Execute(range, &range_naive_stats, &naive_plan);
      ExpectSameResults(exec.Execute(range, &range_stats, &range_plan),
                        range_naive, range_what);
      const PlanChoice forced_window = ForcedRange(range_plan);
      ExpectSameResults(exec.Execute(range, &window_only, &forced_window),
                        range_naive, range_what + ", range forced");
      ExpectSameResults(exec.Execute(range, &index_only, &kForcedProbe),
                        range_naive, range_what + ", probe forced");
      EXPECT_LE(range_stats.elements_examined,
                2 * std::min(window_only.elements_examined,
                             index_only.elements_examined))
          << range_what;
    }
  }
}

TEST(StrategyDifferentialTest, PlannerPicksTheBandStrategyWhenDeclared) {
  // Spot-check that the differential above is actually exercising distinct
  // strategies, not full scan against itself: every doubly-bounded pane must
  // plan a banded strategy, and the degenerate-free general pane must fall
  // back to the valid-time index.
  for (const EnumeratedRegion& region :
       EnumerateEventRegions(kDeltaSmall, kDeltaLarge)) {
    RegionRelation rr = BuildRelationFor(region, 7);
    QueryExecutor exec(*rr.relation, ExecutorOptions{.pool = nullptr});
    const PlanChoice plan = exec.optimizer().PlanTimeslice(T(600));
    SCOPED_TRACE(std::string(EventSpecKindToString(region.kind)) + " -> " +
                 ExecutionStrategyToString(plan.strategy));
    EXPECT_NE(plan.strategy, ExecutionStrategy::kFullScan);
    if (region.band.lower().has_value() && region.band.upper().has_value()) {
      EXPECT_TRUE(plan.strategy == ExecutionStrategy::kTransactionWindow ||
                  plan.strategy == ExecutionStrategy::kRollbackEquivalence)
          << ExecutionStrategyToString(plan.strategy);
    }
    if (region.kind == EventSpecKind::kGeneral) {
      EXPECT_EQ(plan.strategy, ExecutionStrategy::kValidIndex);
    }
  }
}

TEST(StrategyDifferentialTest, PlannerMapsEachPaneToItsKernel) {
  // The kernel is part of the plan contract: degenerate panes get the
  // single-column degenerate kernel, doubly-bounded panes the banded kernel
  // (event relations derive vt_end), unbounded-band panes fall through to
  // monotone/index like before, and the general pane keeps the row walk
  // (index probes are non-contiguous).
  for (const EnumeratedRegion& region :
       EnumerateEventRegions(kDeltaSmall, kDeltaLarge)) {
    RegionRelation rr = BuildRelationFor(region, 11);
    QueryExecutor exec(*rr.relation, ExecutorOptions{.pool = nullptr});
    const PlanChoice plan = exec.optimizer().PlanTimeslice(T(600));
    SCOPED_TRACE(std::string(EventSpecKindToString(region.kind)) + " -> " +
                 ScanKernelToToken(plan.kernel));
    switch (plan.strategy) {
      case ExecutionStrategy::kRollbackEquivalence:
        EXPECT_EQ(plan.kernel, ScanKernel::kDegenerate);
        break;
      case ExecutionStrategy::kTransactionWindow:
        EXPECT_EQ(plan.kernel, ScanKernel::kBanded);  // event relation
        break;
      case ExecutionStrategy::kMonotoneBinarySearch:
        EXPECT_EQ(plan.kernel, ScanKernel::kMonotone);
        break;
      case ExecutionStrategy::kValidIndex:
        EXPECT_EQ(plan.kernel, ScanKernel::kRowAtATime);
        break;
      case ExecutionStrategy::kFullScan:
        ADD_FAILURE() << "planner never plans a bare full scan";
        break;
    }
  }
}

TEST(StrategyDifferentialTest, EveryKernelMatchesTheRowWalkDifferentially) {
  // Forced-kernel differential: for every enumerated pane, run the same
  // randomized valid-range queries through (a) the row-at-a-time full scan,
  // (b) the generic columnar kernel on a full scan, and (c) the optimizer's
  // plan (pane kernel + narrowed candidates). All three must return
  // byte-identical position sets — including the ~1/8 logically deleted
  // rows, which exercise the existence half of each predicate. The planned
  // strategy also runs forced onto the row walk over the same candidates,
  // covering both bodies of the executor's one morsel driver. Current and
  // rollback views check the existence kernel the same way.
  const PlanChoice row_plan{ExecutionStrategy::kFullScan, TimeInterval::All(),
                            ""};
  PlanChoice generic_plan = row_plan;
  generic_plan.kernel = ScanKernel::kGeneric;

  uint64_t seed = 1789;
  for (const EnumeratedRegion& region :
       EnumerateEventRegions(kDeltaSmall, kDeltaLarge)) {
    SCOPED_TRACE(std::string(EventSpecKindToString(region.kind)) + " " +
                 region.band.ToString());
    RegionRelation rr = BuildRelationFor(region, seed++);
    QueryExecutor exec(*rr.relation, ExecutorOptions{.pool = nullptr});

    Random rng(seed * 131);
    const auto& elements = rr.relation->elements();
    for (int trial = 0; trial < kTrialsPerRegion; ++trial) {
      const Element& probe =
          elements[static_cast<size_t>(rng.Uniform(0, kEvents - 1))];
      const TimePoint lo =
          probe.valid.at() + Duration::Seconds(rng.Uniform(-30, 0));
      const TimePoint hi = lo + Duration::Seconds(rng.Uniform(1, 120));

      const TemporalQuery range = TemporalQuery::ValidRange(lo, hi);
      QueryStats ignored;
      const ResultSet row = exec.Execute(range, &ignored, &row_plan);
      const ResultSet generic = exec.Execute(range, &ignored, &generic_plan);
      const PlanChoice planned = exec.Plan(range);
      QueryStats kernel_stats;
      const ResultSet specialized =
          exec.Execute(range, &kernel_stats, &planned);
      PlanChoice planned_row = planned;
      planned_row.kernel = ScanKernel::kRowAtATime;
      QueryStats row_stats;
      const ResultSet planned_walk =
          exec.Execute(range, &row_stats, &planned_row);
      const std::string what =
          std::string("kernel ") + ScanKernelToToken(planned.kernel) +
          " under " + ExecutionStrategyToString(planned.strategy);
      ExpectSameResults(generic, row, "generic_columnar vs row walk");
      ExpectSameResults(specialized, row, what);
      ExpectSameResults(planned_walk, specialized, what + " vs its row walk");
      EXPECT_EQ(row_stats.elements_examined, kernel_stats.elements_examined)
          << what;
    }

    // Existence kernel: current and rollback queries run existence_columnar;
    // the naive comparison re-derives both from the Element walk.
    const ResultSet current = exec.Execute(TemporalQuery::Current());
    std::vector<uint64_t> naive_current;
    for (size_t i = 0; i < elements.size(); ++i) {
      if (elements[i].IsCurrent()) naive_current.push_back(i);
    }
    EXPECT_EQ(current.positions(), naive_current) << "existence_columnar";

    const TimePoint mid =
        TimePoint::FromMicros(rr.relation->LastTransactionTime().micros() / 2);
    const ResultSet rollback = exec.Execute(TemporalQuery::Rollback(mid));
    std::vector<uint64_t> naive_rollback;
    for (size_t i = 0; i < elements.size(); ++i) {
      if (elements[i].ExistsAt(mid)) naive_rollback.push_back(i);
    }
    EXPECT_EQ(rollback.positions(), naive_rollback)
        << "existence_columnar as-of";
  }
}

TEST(StrategyDifferentialTest, AsOfReadsScanOnlyTheStoredPrefix) {
  // As-of differential: transaction time is append-only, so the executor
  // cuts every as-of read to the positions stored by its instant. For every
  // pane — with deletions and Modify pairs in the history — the planned
  // as-of timeslice, the same query forced onto its range and onto the
  // valid-index probe, and the rollback must each return exactly the
  // positions a hand-written ExistsAt walk over the Elements finds (not a
  // full-scan plan: that is pruned too). The rollback examines no row
  // stored after the instant. A probe also pays for hits past the prefix
  // inside an index run it visits, so the timeslices examine at most twice
  // the stored rows, and the planned one at most twice its cheaper source.

  uint64_t seed = 2027;
  for (const EnumeratedRegion& region :
       EnumerateEventRegions(kDeltaSmall, kDeltaLarge)) {
    SCOPED_TRACE(std::string(EventSpecKindToString(region.kind)) + " " +
                 region.band.ToString());
    RegionRelation rr = BuildRelationFor(region, seed++, true);
    ASSERT_FALSE(rr.modifies.empty());
    QueryExecutor exec(*rr.relation, ExecutorOptions{.pool = nullptr});
    const auto& elements = rr.relation->elements();
    const auto& [shared_tt, shared_vt] = rr.modifies[rr.modifies.size() / 2];

    const struct {
      const char* name;
      TimePoint as_of;
    } instants[] = {
        {"before the first insert",
         elements.front().tt_begin - Duration::Seconds(1)},
        {"at a Modify-shared transaction time", shared_tt},
        {"mid-history",
         TimePoint::FromMicros(rr.relation->LastTransactionTime().micros() /
                               2)},
        {"after the last insert",
         elements.back().tt_begin + Duration::Seconds(1)},
        {"TimePoint::Max()", TimePoint::Max()},
    };
    Random rng(seed * 59);
    for (const auto& instant : instants) {
      SCOPED_TRACE(instant.name);
      const TimePoint as_of = instant.as_of;
      uint64_t stored = 0;
      std::vector<uint64_t> naive_rollback;
      for (size_t i = 0; i < elements.size(); ++i) {
        if (elements[i].tt_begin <= as_of) ++stored;
        if (elements[i].ExistsAt(as_of)) naive_rollback.push_back(i);
      }

      // Before the first insert `stored` is 0, so the bounds below demand
      // that nothing at all is examined.
      QueryStats rollback_stats;
      EXPECT_EQ(exec.Execute(TemporalQuery::Rollback(as_of), &rollback_stats)
                    .positions(),
                naive_rollback);
      EXPECT_LE(rollback_stats.elements_examined, stored);

      std::vector<TimePoint> vts = {shared_vt};
      for (int k = 0; k < 4; ++k) {
        vts.push_back(elements[static_cast<size_t>(rng.Uniform(
                                   0, static_cast<int64_t>(elements.size()) -
                                          1))]
                          .valid.at());
      }
      for (const TimePoint vt : vts) {
        std::vector<uint64_t> naive;
        for (size_t i = 0; i < elements.size(); ++i) {
          if (elements[i].ExistsAt(as_of) && elements[i].valid.at() == vt) {
            naive.push_back(i);
          }
        }
        const TemporalQuery as_of_slice = TemporalQuery::Timeslice(vt, as_of);
        const PlanChoice planned = exec.Plan(as_of_slice);
        const PlanChoice forced_range = ForcedRange(planned);
        QueryStats planned_stats, range_stats, index_stats;
        EXPECT_EQ(exec.Execute(as_of_slice, &planned_stats).positions(), naive)
            << ExecutionStrategyToString(planned.strategy);
        EXPECT_EQ(
            exec.Execute(as_of_slice, &range_stats, &forced_range).positions(),
            naive)
            << "forced range";
        EXPECT_EQ(
            exec.Execute(as_of_slice, &index_stats, &kForcedProbe).positions(),
            naive)
            << "forced valid_index";
        EXPECT_LE(planned_stats.elements_examined, 2 * stored)
            << ExecutionStrategyToString(planned.strategy);
        EXPECT_LE(planned_stats.elements_examined,
                  2 * std::min(range_stats.elements_examined,
                               index_stats.elements_examined))
            << ExecutionStrategyToString(planned.strategy);
        EXPECT_LE(range_stats.elements_examined, stored) << "forced range";
        EXPECT_LE(index_stats.elements_examined, 2 * stored)
            << "forced valid_index";
      }
    }
    // The Modify-shared instant really is shared: one element's existence
    // ends exactly where its replacement's begins.
    bool closed = false, opened = false;
    for (const Element& e : elements) {
      closed |= e.tt_end == shared_tt;
      opened |= e.tt_begin == shared_tt;
    }
    EXPECT_TRUE(closed && opened);
  }
}

}  // namespace
}  // namespace tempspec
