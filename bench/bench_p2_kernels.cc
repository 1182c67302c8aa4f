// P2 — Branch-free columnar scan kernels vs row-at-a-time execution.
//
// The tentpole claim: per-pane specialized kernels over the relation's
// columnar StampStore beat the generic row-at-a-time Element walk by >= 2x
// on large event streams (the acceptance gate for the degenerate and
// nondecreasing panes at 1M events). Four pane relations, each declaring
// exactly one Figure-1 specialization family:
//
//   degenerate    vt = tt                 -> rollback equivalence +
//                                            degenerate_columnar
//   nondecreasing vt sorted by insertion  -> monotone binary search +
//                                            monotone_columnar
//   bounded       vt in [tt - 60s, tt]    -> transaction window +
//                                            banded_columnar
//   general       unrestricted offsets    -> (forced plans only; the planner
//                                            picks the index probe here)
//
// Per pane, three executions of the same 1/16-domain valid-range query:
//   *_RowAtATime     — full scan, per-row Element predicate (the baseline
//                      the ISSUE's "generic row-at-a-time" names);
//   *_GenericKernel  — full scan, generic two-half-plane columnar kernel
//                      (isolates columnar layout + branch-free evaluation);
//   *_Specialized    — the optimizer's plan (strategy + pane kernel:
//                      adds the candidate-range narrowing on top).
//
// Plus the bitmap-consuming morsel path (parallel generic kernel) and a
// non-timing parity benchmark asserting specialized == row-at-a-time
// position sets, so the speedups compare equal results.
//
// Stream size: TEMPSPEC_P2_EVENTS (default 1<<20). CI runs 65536 for the
// JSON-schema smoke; the checked-in BENCH_p2_kernels.json is the 1M run.
#include <cstdlib>

#include "bench_common.h"
#include "util/thread_pool.h"

using namespace tempspec;
using tempspec::bench::FullScanPlan;
using tempspec::bench::ReportQueryStats;
using tempspec::bench::Require;

namespace {

int64_t EventCount() {
  static const int64_t n = [] {
    const char* env = std::getenv("TEMPSPEC_P2_EVENTS");
    const int64_t parsed = env != nullptr ? std::atoll(env) : 0;
    return parsed > 0 ? parsed : int64_t{1} << 20;  // 1M default
  }();
  return n;
}

/// \brief A full-scan plan that runs a columnar kernel over all positions
/// (same candidates as FullScanPlan(); only the scan loop differs).
PlanChoice FullScanWith(ScanKernel kernel) {
  return PlanChoice{ExecutionStrategy::kFullScan, TimeInterval::All(), "",
                    kernel};
}

enum class Pane { kDegenerate, kNonDecreasing, kBounded, kGeneral };

struct PaneRelation {
  std::shared_ptr<LogicalClock> clock;
  std::unique_ptr<TemporalRelation> relation;
  TimePoint vt_min = TimePoint::Max();
  TimePoint vt_max = TimePoint::Min();
};

const Duration kBoundDelta = Duration::Seconds(60);

PaneRelation* BuildPane(Pane pane) {
  auto* out = new PaneRelation();
  out->clock = std::make_shared<LogicalClock>(TimePoint::FromSeconds(200),
                                              Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Schema::Make("p2",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"v", ValueType::kDouble,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();
  options.clock = out->clock;
  switch (pane) {
    case Pane::kDegenerate:
      options.specializations.AddEvent(EventSpecialization::Degenerate());
      break;
    case Pane::kNonDecreasing:
      options.specializations.AddOrdering(
          OrderingSpec(OrderingKind::kNonDecreasing));
      break;
    case Pane::kBounded:
      options.specializations.AddEvent(Require(
          EventSpecialization::StronglyRetroactivelyBounded(kBoundDelta)));
      break;
    case Pane::kGeneral:
      break;
  }
  out->relation = TemporalRelation::Open(std::move(options)).ValueOrDie();

  Random rng(2026);
  const int64_t n = EventCount();
  for (int64_t i = 0; i < n; ++i) {
    const TimePoint tt = out->clock->Peek();
    TimePoint vt = tt;
    switch (pane) {
      case Pane::kDegenerate:
      case Pane::kNonDecreasing:
        vt = tt;  // degenerate streams are also non-decreasing
        break;
      case Pane::kBounded:
        vt = tt - Duration::Seconds(rng.Uniform(0, 60));
        break;
      case Pane::kGeneral:
        vt = tt + Duration::Seconds(rng.Uniform(-120, 120));
        break;
    }
    Require(out->relation
                ->InsertEvent(i % 64, vt, Tuple{int64_t{i % 64}, 0.5})
                .status());
    if (vt < out->vt_min) out->vt_min = vt;
    if (out->vt_max < vt) out->vt_max = vt;
  }
  return out;
}

PaneRelation& For(Pane pane) {
  static PaneRelation* degenerate = BuildPane(Pane::kDegenerate);
  static PaneRelation* nondecreasing = BuildPane(Pane::kNonDecreasing);
  static PaneRelation* bounded = BuildPane(Pane::kBounded);
  static PaneRelation* general = BuildPane(Pane::kGeneral);
  switch (pane) {
    case Pane::kDegenerate: return *degenerate;
    case Pane::kNonDecreasing: return *nondecreasing;
    case Pane::kBounded: return *bounded;
    case Pane::kGeneral: return *general;
  }
  return *general;
}

/// \brief A ~1/16th slice of the pane's valid domain, varying per call.
TimeInterval QueryWindow(const PaneRelation& pr, Random& rng) {
  const int64_t span = pr.vt_max.micros() - pr.vt_min.micros();
  const int64_t width = span / 16;
  const int64_t lo = pr.vt_min.micros() + rng.Uniform(0, span - width);
  return TimeInterval(TimePoint::FromMicros(lo),
                      TimePoint::FromMicros(lo + width));
}

/// \brief Times `plan` (or, with `planned` set, the optimizer's plan) on
/// 1/16-domain valid-range queries over `pane`, serial execution.
void RunPane(benchmark::State& state, Pane pane, const PlanChoice& plan,
             bool planned, ThreadPool* pool = nullptr) {
  PaneRelation& pr = For(pane);
  ExecutorOptions options;
  options.pool = pool;
  QueryExecutor exec(*pr.relation, options);
  Random rng(61);
  QueryStats stats;
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(pr, rng);
    const PlanChoice chosen =
        planned ? exec.optimizer().PlanValidRange(w.begin(), w.end()) : plan;
    ResultSet set =
        exec.Execute(TemporalQuery::ValidRange(w.begin(), w.end()), &stats,
                     &chosen);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
  // Scan throughput: every benchmark answers the same logical query over the
  // same N-event stream, so items/s compares kernels AND strategies.
  state.SetItemsProcessed(state.iterations() * EventCount());
}

#define PANE_BENCHES(Name, PANE)                                            \
  void BM_P2_##Name##_RowAtATime(benchmark::State& state) {                 \
    RunPane(state, PANE, FullScanPlan(), /*planned=*/false);                \
  }                                                                         \
  void BM_P2_##Name##_GenericKernel(benchmark::State& state) {              \
    RunPane(state, PANE, FullScanWith(ScanKernel::kGeneric),                \
            /*planned=*/false);                                             \
  }                                                                         \
  void BM_P2_##Name##_Specialized(benchmark::State& state) {                \
    RunPane(state, PANE, PlanChoice{}, /*planned=*/true);                   \
  }                                                                         \
  BENCHMARK(BM_P2_##Name##_RowAtATime);                                     \
  BENCHMARK(BM_P2_##Name##_GenericKernel);                                  \
  BENCHMARK(BM_P2_##Name##_Specialized)

PANE_BENCHES(Degenerate, Pane::kDegenerate);
PANE_BENCHES(NonDecreasing, Pane::kNonDecreasing);
PANE_BENCHES(Bounded, Pane::kBounded);
PANE_BENCHES(General, Pane::kGeneral);

#undef PANE_BENCHES

// The bitmap-consuming morsel path: generic kernel full scan fanned out over
// the pool, each morsel draining its selection bitmap into a private buffer.
void BM_P2_General_GenericKernel_Parallel(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  RunPane(state, Pane::kGeneral, FullScanWith(ScanKernel::kGeneric),
          /*planned=*/false, &pool);
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(pool.size()));
}
BENCHMARK(BM_P2_General_GenericKernel_Parallel)->Arg(2)->Arg(4)->Arg(0);

// Existence kernel vs the row walk it replaced (current-state query).
void BM_P2_Existence_Current(benchmark::State& state) {
  PaneRelation& pr = For(Pane::kGeneral);
  QueryExecutor exec(*pr.relation, ExecutorOptions{.pool = nullptr});
  QueryStats stats;
  for (auto _ : state) {
    ResultSet set = exec.Execute(TemporalQuery::Current(), &stats);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
  state.SetItemsProcessed(state.iterations() * EventCount());
}
BENCHMARK(BM_P2_Existence_Current);

// Not a timing benchmark: asserts that on every pane the specialized plan,
// the generic kernel, and the row-at-a-time baseline return byte-identical
// position sets, so the speedups above are comparing equal results.
void BM_P2_KernelParity(benchmark::State& state) {
  constexpr Pane kPanes[] = {Pane::kDegenerate, Pane::kNonDecreasing,
                             Pane::kBounded, Pane::kGeneral};
  ThreadPool pool(4);
  Random rng(67);
  for (auto _ : state) {
    for (Pane pane : kPanes) {
      PaneRelation& pr = For(pane);
      QueryExecutor serial(*pr.relation, ExecutorOptions{.pool = nullptr});
      QueryExecutor parallel(*pr.relation, ExecutorOptions{.pool = &pool});
      const TimeInterval w = QueryWindow(pr, rng);
      const TemporalQuery q = TemporalQuery::ValidRange(w.begin(), w.end());
      const PlanChoice generic_plan = FullScanWith(ScanKernel::kGeneric);
      const ResultSet row = serial.Execute(q, nullptr, &FullScanPlan());
      const ResultSet generic = serial.Execute(q, nullptr, &generic_plan);
      const ResultSet specialized = serial.Execute(q);
      const ResultSet par = parallel.Execute(q, nullptr, &generic_plan);
      if (generic.positions() != row.positions()) {
        state.SkipWithError("generic kernel diverged from row-at-a-time");
        return;
      }
      if (specialized.positions() != row.positions()) {
        state.SkipWithError("specialized kernel diverged from row-at-a-time");
        return;
      }
      if (par.positions() != row.positions()) {
        state.SkipWithError("parallel bitmap path diverged from serial");
        return;
      }
      benchmark::DoNotOptimize(par.size());
    }
  }
}
BENCHMARK(BM_P2_KernelParity)->Iterations(3);

}  // namespace

TEMPSPEC_BENCH_MAIN("p2_kernels");
