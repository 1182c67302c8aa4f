// E6 — Non-decreasing relations answer valid-time range queries by binary
// search on the insertion order (Section 3.2's ordering family).
//
// Fixed-size non-decreasing relation; the query range width (selectivity)
// sweeps from a point query to 10% of the history. Compares binary search
// (declared ordering), the valid-time interval index, and the full scan.
#include "bench_common.h"

using namespace tempspec;
using tempspec::bench::FullScanPlan;
using tempspec::bench::Require;

namespace {

constexpr int64_t kElements = 32768;

ScenarioRelation MakeNonDecreasing() {
  ScenarioRelation out;
  out.clock = std::make_shared<LogicalClock>(TimePoint::FromSeconds(0),
                                             Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Require(Schema::Make("ordered_events",
                           {AttributeDef{"id", ValueType::kInt64,
                                         AttributeRole::kTimeInvariantKey}},
                           ValidTimeKind::kEvent, Granularity::Second()));
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  options.clock = out.clock;
  out.relation = Require(TemporalRelation::Open(std::move(options)));
  Random rng(23);
  int64_t vt = 0;
  for (int64_t i = 0; i < kElements; ++i) {
    vt += rng.Uniform(0, 4);
    Require(out.relation
                ->InsertEvent(i % 8, TimePoint::FromSeconds(vt),
                              Tuple{int64_t{i % 8}})
                .status());
  }
  return out;
}

void RunRangeQueries(benchmark::State& state, ExecutionStrategy strategy) {
  ScenarioRelation scenario = MakeNonDecreasing();
  QueryExecutor exec(*scenario.relation);
  const int64_t width_s = state.range(0);
  QueryStats stats;
  size_t i = 0;
  size_t results = 0;
  for (auto _ : state) {
    const TimePoint lo = scenario->elements()[(i * 211) % scenario->size()]
                             .valid.at();
    ++i;
    const TimePoint hi = lo + Duration::Seconds(width_s);
    PlanChoice plan;
    switch (strategy) {
      case ExecutionStrategy::kFullScan:
        plan = FullScanPlan();
        break;
      case ExecutionStrategy::kValidIndex:
        plan = PlanChoice{ExecutionStrategy::kValidIndex, TimeInterval::All(), ""};
        break;
      default:
        plan = exec.optimizer().PlanValidRange(lo, hi);
        break;
    }
    auto result = exec.Execute(TemporalQuery::ValidRange(lo, hi), &stats, &plan)
                      .Materialize();
    results += result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["range_seconds"] = benchmark::Counter(static_cast<double>(width_s));
  state.counters["results_per_query"] =
      benchmark::Counter(static_cast<double>(results) / state.iterations());
  state.counters["elements_examined_per_query"] = benchmark::Counter(
      static_cast<double>(stats.elements_examined) / state.iterations());
}

void BM_ValidRange_NonDecreasing_BinarySearch(benchmark::State& state) {
  RunRangeQueries(state, ExecutionStrategy::kMonotoneBinarySearch);
}
void BM_ValidRange_NonDecreasing_ValidIndex(benchmark::State& state) {
  RunRangeQueries(state, ExecutionStrategy::kValidIndex);
}
void BM_ValidRange_NonDecreasing_FullScan(benchmark::State& state) {
  RunRangeQueries(state, ExecutionStrategy::kFullScan);
}

}  // namespace

// Width 1s (point-ish) to ~6554s (~10% of the ~65536s history).
BENCHMARK(BM_ValidRange_NonDecreasing_BinarySearch)->Arg(1)->Arg(64)->Arg(1024)->Arg(6554);
BENCHMARK(BM_ValidRange_NonDecreasing_ValidIndex)->Arg(1)->Arg(64)->Arg(1024)->Arg(6554);
BENCHMARK(BM_ValidRange_NonDecreasing_FullScan)->Arg(1)->Arg(64)->Arg(1024)->Arg(6554);

TEMPSPEC_BENCH_MAIN("e6_nondecreasing");
