// E2 — "a degenerate temporal relation can be advantageously treated as a
// rollback relation due to the fact that relations are append-only and
// elements are entered in time-stamp order" (Section 3.1).
//
// Timeslice latency on a degenerate sensor relation, three ways:
//   baseline  — full scan (no semantics exploited)
//   index     — valid-time interval index (general-relation machinery)
//   rollback  — the degenerate strategy: answer the timeslice as a rollback
//               on the append-only transaction order
// Sweeps the relation size; expect the rollback strategy to be flat while
// the scan grows linearly.
#include "bench_common.h"

using namespace tempspec;
using tempspec::bench::ConfigFor;
using tempspec::bench::FullScanPlan;
using tempspec::bench::Require;

namespace {

struct Fixture {
  ScenarioRelation scenario;
  std::vector<TimePoint> probes;
};

Fixture MakeFixture(int64_t total) {
  Fixture f;
  const WorkloadConfig config = ConfigFor(total);
  f.scenario = Require(MakeDegenerateMonitoring(config, Duration::Seconds(10)));
  Require(GenerateDegenerateMonitoring(config, Duration::Seconds(10),
                                       &f.scenario));
  for (size_t i = 17; i < f.scenario->size(); i += 97) {
    f.probes.push_back(f.scenario->elements()[i].valid.at());
  }
  return f;
}

void RunTimeslices(benchmark::State& state, ExecutionStrategy strategy) {
  Fixture f = MakeFixture(state.range(0));
  QueryExecutor exec(*f.scenario.relation);
  QueryStats stats;
  size_t probe = 0;
  size_t results = 0;
  for (auto _ : state) {
    PlanChoice plan;
    const TimePoint vt = f.probes[probe++ % f.probes.size()];
    switch (strategy) {
      case ExecutionStrategy::kFullScan:
        plan = FullScanPlan();
        break;
      case ExecutionStrategy::kValidIndex:
        plan = PlanChoice{ExecutionStrategy::kValidIndex, TimeInterval::All(), ""};
        break;
      default:
        plan = exec.optimizer().PlanTimeslice(vt);
        break;
    }
    auto result =
        exec.Execute(TemporalQuery::Timeslice(vt), &stats, &plan).Materialize();
    results += result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["elements_examined_per_query"] = benchmark::Counter(
      static_cast<double>(stats.elements_examined) / state.iterations());
  state.counters["results_per_query"] =
      benchmark::Counter(static_cast<double>(results) / state.iterations());
}

void BM_Timeslice_Degenerate_FullScan(benchmark::State& state) {
  RunTimeslices(state, ExecutionStrategy::kFullScan);
}
void BM_Timeslice_Degenerate_ValidIndex(benchmark::State& state) {
  RunTimeslices(state, ExecutionStrategy::kValidIndex);
}
void BM_Timeslice_Degenerate_RollbackEquivalence(benchmark::State& state) {
  RunTimeslices(state, ExecutionStrategy::kRollbackEquivalence);
}

}  // namespace

BENCHMARK(BM_Timeslice_Degenerate_FullScan)->Range(1024, 65536);
BENCHMARK(BM_Timeslice_Degenerate_ValidIndex)->Range(1024, 65536);
BENCHMARK(BM_Timeslice_Degenerate_RollbackEquivalence)->Range(1024, 65536);

TEMPSPEC_BENCH_MAIN("e2_degenerate");
