// E4 — Bounded types narrow the transaction-time window a timeslice must
// inspect (Section 3.1's bounded family).
//
// Fixed relation size; the declared bound Δt sweeps from 1 minute to 1 day.
// The specialized strategy scans only tt in [vt+Δt_min, vt+Δt_max]; expect
// query cost to grow with Δt and to cross over toward the full scan as the
// band covers the whole relation.
#include "bench_common.h"

using namespace tempspec;
using tempspec::bench::FullScanPlan;
using tempspec::bench::Require;

namespace {

constexpr int64_t kElements = 32768;

ScenarioRelation MakeBounded(Duration max_delay) {
  ScenarioRelation out;
  out.clock = std::make_shared<LogicalClock>(TimePoint::FromSeconds(0),
                                             Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Require(Schema::Make("sampled",
                           {AttributeDef{"src", ValueType::kInt64,
                                         AttributeRole::kTimeInvariantKey}},
                           ValidTimeKind::kEvent, Granularity::Second()));
  options.specializations.AddEvent(
      Require(EventSpecialization::RetroactivelyBounded(max_delay)));
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  options.clock = out.clock;
  out.relation = Require(TemporalRelation::Open(std::move(options)));

  Random rng(13);
  const int64_t max_us = max_delay.micros();
  for (int64_t i = 0; i < kElements; ++i) {
    out.clock->SetTo(TimePoint::FromSeconds(i * 30));
    const TimePoint tt = out.clock->Peek();
    const int64_t delay = rng.Uniform(0, max_us - kMicrosPerSecond);
    Require(out.relation
                ->InsertEvent(i % 16, tt - Duration::Micros(delay),
                              Tuple{int64_t{i % 16}})
                .status());
  }
  return out;
}

void BM_Timeslice_BoundSweep(benchmark::State& state) {
  const Duration bound = Duration::Minutes(state.range(0));
  ScenarioRelation scenario = MakeBounded(bound);
  QueryExecutor exec(*scenario.relation);
  QueryStats stats;
  size_t i = 0;
  for (auto _ : state) {
    const Element& probe = scenario->elements()[(i * 199) % scenario->size()];
    ++i;
    auto result =
        exec.Execute(TemporalQuery::Timeslice(probe.valid.at()), &stats)
            .Materialize();
    benchmark::DoNotOptimize(result);
  }
  state.counters["bound_minutes"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["elements_examined_per_query"] = benchmark::Counter(
      static_cast<double>(stats.elements_examined) / state.iterations());
}

void BM_Timeslice_BoundSweep_ScanBaseline(benchmark::State& state) {
  ScenarioRelation scenario = MakeBounded(Duration::Minutes(state.range(0)));
  QueryExecutor exec(*scenario.relation);
  QueryStats stats;
  size_t i = 0;
  for (auto _ : state) {
    const Element& probe = scenario->elements()[(i * 199) % scenario->size()];
    ++i;
    auto result = exec.Execute(TemporalQuery::Timeslice(probe.valid.at()),
                               &stats, &FullScanPlan())
                      .Materialize();
    benchmark::DoNotOptimize(result);
  }
  state.counters["elements_examined_per_query"] = benchmark::Counter(
      static_cast<double>(stats.elements_examined) / state.iterations());
}

}  // namespace

// Δt = 1 min .. 1 day (1440 min); elements arrive every 30s.
BENCHMARK(BM_Timeslice_BoundSweep)->Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1440);
BENCHMARK(BM_Timeslice_BoundSweep_ScanBaseline)->Arg(1)->Arg(1440);

TEMPSPEC_BENCH_MAIN("e4_bounded");
