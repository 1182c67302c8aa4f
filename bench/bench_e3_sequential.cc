// E3 — "In globally sequential relations ... valid time can be approximated
// with transaction time, yielding an append-only relation that can support
// historical (as well as transaction time) queries" (Section 3.2).
//
// Historical (valid-time) queries on a sequential relation: the declared
// ordering makes the element array itself sorted by valid time, so binary
// search replaces the scan / index probe. Sweeps relation size.
#include "bench_common.h"

using namespace tempspec;
using tempspec::bench::FullScanPlan;
using tempspec::bench::Require;

namespace {

// A sequential relation: every event occurs and is stored before the next
// occurs or is stored (interleaved tt/vt frontier).
ScenarioRelation MakeSequential(int64_t total) {
  ScenarioRelation out;
  out.clock = std::make_shared<LogicalClock>(TimePoint::FromSeconds(0),
                                             Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Require(Schema::Make("audit_log",
                           {AttributeDef{"actor", ValueType::kInt64,
                                         AttributeRole::kTimeInvariantKey}},
                           ValidTimeKind::kEvent, Granularity::Second()));
  options.specializations.AddOrdering(OrderingSpec(OrderingKind::kSequential));
  options.clock = out.clock;
  out.relation = Require(TemporalRelation::Open(std::move(options)));
  Random rng(7);
  int64_t frontier = 0;
  for (int64_t i = 0; i < total; ++i) {
    const int64_t vt = frontier + rng.Uniform(1, 3);
    const int64_t tt = vt + rng.Uniform(0, 2);  // stored right after occurring
    frontier = tt;
    out.clock->SetTo(TimePoint::FromSeconds(tt));
    Require(out.relation
                ->InsertEvent(i % 8, TimePoint::FromSeconds(vt),
                              Tuple{int64_t{i % 8}})
                .status());
  }
  return out;
}

void RunHistoricalQueries(benchmark::State& state, bool use_specialization) {
  ScenarioRelation scenario = MakeSequential(state.range(0));
  QueryExecutor exec(*scenario.relation);
  // Valid-time range queries of fixed 64-second width.
  std::vector<TimePoint> probes;
  for (size_t i = 5; i < scenario->size(); i += 71) {
    probes.push_back(scenario->elements()[i].valid.at());
  }
  QueryStats stats;
  size_t probe = 0;
  for (auto _ : state) {
    const TimePoint lo = probes[probe++ % probes.size()];
    const TimePoint hi = lo + Duration::Seconds(64);
    auto result =
        exec.Execute(TemporalQuery::ValidRange(lo, hi), &stats,
                     use_specialization ? nullptr : &FullScanPlan())
            .Materialize();
    benchmark::DoNotOptimize(result);
  }
  state.counters["elements_examined_per_query"] = benchmark::Counter(
      static_cast<double>(stats.elements_examined) / state.iterations());
}

void BM_Historical_Sequential_FullScan(benchmark::State& state) {
  RunHistoricalQueries(state, /*use_specialization=*/false);
}
void BM_Historical_Sequential_BinarySearch(benchmark::State& state) {
  RunHistoricalQueries(state, /*use_specialization=*/true);
}

}  // namespace

BENCHMARK(BM_Historical_Sequential_FullScan)->Range(1024, 65536);
BENCHMARK(BM_Historical_Sequential_BinarySearch)->Range(1024, 65536);

TEMPSPEC_BENCH_MAIN("e3_sequential");
