// E9 — Rollback: naive backlog replay (the [JMRS90] representation of
// Section 2) vs the engine's rollback, a scan of the transaction-time prefix.
//
// One random insert/delete op stream is pushed through a TemporalRelation.
// The naive variant replays that stream as the relation's backlog holds it
// (OperationsOf its elements) up to each instant (MaterializeState); the
// engine variants answer the same instants with QueryExecutor::Execute of a
// TemporalQuery::Rollback: materialized rows, or the positions only.
// Relations are append-only and entered in time-stamp order (Section 3.1),
// so the rows stored by T are a prefix found by one binary search on the
// tt_start column.
#include "bench_common.h"

using namespace tempspec;
using tempspec::bench::Require;

namespace {

std::unique_ptr<TemporalRelation> MakeRelation(int64_t operations) {
  auto clock = std::make_shared<LogicalClock>();
  RelationOptions options;
  options.schema = Require(Schema::Make(
      "e9_rollback",
      {AttributeDef{"k", ValueType::kInt64, AttributeRole::kTimeInvariantKey}},
      ValidTimeKind::kEvent, Granularity::Second()));
  options.clock = clock;
  auto relation = Require(TemporalRelation::Open(std::move(options)));
  Random rng(17);
  std::vector<ElementSurrogate> alive;
  for (int64_t i = 0; i < operations; ++i) {
    const TimePoint tt = TimePoint::FromSeconds(i);
    clock->SetTo(tt);
    if (!alive.empty() && rng.OneIn(0.3)) {
      const size_t pick = static_cast<size_t>(rng.Uniform(0, alive.size() - 1));
      Require(relation->LogicalDelete(alive[pick]));
      alive.erase(alive.begin() + pick);
    } else {
      const int64_t key = i % 64;
      alive.push_back(Require(relation->InsertEvent(
          static_cast<ObjectSurrogate>(key + 1), tt - Duration::Seconds(30),
          Tuple{key})));
    }
  }
  return relation;
}

TimePoint RandomInstant(Random& rng, int64_t operations) {
  return TimePoint::FromSeconds(rng.Uniform(0, operations));
}

void BM_Rollback_NaiveReplay(benchmark::State& state) {
  auto relation = MakeRelation(state.range(0));
  const std::vector<BacklogEntry> ops = OperationsOf(relation->elements());
  Random rng(29);
  for (auto _ : state) {
    auto result = MaterializeState(ops, RandomInstant(rng, state.range(0)));
    benchmark::DoNotOptimize(result);
  }
}

void BM_Rollback_PrefixScan(benchmark::State& state) {
  // Materialized rows, copied out by the executor's pool.
  auto relation = MakeRelation(state.range(0));
  QueryExecutor exec(*relation);
  QueryStats stats;
  Random rng(29);
  for (auto _ : state) {
    auto result = exec.Execute(TemporalQuery::Rollback(
                                   RandomInstant(rng, state.range(0))),
                               &stats)
                      .Materialize(exec.options().pool);
    benchmark::DoNotOptimize(result);
  }
  tempspec::bench::ReportQueryStats(state, stats);
}

void BM_Rollback_PrefixScanPositions(benchmark::State& state) {
  // Zero-copy positions only: the scan itself, without materialization.
  auto relation = MakeRelation(state.range(0));
  QueryExecutor exec(*relation);
  QueryStats stats;
  Random rng(29);
  for (auto _ : state) {
    ResultSet result = exec.Execute(
        TemporalQuery::Rollback(RandomInstant(rng, state.range(0))), &stats);
    benchmark::DoNotOptimize(result.positions().data());
  }
  tempspec::bench::ReportQueryStats(state, stats);
}

}  // namespace

BENCHMARK(BM_Rollback_NaiveReplay)->Range(1024, 262144);
BENCHMARK(BM_Rollback_PrefixScan)->Range(1024, 262144);
BENCHMARK(BM_Rollback_PrefixScanPositions)->Range(1024, 262144);

TEMPSPEC_BENCH_MAIN("e9_rollback");
