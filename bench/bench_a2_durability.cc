// A2 — Durability ablation: end-to-end ingest through the relation engine
// with (a) no storage (the backlog only counts operations), (b) WAL with
// OS-cache writes, (c) WAL with group fsync (every 64 appends), (d) WAL with
// fsync per append. Also measures checkpoint cost (reading the WAL tail back
// into pages) and recovery (open-with-replay) latency.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "util/failpoint.h"

using namespace tempspec;
using tempspec::bench::Require;

namespace {

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("tempspec_bench_dur_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static inline int counter = 0;
};

ScenarioRelation OpenIngestRelation(const std::string& dir, SyncMode mode) {
  ScenarioRelation out;
  out.clock = std::make_shared<LogicalClock>(TimePoint::FromSeconds(0),
                                             Duration::Seconds(1));
  RelationOptions options;
  options.schema =
      Require(Schema::Make("ingest",
                           {AttributeDef{"id", ValueType::kInt64,
                                         AttributeRole::kTimeInvariantKey},
                            AttributeDef{"v", ValueType::kDouble,
                                         AttributeRole::kTimeVarying}},
                           ValidTimeKind::kEvent, Granularity::Second()));
  options.specializations.AddEvent(EventSpecialization::Retroactive());
  options.clock = out.clock;
  options.storage.directory = dir;
  options.storage.sync_mode = mode;
  out.relation = Require(TemporalRelation::Open(std::move(options)));
  return out;
}

void RunIngest(benchmark::State& state, bool durable, SyncMode mode) {
  for (auto _ : state) {
    state.PauseTiming();
    TempDir dir;
    ScenarioRelation scenario =
        OpenIngestRelation(durable ? dir.path.string() : "", mode);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      const TimePoint tt = scenario.clock->Peek();
      Require(scenario->InsertEvent(i % 16, tt - Duration::Seconds(30),
                                    Tuple{int64_t{i % 16}, 1.0})
                  .status());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Ingest_InMemory(benchmark::State& state) {
  RunIngest(state, /*durable=*/false, SyncMode::kNone);
}
void BM_Ingest_WalNoSync(benchmark::State& state) {
  RunIngest(state, /*durable=*/true, SyncMode::kNone);
}
void BM_Ingest_WalGroupSync(benchmark::State& state) {
  RunIngest(state, /*durable=*/true, SyncMode::kEveryN);
}
void BM_Ingest_WalSyncAlways(benchmark::State& state) {
  RunIngest(state, /*durable=*/true, SyncMode::kAlways);
}

void BM_CheckpointCost(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TempDir dir;
    ScenarioRelation scenario = OpenIngestRelation(dir.path.string(), SyncMode::kNone);
    for (int64_t i = 0; i < state.range(0); ++i) {
      const TimePoint tt = scenario.clock->Peek();
      Require(scenario->InsertEvent(i % 16, tt - Duration::Seconds(30),
                                    Tuple{int64_t{i % 16}, 1.0})
                  .status());
    }
    state.ResumeTiming();
    Require(scenario->Checkpoint());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_RecoveryFromWal(benchmark::State& state) {
  TempDir dir;
  {
    ScenarioRelation scenario = OpenIngestRelation(dir.path.string(), SyncMode::kNone);
    for (int64_t i = 0; i < state.range(0); ++i) {
      const TimePoint tt = scenario.clock->Peek();
      Require(scenario->InsertEvent(i % 16, tt - Duration::Seconds(30),
                                    Tuple{int64_t{i % 16}, 1.0})
                  .status());
    }
  }
  for (auto _ : state) {
    ScenarioRelation scenario = OpenIngestRelation(dir.path.string(), SyncMode::kNone);
    benchmark::DoNotOptimize(scenario->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_RecoveryFromPages(benchmark::State& state) {
  TempDir dir;
  {
    ScenarioRelation scenario = OpenIngestRelation(dir.path.string(), SyncMode::kNone);
    for (int64_t i = 0; i < state.range(0); ++i) {
      const TimePoint tt = scenario.clock->Peek();
      Require(scenario->InsertEvent(i % 16, tt - Duration::Seconds(30),
                                    Tuple{int64_t{i % 16}, 1.0})
                  .status());
    }
    Require(scenario->Checkpoint());
  }
  for (auto _ : state) {
    ScenarioRelation scenario = OpenIngestRelation(dir.path.string(), SyncMode::kNone);
    benchmark::DoNotOptimize(scenario->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_Ingest_InMemory)->Arg(4096);
BENCHMARK(BM_Ingest_WalNoSync)->Arg(4096);
BENCHMARK(BM_Ingest_WalGroupSync)->Arg(4096);
BENCHMARK(BM_Ingest_WalSyncAlways)->Arg(512);  // fsync-bound: keep it short
BENCHMARK(BM_CheckpointCost)->Arg(4096);
BENCHMARK(BM_RecoveryFromWal)->Arg(8192);
BENCHMARK(BM_RecoveryFromPages)->Arg(8192);

int main(int argc, char** argv) {
  if (tempspec::FailpointsCompiledIn()) {
    std::fprintf(stderr,
                 "[bench_a2] WARNING: built with TEMPSPEC_FAILPOINTS=ON — the "
                 "storage IO paths carry fault-injection checks. Configure a "
                 "separate tree with -DTEMPSPEC_FAILPOINTS=OFF for clean "
                 "durability numbers.\n");
  }
  return tempspec::bench::BenchMain("a2_durability", argc, argv);
}
