// Process monitoring end-to-end: a delayed-retroactive sensor relation with
// durable storage, crash recovery, and specialization-aware timeslices.
//
// This is the paper's flagship retroactive example: "the monitoring of
// temperatures during a chemical experiment ... measurements are recorded in
// the temporal relation after they are valid, due to transmission delays."
#include <filesystem>
#include <iostream>

#include "query/executor.h"
#include "spec/inference.h"
#include "workload/workloads.h"

using namespace tempspec;

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tempspec_monitoring_example")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  WorkloadConfig config;
  config.num_objects = 16;     // sensors
  config.ops_per_object = 240; // samples per sensor (4 hours at 1/min)
  config.storage_directory = dir;

  const Duration min_delay = Duration::Seconds(30);
  const Duration max_delay = Duration::Seconds(120);

  // -- Ingest with durability.
  {
    auto scenario =
        MakeProcessMonitoring(config, min_delay, max_delay, Duration::Minutes(1))
            .ValueOrDie();
    GenerateProcessMonitoring(config, min_delay, max_delay, Duration::Minutes(1),
                              &scenario)
        .Check();
    scenario->Checkpoint().Check();
    std::cout << "Ingested " << scenario->size() << " samples from "
              << config.num_objects << " sensors into " << dir << "\n";
    std::cout << "Backlog bytes: " << scenario->backlog().encoded_bytes() << "\n\n";
  }  // process "crashes" here: relation object destroyed

  // -- Recover and query.
  auto scenario =
      MakeProcessMonitoring(config, min_delay, max_delay, Duration::Minutes(1))
          .ValueOrDie();
  std::cout << "Recovered " << scenario->size()
            << " samples; revalidating the declared specializations: "
            << scenario->CheckExtension().ToString() << "\n\n";

  // What does the data itself say? (Design-time inference.)
  const RelationProfile profile =
      InferProfile(scenario->elements(), ValidTimeKind::kEvent,
                   scenario->schema().valid_granularity());
  std::cout << profile.Report() << "\n";

  // Specialization-aware timeslice vs. the naive baseline.
  QueryExecutor exec(*scenario.relation);
  const Element& probe = scenario->elements()[scenario->size() / 2];
  QueryStats fast_stats, slow_stats;
  const TemporalQuery query = TemporalQuery::Timeslice(probe.valid.at());
  const PlanChoice plan = exec.Plan(query);
  auto fast = exec.Execute(query, &fast_stats, &plan).Materialize();
  PlanChoice scan{ExecutionStrategy::kFullScan, TimeInterval::All(), ""};
  auto slow = exec.Execute(query, &slow_stats, &scan).Materialize();

  std::cout << "Timeslice at " << probe.valid.at().ToString() << ":\n";
  std::cout << "  optimized (" << ExecutionStrategyToString(plan.strategy)
            << "): " << fast.size() << " results, " << fast_stats.elements_examined
            << " elements examined\n";
  std::cout << "  naive scan: " << slow.size() << " results, "
            << slow_stats.elements_examined << " elements examined\n";
  std::cout << "  reduction: "
            << (slow_stats.elements_examined /
                std::max<uint64_t>(1, fast_stats.elements_examined))
            << "x fewer elements touched\n";

  std::filesystem::remove_all(dir);
  return 0;
}
