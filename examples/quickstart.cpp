// Quickstart: declare a specialized temporal relation, store facts, run the
// three temporal query classes, and see a constraint rejection.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "catalog/catalog.h"
#include "query/executor.h"
#include "timex/calendar.h"
#include "workload/workloads.h"

using namespace tempspec;

int main() {
  // -- 1. Design: an event relation for chemical-plant temperature samples.
  //
  // Sensor readings reach the database 30..120 seconds after they are taken
  // (transmission delay), so the relation is *delayed retroactive* with a
  // 30s bound and *retroactively bounded* with a 120s bound (Section 3.1 of
  // Jensen & Snodgrass, "Temporal Specialization", ICDE 1992).
  auto schema =
      Schema::Make("plant_temperatures",
                   {AttributeDef{"sensor", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"celsius", ValueType::kDouble,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();

  SpecializationSet specs;
  specs.AddEvent(
      EventSpecialization::DelayedRetroactive(Duration::Seconds(30)).ValueOrDie());
  specs.AddEvent(
      EventSpecialization::RetroactivelyBounded(Duration::Seconds(120)).ValueOrDie());

  Catalog catalog;
  RelationOptions options;
  options.schema = schema;
  options.specializations = specs;
  auto clock = std::make_shared<LogicalClock>(
      FromCivil(CivilDateTime{1992, 2, 3, 8, 0, 0, 0}), Duration::Seconds(15));
  options.clock = clock;
  TemporalRelation* plant = catalog.CreateRelation(std::move(options)).ValueOrDie();

  std::cout << "Declared specializations:\n" << specs.ToString() << "\n";

  // -- 2. Store measurements: each is valid ~60s before it is stored.
  for (int i = 0; i < 8; ++i) {
    const TimePoint now = clock->Peek();
    const TimePoint measured_at = now - Duration::Seconds(60);
    plant->InsertEvent(/*sensor=*/1, measured_at, Tuple{int64_t{1}, 20.0 + i})
        .ValueOrDie();
  }

  // -- 3. The constraint engine enforces the declaration intensionally.
  const TimePoint too_fresh = clock->Peek() - Duration::Seconds(5);
  auto rejected = plant->InsertEvent(1, too_fresh, Tuple{int64_t{1}, 99.0});
  std::cout << "Inserting a 5s-old reading (minimum delay is 30s):\n  "
            << rejected.status().ToString() << "\n\n";

  // -- 4. The three query classes of Section 1.
  QueryExecutor exec(*plant);

  std::cout << "Current query: "
            << exec.Execute(TemporalQuery::Current()).size()
            << " facts currently believed.\n";

  const Element& third = plant->elements()[2];
  QueryStats stats;
  const TemporalQuery timeslice = TemporalQuery::Timeslice(third.valid.at());
  const PlanChoice plan = exec.Plan(timeslice);
  auto slice = exec.Execute(timeslice, &stats, &plan).Materialize();
  std::cout << "Historical query (timeslice at " << third.valid.at().ToString()
            << "): " << slice.size() << " fact(s), strategy = "
            << ExecutionStrategyToString(plan.strategy) << ",\n  examined "
            << stats.elements_examined << " of " << plant->size()
            << " elements because: " << plan.rationale << "\n";

  auto past =
      exec.Execute(TemporalQuery::Rollback(third.tt_begin)).Materialize();
  std::cout << "Rollback query (state as stored at " << third.tt_begin.ToString()
            << "): " << past.size() << " fact(s).\n\n";

  // -- 5. Design-time advice derived from the declaration.
  std::cout << catalog.AdviseFor("plant_temperatures").ValueOrDie().ToString();
  return 0;
}
