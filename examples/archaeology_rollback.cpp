// Archaeology: a non-increasing interval relation, plus bitemporal
// corrections and rollback on a companion catalog.
//
// The paper's non-increasing example: "an archeological relation that
// records information about progressively earlier periods uncovered as
// excavation proceeds." Part 1 shows the dig log's inter-interval
// constraints at work (including why they forbid restating an old stratum —
// the intensional definitions quantify over the whole extension). Part 2
// keeps the finds catalog as a *general* bitemporal relation, corrects a
// mis-dated find with Modify, and audits both beliefs with rollback /
// as-of queries.
#include <iostream>

#include "query/executor.h"
#include "timex/calendar.h"
#include "workload/workloads.h"

using namespace tempspec;

int main() {
  // -- Part 1: the constrained dig log.
  WorkloadConfig config;
  config.num_objects = 4;      // excavation squares
  config.ops_per_object = 12;  // strata per square
  auto scenario = MakeArchaeology(config).ValueOrDie();
  GenerateArchaeology(config, &scenario).Check();
  TemporalRelation& dig = *scenario.relation;

  std::cout << "Dig log: " << dig.size() << " strata\n";
  std::cout << "Declared:\n" << dig.specializations().ToString() << "\n";

  // Excavation only moves backwards in time: a stratum dated later than the
  // last one is rejected.
  const Element& deepest = dig.elements()[dig.size() - 1];
  auto bad = dig.InsertInterval(
      1, deepest.valid.end() + Duration::Days(365),
      deepest.valid.end() + Duration::Days(2 * 365), Tuple{int64_t{1}, 3});
  std::cout << "Recording a stratum from a LATER period:\n  "
            << bad.status().ToString() << "\n";

  // Even re-stating an already-recorded stratum violates the chain: the
  // sti-meets property is intensional over the whole extension.
  const Element mid = dig.elements()[5];
  auto restate = dig.Modify(mid.element_surrogate, mid.valid,
                            Tuple{mid.attributes.at(0), int64_t{99}});
  std::cout << "Re-stating stratum " << mid.element_surrogate << ":\n  "
            << restate.status().ToString() << "\n\n";

  // -- Part 2: the finds catalog (general bitemporal relation) supports
  // corrections, and rollback audits them.
  RelationOptions options;
  options.schema =
      Schema::Make("finds",
                   {AttributeDef{"square", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"period", ValueType::kString,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kInterval, Granularity::Day())
          .ValueOrDie();
  auto clock = std::make_shared<LogicalClock>(
      FromCivil(CivilDateTime{1992, 2, 3, 0, 0, 0, 0}), Duration::Hours(1));
  options.clock = clock;
  auto finds = TemporalRelation::Open(std::move(options)).ValueOrDie();

  const TimePoint bronze_b = FromCivil(CivilDateTime{-1200, 1, 1, 0, 0, 0, 0});
  const TimePoint bronze_e = FromCivil(CivilDateTime{-800, 1, 1, 0, 0, 0, 0});
  const ElementSurrogate find_id =
      finds->InsertInterval(3, bronze_b, bronze_e, Tuple{int64_t{3}, "bronze age"})
          .ValueOrDie();
  finds->InsertInterval(1, bronze_e, FromCivil(CivilDateTime{-300, 1, 1, 0, 0, 0, 0}),
                        Tuple{int64_t{1}, "iron age"})
        .ValueOrDie();

  const TimePoint before_correction = finds->LastTransactionTime();

  // Radiocarbon results arrive: the find is 200 years younger than thought.
  const ElementSurrogate corrected =
      finds->Modify(find_id,
                    ValidTime::IntervalUnchecked(bronze_b + Duration::Years(200),
                                                 bronze_e + Duration::Years(200)),
                    Tuple{int64_t{3}, "late bronze age"})
          .ValueOrDie();

  QueryExecutor exec(*finds);
  std::cout << "Find #" << find_id << " corrected to element #" << corrected
            << " after radiocarbon dating.\n";
  auto believed_then =
      exec.Execute(TemporalQuery::Rollback(before_correction)).Materialize();
  auto believed_now = exec.Execute(TemporalQuery::Current()).Materialize();
  for (const Element& e : believed_then) {
    if (e.object_surrogate == 3) {
      std::cout << "  believed then: " << e.attributes.at(1).ToString() << " "
                << e.valid.ToString() << "\n";
    }
  }
  for (const Element& e : believed_now) {
    if (e.object_surrogate == 3) {
      std::cout << "  believed now:  " << e.attributes.at(1).ToString() << " "
                << e.valid.ToString() << "\n";
    }
  }
  std::cout << "Nothing was lost: " << finds->size()
            << " elements retained across " << believed_now.size()
            << " current facts.\n";
  return 0;
}
