// Direct-deposit payroll: the paper's predictive example.
//
// "salary payments ... are recorded before the time the funds become
// accessible to employees, resulting in a predictive relation. ... The
// company wants the checks to be valid on the first of the month, but it
// wants also to make the tape to be sent to the bank as late as possible,
// generally at most one week before. In addition, the bank needs the tape at
// least three days in advance." — early strongly predictively bounded(3d, 7d).
#include <iostream>

#include "query/executor.h"
#include "timex/calendar.h"
#include "workload/workloads.h"

using namespace tempspec;

int main() {
  WorkloadConfig config;
  config.num_objects = 25;    // employees
  config.ops_per_object = 3;  // February through April 1992
  auto scenario = MakePayroll(config).ValueOrDie();
  GeneratePayroll(config, &scenario).Check();

  std::cout << "Payroll relation: " << scenario->size() << " deposits\n";
  std::cout << "Declared:\n" << scenario->specializations().ToString() << "\n";

  // The declared band makes a prediction queryable BEFORE it is valid: "what
  // deposits are scheduled to hit on April 1, 1992?" — asked in late March.
  const TimePoint apr1 = FromCivil(CivilDateTime{1992, 4, 1, 0, 0, 0, 0});
  const TimePoint may1 = FromCivil(CivilDateTime{1992, 5, 1, 0, 0, 0, 0});
  QueryExecutor exec(*scenario.relation);
  QueryStats stats;
  const TemporalQuery on_apr1 = TemporalQuery::Timeslice(apr1);
  const PlanChoice plan = exec.Plan(on_apr1);
  auto scheduled = exec.Execute(on_apr1, &stats, &plan).Materialize();
  std::cout << "Deposits valid on " << apr1.ToString() << ": "
            << scheduled.size() << "\n";
  std::cout << "  strategy: " << ExecutionStrategyToString(plan.strategy) << "\n";
  std::cout << "  tt window: " << plan.tt_window.ToString() << "\n";
  std::cout << "  elements examined: " << stats.elements_examined << " of "
            << scenario->size() << "\n\n";

  // The band also rejects operational mistakes: a tape cut ten days early.
  auto clock = scenario.clock;
  clock->SetTo(may1 - Duration::Days(10));
  auto too_early =
      scenario->InsertEvent(1, may1, Tuple{int64_t{1}, 3100.0});
  std::cout << "Cutting the May tape 10 days early:\n  "
            << too_early.status().ToString() << "\n";

  // A tape cut five days ahead is accepted. (The transaction clock only
  // moves forward, so the demo proceeds in transaction-time order.)
  clock->SetTo(may1 - Duration::Days(5));
  auto ok = scenario->InsertEvent(3, may1, Tuple{int64_t{3}, 3100.0});
  std::cout << "Cutting it 5 days ahead: "
            << (ok.ok() ? "accepted" : ok.status().ToString()) << "\n";

  // And a tape cut two days before payday (the bank needs three).
  clock->SetTo(may1 - Duration::Days(2));
  auto too_late =
      scenario->InsertEvent(2, may1, Tuple{int64_t{2}, 3100.0});
  std::cout << "Cutting the May tape 2 days before payday:\n  "
            << too_late.status().ToString() << "\n";
  return 0;
}
